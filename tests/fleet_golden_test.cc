// Golden fleet test: pins ServingCluster's FleetReport bit-exactly.
//
// Each case serves a small trace and reduces the report to one line: a
// digest of every replica's request records (id, tenant, arrival, start,
// finish, hit, batch size, retries, degraded — hashed per replica, so
// placement shows), a digest of the per-replica reports, the makespan as a
// hex float, and every fleet counter (searches, keys, scaling, shipping,
// events, fault and scheduler outcomes, summed store and planner lookup
// counts). A refactor of placement, keying, batching or the memoized
// execute path either reproduces every line or fails.
//
// The grid covers all three placement policies with plan shipping on and
// off, bounded stores that evict (over two runs on one fleet), reactive
// plus predictive autoscaling with drains, scheduler preemption (the
// router's avoid-id path), the scheduler's executor branches (ready-batch
// backfill, a pop that starts or is vetoed from a tune, a head delay, a
// backfill window that skips a failed tune), each of the five fault
// kinds, faults skipped on an unhealthy or never-spawned replica, a crash
// past the retry budget, a crash restore that finds its drained replica
// retired, a full outage (placement stalls), full and partial SLO shedding
// at the degrade point, dispatch rounds that start several cold batches
// at once (a hang restore, and four lanes against bounded stores), and
// sparse traces whose placements are all equal-load ties. On a mismatch
// the test prints the case's actual line in literal form. A second pass
// reruns every case with an enabled ObsPlane: it must reproduce the same
// lines and, across the grid, emit the scheduler and degrade spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/serving_cluster.h"
#include "src/cluster/spec_catalog.h"
#include "src/core/overlap_engine.h"
#include "src/core/overlap_planner.h"
#include "src/core/plan_store.h"
#include "src/core/tuner.h"
#include "src/fault/fault_schedule.h"
#include "src/obs/obs_plane.h"
#include "src/serve/request_source.h"
#include "src/util/rng.h"

namespace flo {
namespace {

ScenarioSpec SmallSpec(int64_t m) {
  return ScenarioSpec::Overlap(GemmShape{m, 2048, 1024}, CommPrimitive::kAllReduce);
}

// A two-tenant mix over `keys` distinct specs.
std::vector<ServeRequest> MixedTrace(int keys, int per_tenant) {
  std::vector<ScenarioSpec> specs;
  for (int k = 0; k < keys; ++k) {
    specs.push_back(SmallSpec(1024 + 512 * k));
  }
  return MergeStreams(
      {MakeRequestStream("llm", specs, PoissonArrivals(800.0, per_tenant, 3), 0),
       MakeRequestStream("moe", specs, BurstyArrivals(1600.0, 4.0, 6, per_tenant, 5), 100000)});
}

// A hard burst at t=0, then a long sparse tail: spawns, then drains.
std::vector<ServeRequest> BurstThenTail() {
  std::vector<ServeRequest> trace;
  int64_t id = 0;
  for (int i = 0; i < 60; ++i) {
    trace.push_back({id++, "burst", static_cast<double>(i), SmallSpec(1024 + 512 * (i % 3))});
  }
  for (int i = 0; i < 12; ++i) {
    trace.push_back({id++, "tail", 2.0e6 + 400000.0 * i, SmallSpec(1024 + 512 * (i % 3))});
  }
  return trace;
}

// Arrivals 200ms apart: every replica is idle with an empty queue at each
// placement, so every least-loaded pick is an equal-load tie.
std::vector<ServeRequest> SparseTrace(int keys, int count) {
  std::vector<ServeRequest> trace;
  for (int i = 0; i < count; ++i) {
    trace.push_back(
        {i, i % 2 == 0 ? "llm" : "moe", 200000.0 * i, SmallSpec(1024 + 512 * (i % keys))});
  }
  return trace;
}

// `count` arrivals over the first `tenants` of a, b, c and `keys` specs,
// with seeded gaps uniform in [0, 2 * mean_gap_us): small mixes whose
// seeds were picked to steer the scheduler into one branch each.
std::vector<ServeRequest> SeededMix(uint64_t seed, int tenants, int keys, int count,
                                    double mean_gap_us) {
  static const char* const kTenants[] = {"a", "b", "c"};
  Rng rng(seed);
  std::vector<ServeRequest> trace;
  SimTime at = 0.0;
  for (int i = 0; i < count; ++i) {
    at += rng.NextDouble(0.0, 2.0 * mean_gap_us);
    const int tenant = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(tenants)));
    const int key = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(keys)));
    trace.push_back({i, kTenants[tenant], at, SmallSpec(1024 + 512 * key)});
  }
  return trace;
}

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

std::string Hex64(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

StableHash& MixDouble(StableHash& hash, double value) {
  return hash.Mix(std::bit_cast<uint64_t>(value));
}

// The report (plus the fleet's store and planner lookup totals) as one
// comparable line.
std::string Fingerprint(const ServingCluster& fleet, const FleetReport& report) {
  StableHash records;
  StableHash replicas;
  for (const ReplicaReport& replica : report.replicas) {
    records.Mix(replica.id);
    for (const RequestRecord& record : replica.serve.stats.records()) {
      records.Mix(record.id).Mix(record.tenant.c_str());
      MixDouble(records, record.arrival_us);
      MixDouble(records, record.start_us);
      MixDouble(records, record.finish_us);
      records.Mix(record.plan_cache_hit ? 1 : 0).Mix(record.batch_size);
      records.Mix(record.retries).Mix(record.degraded ? 1 : 0);
    }
    const ServeReport& serve = replica.serve;
    replicas.Mix(replica.id).Mix(replica.tuner_searches).Mix(replica.plans_resident);
    MixDouble(replicas, replica.spawned_us);
    MixDouble(replicas, replica.retired_us);
    MixDouble(replicas, serve.makespan_us);
    MixDouble(replicas, serve.executor_busy_us);
    MixDouble(replicas, serve.tuner_busy_us);
    MixDouble(replicas, serve.reserve_idle_us);
    replicas.Mix(serve.stats.count()).Mix(serve.batches).Mix(serve.cold_batches);
    replicas.Mix(serve.tuner_lanes).Mix(serve.tuner_retries).Mix(serve.degraded_requests);
    replicas.Mix(serve.backfills).Mix(serve.sched_reserves).Mix(serve.head_delays);
    replicas.Mix(serve.shed_requests);
  }
  PlanStoreStats stores;
  size_t planner_hits = 0;
  size_t planner_misses = 0;
  for (const auto& replica : fleet.replicas()) {
    const PlanStoreStats stats = replica->store()->stats();
    stores.hits += stats.hits;
    stores.misses += stats.misses;
    stores.evictions += stats.evictions;
    planner_hits += replica->engine().planner().stats().cache_hits;
    planner_misses += replica->engine().planner().stats().cache_misses;
  }
  const FaultReport& f = report.fault;
  const SchedReport& s = report.sched;
  std::string line = "records=" + Hex64(records.value()) + " replicas=" + Hex64(replicas.value());
  line += " makespan=" + Hex(report.makespan_us);
  line += " n=" + std::to_string(report.stats.count());
  line += " searches=" + std::to_string(report.total_searches);
  line += " keys=" + std::to_string(report.distinct_keys);
  line += " peak=" + std::to_string(report.peak_replicas);
  line += " scale=" + std::to_string(report.spawns) + "/" + std::to_string(report.drains) + "/" +
          std::to_string(report.prespawns);
  line += " ship=" + std::to_string(report.shipping.published) + "/" +
          std::to_string(report.shipping.shipped) + "/" +
          std::to_string(report.shipping.duplicate_tunes_avoided) + "/" +
          std::to_string(report.shipping.ship_drops);
  line += " events=" + std::to_string(report.events);
  line += " fault=" + std::to_string(f.injected_crashes) + "/" + std::to_string(f.injected_hangs) +
          "/" + std::to_string(f.injected_slowdowns) + "/" +
          std::to_string(f.injected_tuner_failures) + "/" +
          std::to_string(f.injected_ship_loss_windows) + ":" +
          std::to_string(f.requests_requeued) + "/" + std::to_string(f.requests_retried) + "/" +
          std::to_string(f.retry_budget_exhausted) + "/" + std::to_string(f.placement_stalls) +
          "/" + std::to_string(f.requests_degraded) + "/" + std::to_string(f.tuner_retries) +
          "/" + std::to_string(f.plans_rewarmed) + "/" + std::to_string(f.replica_restarts) +
          "/" + std::to_string(f.ship_drops) + "/" + std::to_string(f.requests_shed);
  line += " sched=" + std::to_string(s.backfills) + "/" + std::to_string(s.reserves) + "/" +
          Hex(s.reserve_idle_us) + "/" + std::to_string(s.head_delays) + "/" +
          std::to_string(s.preempt_scans) + "/" + std::to_string(s.preempted_requests) + "/" +
          std::to_string(s.shed_requests);
  line += " store=" + std::to_string(stores.hits) + "/" + std::to_string(stores.misses) + "/" +
          std::to_string(stores.evictions);
  line += " planner=" + std::to_string(planner_hits) + "/" + std::to_string(planner_misses);
  return line;
}

struct GoldenCase {
  std::string name;
  ClusterConfig config;
  std::vector<ServeRequest> trace;
  // Scripted faults (empty = none, or whatever config.faults generates).
  std::vector<FaultEvent> script;
  // Runs of the trace on the same fleet (the second serves warm).
  int runs = 1;
  // Guards that the case still exercises the path it is named for.
  std::function<bool(const FleetReport&)> covers;
};

ClusterConfig Policy(PlacementPolicy policy, bool ship, int replicas = 4) {
  ClusterConfig config;
  config.replicas = replicas;
  config.policy = policy;
  config.ship_plans = ship;
  return config;
}

std::vector<GoldenCase> Cases() {
  std::vector<GoldenCase> cases;
  const auto always = [](const FleetReport&) { return true; };
  const struct {
    const char* name;
    PlacementPolicy policy;
    bool ship;
  } policies[] = {
      {"round_robin_ship", PlacementPolicy::kRoundRobin, true},
      {"round_robin_local", PlacementPolicy::kRoundRobin, false},
      {"least_loaded_ship", PlacementPolicy::kLeastLoaded, true},
      {"least_loaded_local", PlacementPolicy::kLeastLoaded, false},
      {"affinity_ship", PlacementPolicy::kPlanAffinity, true},
      {"affinity_local", PlacementPolicy::kPlanAffinity, false},
  };
  for (const auto& p : policies) {
    cases.push_back({p.name, Policy(p.policy, p.ship), MixedTrace(4, 40), {}, 1, always});
  }

  const auto evicts = [](const FleetReport& r) {
    size_t resident = 0;
    for (const ReplicaReport& replica : r.replicas) {
      resident = std::max(resident, replica.plans_resident);
    }
    return r.distinct_keys > resident;
  };
  {
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 3);
    config.store_capacity = 2;
    cases.push_back({"bounded_affinity_two_runs", config, MixedTrace(5, 30), {}, 2, evicts});
  }
  {
    ClusterConfig config = Policy(PlacementPolicy::kLeastLoaded, false, 2);
    config.store_capacity = 1;
    cases.push_back({"bounded_least_loaded_local", config, MixedTrace(4, 30), {}, 1, evicts});
  }
  {
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 1);
    config.autoscale.enabled = true;
    config.autoscale.predictive = true;
    config.autoscale.min_replicas = 1;
    config.autoscale.max_replicas = 4;
    config.autoscale.check_interval_us = 20000.0;
    config.autoscale.spawn_queue_per_replica = 4.0;
    config.autoscale.drain_queue_per_replica = 1.0;
    config.autoscale.drain_after_calm_checks = 3;
    cases.push_back({"autoscale_predictive_two_runs", config, BurstThenTail(), {}, 2,
                     [](const FleetReport& r) { return r.drains > 0; }});
  }
  {
    ClusterConfig config = Policy(PlacementPolicy::kLeastLoaded, true, 2);
    config.autoscale.enabled = true;
    config.autoscale.predictive = true;
    config.autoscale.min_replicas = 1;
    config.autoscale.max_replicas = 4;
    config.autoscale.check_interval_us = 5000.0;
    config.autoscale.prespawn_headroom = 0.2;
    config.autoscale.drain_after_calm_checks = 2;
    cases.push_back({"autoscale_prespawn", config, MixedTrace(3, 60), {}, 1,
                     [](const FleetReport& r) { return r.prespawns > 0; }});
  }

  const auto preempts = [](const FleetReport& r) { return r.sched.preempted_requests > 0; };
  {
    ClusterConfig config = Policy(PlacementPolicy::kRoundRobin, true, 2);
    config.sched.enabled = true;
    config.faults.slowdowns = 1;
    config.faults.horizon_us = 30000.0;
    cases.push_back({"sched_preempt_straggler_rr", config, MixedTrace(3, 40),
                     {FaultEvent{2000.0, FaultKind::kSlowdown, 0, 20000.0, 4.0}}, 1, preempts});
  }
  for (const PlacementPolicy policy :
       {PlacementPolicy::kPlanAffinity, PlacementPolicy::kLeastLoaded}) {
    ClusterConfig config = Policy(policy, true, 3);
    config.sched.enabled = true;
    config.sched.preempt_interval_us = 500.0;
    config.sched.overload_factor = 1.5;
    config.sched.overload_min_queue = 2;
    cases.push_back({std::string("sched_preempt_overload_") + PlacementPolicyName(policy), config,
                     MixedTrace(4, 60), {}, 1, preempts});
  }

  {
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 2);
    config.faults.crashes = 1;
    config.faults.horizon_us = 40000.0;
    cases.push_back({"fault_crash", config, MixedTrace(4, 40),
                     {FaultEvent{30000.0, FaultKind::kCrash, 0, 8000.0, 0.0}}, 1,
                     [](const FleetReport& r) { return r.fault.requests_requeued > 0; }});
  }
  {
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 2);
    config.faults.crashes = 2;
    config.faults.horizon_us = 40000.0;
    cases.push_back({"fault_full_outage", config, MixedTrace(2, 30),
                     {FaultEvent{5000.0, FaultKind::kCrash, 0, 4000.0, 0.0},
                      FaultEvent{5000.0, FaultKind::kCrash, 1, 4000.0, 0.0}},
                     1, [](const FleetReport& r) { return r.fault.placement_stalls > 0; }});
  }
  {
    // A zero retry budget: every request the crash requeues exceeds it.
    // The later faults on the crashed replica, and one aimed at a replica
    // that was never spawned, are skipped.
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 2);
    config.faults.crashes = 1;
    config.faults.horizon_us = 40000.0;
    config.faults.retry_budget = 0;
    cases.push_back({"fault_crash_retry_budget_skips", config, MixedTrace(4, 40),
                     {FaultEvent{30000.0, FaultKind::kCrash, 0, 8000.0, 0.0},
                      FaultEvent{31000.0, FaultKind::kCrash, 0, 1000.0, 0.0},
                      FaultEvent{32000.0, FaultKind::kHang, 0, 1000.0, 0.0},
                      FaultEvent{33000.0, FaultKind::kSlowdown, 0, 1000.0, 4.0},
                      FaultEvent{34000.0, FaultKind::kTunerFail, 7, 0.0, 0.0}},
                     1, [](const FleetReport& r) {
                       const FaultReport& f = r.fault;
                       return f.injected_total() == 1 && f.injected_crashes == 1 &&
                              f.retry_budget_exhausted > 0 &&
                              f.retry_budget_exhausted == f.requests_requeued;
                     }});
  }
  {
    // The autoscaler drains replica 1 while its only request tunes; a
    // crash then empties it, it retires, and the crash's restore finds it
    // gone: no restart.
    std::vector<ServeRequest> trace = {{0, "llm", 0.0, SmallSpec(1024)},
                                       {1, "llm", 30000.0, SmallSpec(1536)}};
    ClusterConfig config = Policy(PlacementPolicy::kRoundRobin, true, 2);
    config.autoscale.enabled = true;
    config.autoscale.min_replicas = 1;
    config.autoscale.max_replicas = 2;
    config.autoscale.check_interval_us = 5000.0;
    config.autoscale.drain_after_calm_checks = 7;
    config.faults.crashes = 1;
    config.faults.horizon_us = 40000.0;
    cases.push_back({"fault_crash_draining_retires", config, std::move(trace),
                     {FaultEvent{36000.0, FaultKind::kCrash, 1, 50000.0, 0.0}}, 1,
                     [](const FleetReport& r) {
                       return r.drains > 0 && r.fault.injected_crashes == 1 &&
                              r.fault.requests_requeued > 0 && r.fault.replica_restarts == 0;
                     }});
  }
  {
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 2);
    config.faults.hangs = 1;
    config.faults.horizon_us = 30000.0;
    config.faults.hang_detect_us = 1000.0;
    cases.push_back({"fault_hang", config, MixedTrace(3, 30),
                     {FaultEvent{4000.0, FaultKind::kHang, 0, 8000.0, 0.0}}, 1,
                     [](const FleetReport& r) { return r.fault.requests_requeued > 0; }});
  }
  {
    ClusterConfig config = Policy(PlacementPolicy::kLeastLoaded, true, 2);
    config.faults.slowdowns = 1;
    config.faults.horizon_us = 30000.0;
    cases.push_back({"fault_slowdown", config, MixedTrace(3, 30),
                     {FaultEvent{2000.0, FaultKind::kSlowdown, 0, 15000.0, 4.0}}, 1,
                     [](const FleetReport& r) { return r.fault.injected_slowdowns == 1; }});
  }
  {
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, false, 2);
    config.faults.tuner_failures = 2;
    config.faults.horizon_us = 80000.0;
    config.faults.tuner_retry_budget = 0;
    cases.push_back({"fault_tuner_fail_degrade", config, MixedTrace(2, 20),
                     {FaultEvent{5000.0, FaultKind::kTunerFail, 0, 0.0, 0.0},
                      FaultEvent{5000.0, FaultKind::kTunerFail, 1, 0.0, 0.0}},
                     1, [](const FleetReport& r) { return r.fault.requests_degraded > 0; }});
  }
  {
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 2);
    config.sched.enabled = true;
    config.sched.slo_shed = true;
    config.sched.slo_p99_us = 1000.0;
    config.sched.preempt_requeue = false;
    config.faults.tuner_failures = 2;
    config.faults.horizon_us = 80000.0;
    config.faults.tuner_retry_budget = 0;
    // The second key arrives after the first key's ~20ms search has blown
    // the tenant's SLO; its own search is then aborted past the budget.
    std::vector<SimTime> late = PoissonArrivals(2000.0, 6, 7);
    for (SimTime& at : late) {
      at += 30000.0;
    }
    auto trace = MergeStreams(
        {MakeRequestStream("llm", {SmallSpec(1024)}, PoissonArrivals(500.0, 12, 3), 0),
         MakeRequestStream("llm", {SmallSpec(4096)}, late, 30000)});
    cases.push_back({"fault_tuner_fail_shed", config, std::move(trace),
                     {FaultEvent{36000.0, FaultKind::kTunerFail, 0, 0.0, 0.0},
                      FaultEvent{36000.0, FaultKind::kTunerFail, 1, 0.0, 0.0}},
                     1, [](const FleetReport& r) { return r.fault.requests_shed > 0; }});
  }
  {
    ClusterConfig config = Policy(PlacementPolicy::kRoundRobin, true, 4);
    config.faults.ship_loss_windows = 1;
    config.faults.horizon_us = 40000.0;
    cases.push_back({"fault_ship_loss", config, MixedTrace(4, 40),
                     {FaultEvent{1.0, FaultKind::kShipLoss, -1, 1e9, 1.0}}, 1,
                     [](const FleetReport& r) { return r.fault.ship_drops > 0; }});
  }
  {
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 4);
    config.serve.tuner_lanes = 2;
    config.sched.enabled = true;
    config.faults.seed = 42;
    config.faults.horizon_us = 40000.0;
    config.faults.crashes = 1;
    config.faults.hangs = 1;
    config.faults.slowdowns = 1;
    config.faults.tuner_failures = 1;
    config.faults.ship_loss_windows = 1;
    cases.push_back({"fault_seeded_all_kinds", config, MixedTrace(4, 40), {}, 1,
                     [](const FleetReport& r) { return r.fault.injected_total() > 0; }});
  }
  {
    // Two tuning lanes on one replica: keys 0 and 1 take both lanes, keys
    // 2 to 5 park, and the replica hangs (shorter than the detection
    // deadline) while both searches finish. The restore's dispatch round
    // finds both lanes free and starts two parked cold batches at once.
    std::vector<ServeRequest> trace;
    for (int64_t k = 0; k < 6; ++k) {
      trace.push_back({k, "llm", static_cast<double>(k), SmallSpec(1024 + 512 * k)});
    }
    for (int64_t i = 6; i < 30; ++i) {
      trace.push_back({i, i % 2 == 0 ? "llm" : "moe", 30000.0 + 500.0 * static_cast<double>(i),
                       SmallSpec(1024 + 512 * (i % 6))});
    }
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 1);
    config.serve.tuner_lanes = 2;
    config.faults.hangs = 1;
    config.faults.horizon_us = 60000.0;
    config.faults.hang_detect_us = 50000.0;
    cases.push_back({"fault_hang_restore_two_lanes", config, std::move(trace),
                     {FaultEvent{10.0, FaultKind::kHang, 0, 25000.0, 0.0}}, 1,
                     [](const FleetReport& r) {
                       return r.fault.injected_hangs == 1 && r.fault.requests_requeued == 0 &&
                              r.replicas[0].serve.tuner_lanes == 2;
                     }});
  }
  {
    // Four lanes against two-plan stores under seeded faults: many rounds
    // start several cold batches, and each plan build can evict a plan a
    // later batch of the same round is about to look up.
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 2);
    config.serve.tuner_lanes = 4;
    config.store_capacity = 2;
    config.faults.seed = 42;
    config.faults.horizon_us = 40000.0;
    config.faults.crashes = 1;
    config.faults.hangs = 1;
    config.faults.slowdowns = 1;
    config.faults.tuner_failures = 1;
    config.faults.ship_loss_windows = 1;
    cases.push_back({"fault_seeded_bounded_four_lanes", config, MixedTrace(6, 40), {}, 1,
                     [evicts](const FleetReport& r) {
                       return evicts(r) && r.fault.injected_total() == 5;
                     }});
  }

  {
    ClusterConfig config = Policy(PlacementPolicy::kLeastLoaded, true, 1);
    config.sched.enabled = true;
    config.sched.preempt_requeue = false;
    cases.push_back({"sched_backfill_ready", config, SeededMix(43, 2, 3, 8, 900.0), {}, 1,
                     [](const FleetReport& r) { return r.sched.backfills > 0; }});
  }
  {
    // The executor's pop finds a cold key behind a parked one and starts
    // it on the second tuning lane.
    ClusterConfig config = Policy(PlacementPolicy::kRoundRobin, false, 1);
    config.serve.tuner_lanes = 2;
    config.sched.enabled = true;
    config.sched.preempt_requeue = false;
    cases.push_back({"sched_two_lanes_pop_tunes", config, SeededMix(5368, 3, 3, 9, 900.0), {},
                     1, always});
  }
  {
    // A peer owns the key's search (fleet single-flight), so the
    // executor's cold pop is vetoed and parks.
    ClusterConfig config = Policy(PlacementPolicy::kLeastLoaded, true, 2);
    config.serve.tuner_lanes = 2;
    config.sched.enabled = true;
    config.sched.preempt_requeue = false;
    cases.push_back({"sched_pop_vetoed_ship", config, SeededMix(348, 2, 3, 10, 900.0), {}, 1,
                     [](const FleetReport& r) { return r.shipping.duplicate_tunes_avoided > 0; }});
  }
  {
    // A backfilled batch still runs when a higher-priority tune lands.
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 1);
    config.serve.tuner_lanes = 2;
    config.sched.enabled = true;
    config.sched.preempt_requeue = false;
    cases.push_back({"sched_head_delay", config, SeededMix(3062, 2, 3, 14, 1300.0), {}, 1,
                     [](const FleetReport& r) { return r.sched.head_delays > 0; }});
  }
  {
    // A blocked head's backfill window skips a tune an injected fault
    // has already failed.
    ClusterConfig config = Policy(PlacementPolicy::kRoundRobin, false, 1);
    config.serve.tuner_lanes = 2;
    config.sched.enabled = true;
    config.sched.preempt_requeue = false;
    config.faults.tuner_failures = 1;
    config.faults.horizon_us = 80000.0;
    config.faults.tuner_retry_budget = 0;
    cases.push_back({"sched_window_skips_failed_tune", config, SeededMix(1570, 2, 3, 10, 100.0),
                     {FaultEvent{32000.0, FaultKind::kTunerFail, 0, 0.0, 0.0}}, 1,
                     [](const FleetReport& r) { return r.fault.requests_degraded > 0; }});
  }
  {
    // The SLO shed drops some of a degraded batch's requests and serves
    // the rest on the safety plan.
    ClusterConfig config = Policy(PlacementPolicy::kRoundRobin, false, 1);
    config.sched.enabled = true;
    config.sched.slo_shed = true;
    config.sched.slo_p99_us = 1000.0;
    config.sched.preempt_requeue = false;
    config.faults.tuner_failures = 2;
    config.faults.horizon_us = 80000.0;
    config.faults.tuner_retry_budget = 0;
    cases.push_back({"fault_tuner_fail_partial_shed", config, SeededMix(19501, 3, 2, 9, 900.0),
                     {FaultEvent{25000.0, FaultKind::kTunerFail, 0, 0.0, 0.0},
                      FaultEvent{28000.0, FaultKind::kTunerFail, 0, 0.0, 0.0}},
                     1, [](const FleetReport& r) {
                       return r.fault.requests_shed > 0 && r.fault.requests_degraded > 0;
                     }});
  }
  {
    // SLO shed on, but the degraded batch's tenants are within their SLO:
    // every request is kept and served on the safety plan intact.
    ClusterConfig config = Policy(PlacementPolicy::kPlanAffinity, true, 1);
    config.sched.enabled = true;
    config.sched.slo_shed = true;
    config.sched.slo_p99_us = 1000.0;
    config.sched.preempt_requeue = false;
    config.faults.tuner_failures = 1;
    config.faults.horizon_us = 80000.0;
    config.faults.tuner_retry_budget = 0;
    cases.push_back({"fault_tuner_fail_shed_keeps_all", config, SeededMix(159, 2, 4, 10, 1300.0),
                     {FaultEvent{13000.0, FaultKind::kTunerFail, 0, 0.0, 0.0}}, 1,
                     [](const FleetReport& r) {
                       return r.fault.requests_shed == 0 && r.fault.requests_degraded > 0;
                     }});
  }

  cases.push_back({"ties_least_loaded_sparse", Policy(PlacementPolicy::kLeastLoaded, true),
                   SparseTrace(3, 24), {}, 1, always});
  cases.push_back({"ties_affinity_sparse", Policy(PlacementPolicy::kPlanAffinity, true),
                   SparseTrace(3, 24), {}, 1, always});
  cases.push_back({"ties_affinity_local_sparse", Policy(PlacementPolicy::kPlanAffinity, false),
                   SparseTrace(2, 16), {}, 1, always});
  return cases;
}

// `line` as adjacent string literals, broken before " n=", " events="
// and " sched=" (the layout of kGolden below).
std::string Literal(const std::string& line) {
  std::string out = "\"";
  for (size_t i = 0; i < line.size(); ++i) {
    for (const char* marker : {" n=", " events=", " sched="}) {
      if (line.compare(i, std::string(marker).size(), marker) == 0) {
        out += "\"\n       \"";
      }
    }
    out += line[i];
  }
  return out + "\"";
}

// Expected lines per case, one per run.
const std::vector<std::pair<std::string, std::vector<std::string>>> kGolden = {
    {"round_robin_ship",
     {"records=2a2d9b693aec26b5 replicas=ca317bc0f66442d5 makespan=0x1.2b65e9b7e772ep+16"
       " n=80 searches=4 keys=4 peak=4 scale=0/0/0 ship=4/12/15/0"
       " events=141 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=57/4/0 planner=57/4"}},
    {"round_robin_local",
     {"records=d1cb45f7ad844c27 replicas=c5d1ac7e71b715d7 makespan=0x1.2b65e9b7e772ep+16"
       " n=80 searches=12 keys=4 peak=4 scale=0/0/0 ship=0/0/0/0"
       " events=139 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=47/12/0 planner=47/12"}},
    {"least_loaded_ship",
     {"records=a3d980cd59e13cd2 replicas=a73a665030e1cfe0 makespan=0x1.2b65e9b7e772ep+16"
       " n=80 searches=4 keys=4 peak=4 scale=0/0/0 ship=4/12/19/0"
       " events=145 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=61/4/0 planner=61/4"}},
    {"least_loaded_local",
     {"records=18bd39527a1559b7 replicas=571396f06f937389 makespan=0x1.4f3c8165321d3p+16"
       " n=80 searches=16 keys=4 peak=4 scale=0/0/0 ship=0/0/0/0"
       " events=131 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=35/16/0 planner=35/16"}},
    {"affinity_ship",
     {"records=deb80005eb5d92d8 replicas=3a7ef190c4e2af31 makespan=0x1.2b65e9b7e772ep+16"
       " n=80 searches=4 keys=4 peak=4 scale=0/0/0 ship=4/12/0/0"
       " events=140 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=56/4/0 planner=56/4"}},
    {"affinity_local",
     {"records=09eecd362b5837f6 replicas=a788292d7e997b52 makespan=0x1.2b65e9b7e772ep+16"
       " n=80 searches=4 keys=4 peak=4 scale=0/0/0 ship=0/0/0/0"
       " events=136 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=52/4/0 planner=52/4"}},
    {"bounded_affinity_two_runs",
     {"records=c752e6804c25b28b replicas=49c5828d3e1ca304 makespan=0x1.05204087eab17p+16"
       " n=60 searches=5 keys=5 peak=3 scale=0/0/0 ship=5/14/0/0"
       " events=106 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=36/10/18 planner=36/10",
      "records=e344b98b347a0f4a replicas=c9d203a2d8050534 makespan=0x1.05204087eab17p+16"
       " n=60 searches=0 keys=5 peak=3 scale=0/0/0 ship=5/14/0/0"
       " events=120 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=96/10/18 planner=96/10"}},
    {"bounded_least_loaded_local",
     {"records=a53047cf6a6c29b7 replicas=8fd700e4e2ac20ce makespan=0x1.621298d2dfa2p+16"
       " n=60 searches=8 keys=4 peak=2 scale=0/0/0 ship=0/0/0/0"
       " events=97 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=11/26/24 planner=11/26"}},
    {"autoscale_predictive_two_runs",
     {"records=7729cf34e394d319 replicas=2726f96c443dccad makespan=0x1.86ae05f5a6beap+22"
       " n=72 searches=3 keys=3 peak=4 scale=3/3/0 ship=3/9/0/0"
       " events=423 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=27/3/0 planner=27/3",
      "records=d74c96f676f4482d replicas=c047f4dd028e0ca6 makespan=0x1.86ae05f5a6beap+22"
       " n=72 searches=0 keys=3 peak=2 scale=1/1/0 ship=3/12/0/0"
       " events=465 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=99/3/0 planner=99/3"}},
    {"autoscale_prespawn",
     {"records=25652cb516d325ea replicas=e57ef9c1768cb279 makespan=0x1.a40cd2b3ad246p+16"
       " n=120 searches=3 keys=3 peak=4 scale=3/2/1 ship=3/12/54/0"
       " events=241 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=96/3/0 planner=96/3"}},
    {"sched_preempt_straggler_rr",
     {"records=adf361db1c995040 replicas=fbbc5a63c8e4dd1e makespan=0x1.2c0b1f50af5b9p+16"
       " n=80 searches=3 keys=3 peak=2 scale=0/0/0 ship=3/3/64/0"
       " events=189 fault=0/0/1/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=4/6/0x1.a7e5f8b4bb17p+15/0/39/291/0 store=65/3/0 planner=65/3"}},
    {"sched_preempt_overload_PlanAffinity",
     {"records=58cd4332d013e291 replicas=71646e75f7c820e3 makespan=0x1.a4dc2ad75226p+16"
       " n=120 searches=4 keys=4 peak=3 scale=0/0/0 ship=4/8/59/0"
       " events=432 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=5/7/0x1.19e875e8873ecp+16/0/216/1231/0 store=92/4/0 planner=92/4"}},
    {"sched_preempt_overload_LeastLoaded",
     {"records=467612e2b6961e06 replicas=5f5d3b28535febdc makespan=0x1.a4dc2ad75226p+16"
       " n=120 searches=4 keys=4 peak=3 scale=0/0/0 ship=4/8/84/0"
       " events=445 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=2/6/0x1.184452db10c8p+16/0/216/162/0 store=105/4/0 planner=105/4"}},
    {"fault_crash",
     {"records=3610599d06db166c replicas=a01e198f861efbf4 makespan=0x1.2e672bfcb7ep+16"
       " n=80 searches=5 keys=4 peak=2 scale=0/0/0 ship=4/6/0/0"
       " events=147 fault=1/0/0/0/0:12/12/0/0/0/0/2/1/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=48/5/0 planner=48/5"}},
    {"fault_full_outage",
     {"records=522e3e6aeea5fdd6 replicas=5ad82844b9006379 makespan=0x1.031655c1405c9p+16"
       " n=60 searches=4 keys=2 peak=2 scale=0/0/0 ship=2/2/0/0"
       " events=412 fault=2/0/0/0/0:14/17/0/300/0/0/0/2/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=30/4/0 planner=30/4"}},
    {"fault_crash_retry_budget_skips",
     {"records=3610599d06db166c replicas=a01e198f861efbf4 makespan=0x1.2e672bfcb7ep+16"
       " n=80 searches=5 keys=4 peak=2 scale=0/0/0 ship=4/6/0/0"
       " events=151 fault=1/0/0/0/0:12/12/12/0/0/0/2/1/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=48/5/0 planner=48/5"}},
    {"fault_crash_draining_retires",
     {"records=535084c2d6d99159 replicas=324cb1a38dc485ca makespan=0x1.bd95b3ad19c02p+15"
       " n=2 searches=3 keys=2 peak=2 scale=0/1/0 ship=2/1/0/0"
       " events=22 fault=1/0/0/0/0:1/1/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=2/3/0 planner=2/3"}},
    {"fault_hang",
     {"records=ca70eafd45666425 replicas=957e66763e16f8d5 makespan=0x1.04d31f5b3e071p+16"
       " n=60 searches=4 keys=3 peak=2 scale=0/0/0 ship=3/3/0/0"
       " events=110 fault=0/1/0/0/0:6/6/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=37/4/0 planner=37/4"}},
    {"fault_slowdown",
     {"records=86d28ccc1ccbeaca replicas=3bbaa0dd2d5163b9 makespan=0x1.03b39f12c3063p+16"
       " n=60 searches=3 keys=3 peak=2 scale=0/0/0 ship=3/3/8/0"
       " events=102 fault=0/0/1/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=37/3/0 planner=37/3"}},
    {"fault_tuner_fail_degrade",
     {"records=760e8ff03dafc5cc replicas=25433e0b4ff4a6dd makespan=0x1.d242982222456p+15"
       " n=40 searches=2 keys=2 peak=2 scale=0/0/0 ship=0/0/0/0"
       " events=68 fault=0/0/0/2/0:0/0/0/0/2/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=20/6/0 planner=20/6"}},
    {"fault_tuner_fail_shed",
     {"records=615ca6241edcb04a replicas=e073fb7f3bf5029c makespan=0x1.ccb700bf29458p+15"
       " n=17 searches=2 keys=2 peak=2 scale=0/0/0 ship=2/2/0/0"
       " events=29 fault=0/0/0/2/0:0/0/0/0/0/0/0/0/0/1"
       " sched=0/2/0x1.39acp+15/0/0/0/1 store=6/3/0 planner=6/3"}},
    {"fault_ship_loss",
     {"records=130f79621a7912e1 replicas=863f4bb9e4e47a5e makespan=0x1.2b65e9b7e772ep+16"
       " n=80 searches=4 keys=4 peak=4 scale=0/0/0 ship=4/8/22/12"
       " events=151 fault=0/0/0/0/1:0/0/0/0/0/0/0/0/12/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=65/4/0 planner=65/4"}},
    {"fault_seeded_all_kinds",
     {"records=f3163d1d7e493a6f replicas=3094950d0ac584d8 makespan=0x1.2b65e9b7e772ep+16"
       " n=80 searches=5 keys=4 peak=4 scale=0/0/0 ship=4/15/15/0"
       " events=210 fault=1/1/1/1/1:13/13/0/0/0/0/3/1/0/0"
       " sched=1/5/0x1.588c92712e324p+16/0/39/4/0 store=63/5/0 planner=63/5"}},
    {"fault_hang_restore_two_lanes",
     {"records=14802e45a9cfc7cc replicas=149db4e5053f5cdc makespan=0x1.32b5a34bf6902p+16"
       " n=30 searches=6 keys=6 peak=1 scale=0/0/0 ship=6/0/0/0"
       " events=57 fault=0/1/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=18/6/0 planner=18/6"}},
    {"fault_seeded_bounded_four_lanes",
     {"records=8a4b9bc495d9809a replicas=5f773ab2e008e195 makespan=0x1.60f4a22eef43ap+16"
       " n=80 searches=9 keys=6 peak=2 scale=0/0/0 ship=6/59/48/0"
       " events=268 fault=1/1/1/1/1:34/34/0/0/0/0/5/1/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=56/88/141 planner=56/88"}},
    {"sched_backfill_ready",
     {"records=97473b54ebc2ab41 replicas=f3aa9c79375f0d18 makespan=0x1.ebba41ef69e6bp+15"
       " n=8 searches=3 keys=3 peak=1 scale=0/0/0 ship=3/0/0/0"
       " events=15 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=1/3/0x1.b5aeb423eeb98p+15/0/0/0/0 store=4/3/0 planner=4/3"}},
    {"sched_two_lanes_pop_tunes",
     {"records=af3b7419b7e73bdf replicas=747069f87680f5e7 makespan=0x1.599f0155cdd7dp+15"
       " n=9 searches=3 keys=3 peak=1 scale=0/0/0 ship=0/0/0/0"
       " events=17 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=1/2/0x1.19e8d1c83369bp+15/0/0/0/0 store=5/3/0 planner=5/3"}},
    {"sched_pop_vetoed_ship",
     {"records=af2788f803827e85 replicas=807b19f6f3e94975 makespan=0x1.96c9c3aacdfd9p+14"
       " n=10 searches=3 keys=3 peak=2 scale=0/0/0 ship=3/3/1/0"
       " events=19 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/4/0x1.43f4a0ba5547bp+15/0/0/0/0 store=6/3/0 planner=6/3"}},
    {"sched_head_delay",
     {"records=a98fbb50f39b707e replicas=0ed4ad0eb2d52b1a makespan=0x1.62ae7bb7a4f1dp+15"
       " n=14 searches=3 keys=3 peak=1 scale=0/0/0 ship=3/0/0/0"
       " events=25 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=4/2/0x1.0598cb4b96bfcp+15/1/0/0/0 store=8/3/0 planner=8/3"}},
    {"sched_window_skips_failed_tune",
     {"records=759f526ecf92be02 replicas=ca24e10d126770e8 makespan=0x1.6ea3ca42d6173p+15"
       " n=10 searches=3 keys=3 peak=1 scale=0/0/0 ship=0/0/0/0"
       " events=24 fault=0/0/0/1/0:0/0/0/0/2/0/0/0/0/0"
       " sched=1/2/0x1.32a9052ca0b02p+15/0/0/0/0 store=6/7/0 planner=6/7"}},
    {"fault_tuner_fail_partial_shed",
     {"records=92b3ca588bee5cef replicas=18c560aad686e985 makespan=0x1.4ec10c1d94368p+15"
       " n=8 searches=2 keys=2 peak=1 scale=0/0/0 ship=0/0/0/0"
       " events=18 fault=0/0/0/2/0:0/0/0/0/2/0/0/0/0/1"
       " sched=0/2/0x1.1c5df70e3e1p+15/0/0/0/1 store=3/4/0 planner=3/4"}},
    {"fault_tuner_fail_shed_keeps_all",
     {"records=cc7b81811b7e757d replicas=ded63aeff548b33e makespan=0x1.461fd4f47d366p+16"
       " n=10 searches=4 keys=4 peak=1 scale=0/0/0 ship=4/0/0/0"
       " events=21 fault=0/0/0/1/0:0/0/0/0/1/0/0/0/0/0"
       " sched=0/4/0x1.23fe3b3320098p+16/0/0/0/0 store=4/6/0 planner=4/6"}},
    {"ties_least_loaded_sparse",
     {"records=c01d3f1b5b8a77f1 replicas=4f31e0c97af535be makespan=0x1.18d105f5a6beap+22"
       " n=24 searches=3 keys=3 peak=4 scale=0/0/0 ship=3/9/0/0"
       " events=51 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=24/3/0 planner=24/3"}},
    {"ties_affinity_sparse",
     {"records=c01d3f1b5b8a77f1 replicas=4f31e0c97af535be makespan=0x1.18d105f5a6beap+22"
       " n=24 searches=3 keys=3 peak=4 scale=0/0/0 ship=3/9/0/0"
       " events=51 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=24/3/0 planner=24/3"}},
    {"ties_affinity_local_sparse",
     {"records=d8d97260c99152c2 replicas=f43b567ada1eaaeb makespan=0x1.6e4d21a0c167fp+21"
       " n=16 searches=2 keys=2 peak=4 scale=0/0/0 ship=0/0/0/0"
       " events=34 fault=0/0/0/0/0:0/0/0/0/0/0/0/0/0/0"
       " sched=0/0/0x0p+0/0/0/0/0 store=16/2/0 planner=16/2"}},
};

const std::vector<std::string>* ExpectedFor(const std::string& name) {
  for (const auto& [case_name, lines] : kGolden) {
    if (case_name == name) {
      return &lines;
    }
  }
  return nullptr;
}

TEST(FleetGoldenTest, ReportsMatchPinnedDigests) {
  for (const GoldenCase& golden : Cases()) {
    SCOPED_TRACE(golden.name);
    ServingCluster fleet(Make4090Cluster(4), golden.config, {}, EngineOptions{.jitter = false});
    if (!golden.script.empty()) {
      FaultSchedule schedule;
      for (const FaultEvent& event : golden.script) {
        schedule.Add(event);
      }
      fleet.SetFaultSchedule(schedule);
    }
    std::vector<std::string> actual;
    for (int run = 0; run < golden.runs; ++run) {
      const FleetReport report = fleet.Run(golden.trace);
      EXPECT_TRUE(golden.covers(report)) << "case no longer covers its path";
      actual.push_back(Fingerprint(fleet, report));
    }
    const std::vector<std::string>* expected = ExpectedFor(golden.name);
    if (expected == nullptr || *expected != actual) {
      std::string literal = "    {\"" + golden.name + "\",\n     {";
      for (size_t i = 0; i < actual.size(); ++i) {
        literal += (i == 0 ? "" : ",\n      ") + Literal(actual[i]);
      }
      ADD_FAILURE() << "fleet report drifted; actual:\n" << literal << "}},";
    }
  }
}

TEST(FleetGoldenTest, EnabledObsPlaneKeepsEveryDigestAndTracesSchedulerPaths) {
  // Every golden case again, traced: an enabled plane only observes, so
  // each case reproduces its pinned line, and across the grid the
  // scheduler and tuner-fault paths emit their spans.
  std::map<SpanKind, size_t> by_kind;
  for (const GoldenCase& golden : Cases()) {
    SCOPED_TRACE(golden.name);
    ObsConfig obs_config;
    obs_config.enabled = true;
    obs_config.span_ring_capacity = 1 << 16;  // grown on demand, per track
    ObsPlane obs(obs_config);
    ClusterConfig config = golden.config;
    config.serve.obs = &obs;
    ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
    if (!golden.script.empty()) {
      FaultSchedule schedule;
      for (const FaultEvent& event : golden.script) {
        schedule.Add(event);
      }
      fleet.SetFaultSchedule(schedule);
    }
    std::vector<std::string> actual;
    for (int run = 0; run < golden.runs; ++run) {
      actual.push_back(Fingerprint(fleet, fleet.Run(golden.trace)));
      for (size_t track = 0; track < obs.tracer().track_count(); ++track) {
        for (const SpanRecord& span : obs.tracer().TrackSpans(track)) {
          ++by_kind[span.kind];
        }
      }
    }
    const std::vector<std::string>* expected = ExpectedFor(golden.name);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(actual, *expected) << "an enabled ObsPlane changed the run";
  }
  if (kObsCompiledIn) {
    EXPECT_GE(by_kind[SpanKind::kSchedBackfill], 1u);
    EXPECT_GE(by_kind[SpanKind::kSchedReserve], 1u);
    EXPECT_GE(by_kind[SpanKind::kSchedShed], 1u);
    EXPECT_GE(by_kind[SpanKind::kFaultDegraded], 1u);
  }
}

TEST(FleetGoldenTest, CatalogKeysAndDistinctKeysMatchRecounts) {
  // The fleet keys arrivals through a SpecCatalog. On every golden config,
  // a catalog keys each trace spec as the fleet's canonical key, and each
  // run's distinct_keys equals a std::set recount.
  Tuner tuner(Make4090Cluster(4));
  PlanStore store;
  OverlapPlanner planner(&tuner, &store);
  for (const GoldenCase& golden : Cases()) {
    SCOPED_TRACE(golden.name);
    ServingCluster fleet(Make4090Cluster(4), golden.config, {}, EngineOptions{.jitter = false});
    if (!golden.script.empty()) {
      FaultSchedule schedule;
      for (const FaultEvent& event : golden.script) {
        schedule.Add(event);
      }
      fleet.SetFaultSchedule(schedule);
    }
    SpecCatalog catalog(&planner);
    std::set<uint64_t> keys;
    for (const ServeRequest& request : golden.trace) {
      keys.insert(fleet.KeyFor(request.spec));
      EXPECT_EQ(catalog.Key(request.spec), fleet.KeyFor(request.spec));
    }
    for (int run = 0; run < golden.runs; ++run) {
      EXPECT_EQ(fleet.Run(golden.trace).distinct_keys, keys.size());
    }
  }
}

}  // namespace
}  // namespace flo
