// Multi-replica serving benchmark: throughput-latency curves vs replica
// count and placement policy, on a mixed-tenant trace.
//
// Tenants: "llm" replays Llama3-70B inference ops under Poisson arrivals;
// "moe" replays Mixtral imbalanced All-to-All ops under bursty arrivals.
// The offered load is fixed above one executor's capacity, so a single
// replica saturates and the fleet has to absorb the rest — the regime
// where placement policy and plan shipping matter.
//
// Gates (nonzero exit for CI):
//  - plan-affinity beats round-robin on global warm-hit rate AND total
//    tuner searches (shipping off, 4 replicas);
//  - with plan shipping, a 4-replica fleet performs <= N_keys searches
//    (each distinct scenario tuned once fleet-wide);
//  - bit-determinism: reruns identical (also with two tuning lanes);
//    published plans identical at any replica count.
//
//  - chaos: under the default fault dose (1 crash + 1 straggler per 64
//    replicas, seeded via --faults), every request still completes, the
//    chaos p99 stays within 3x the fault-free p99, and the faulted run
//    is itself bit-deterministic.
//
//  - sched (--sched 0 skips): on a bursty multi-tenant trace with a cold
//    key mid-run, the fleet scheduler's fair share + backfill cut the
//    victim tenant's p99 by >= 10% vs FIFO with zero head delays and
//    at least one backfill; sched-off configs are bit-identical to the
//    FIFO run, and sched-on runs are bit-identical across reruns.
//
//  - placement microbench (report only, no gate): ns per table-form
//    FleetRouter::Place, each preceded by one ReplicaTable::SetLoad, at
//    128, 512 and 1,024 warm accepting replicas under an idle-heavy and a
//    busy-heavy load mix.
//
//  - prespawn (--prespawn 0 skips): on a scripted ramp burst, the
//    predictive autoscaler absorbs the burst strictly faster than the
//    reactive-only autoscaler (>= 1 pre-spawn fired, zero drains during
//    the burst); predictive-off configs with every predictive knob
//    tweaked are bit-identical to the reactive run, and predictive-on
//    runs are bit-identical across reruns.
//
// Usage: bench_cluster_bench [--smoke] [--history <file>] [--requests N]
//                            [--faults <seed>] [--sched 0|1]
//                            [--prespawn 0|1] [--trace <file>] [--quiet]
// Writes cluster_bench.csv and BENCH_cluster.json to the cwd; --history
// appends the JSON as one compact line to the given trajectory file;
// --requests overrides the total request count (split across tenants);
// --faults reseeds the chaos schedule (default 1);
// --trace exports the sched section's run as a Chrome trace (the input
// tools/attribute_slo.py consumes) and the prespawn section's burst run
// to the same path with `_prespawn` inserted before the extension;
// --quiet drops the progress narration (gate verdicts still print).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/trajectory.h"
#include "src/cluster/replica_table.h"
#include "src/core/flashoverlap.h"
#include "src/models/workloads.h"
#include "src/obs/obs_plane.h"
#include "src/util/csv.h"
#include "src/util/table.h"

namespace flo {
namespace {

struct TraceSetup {
  ClusterSpec hardware;
  std::vector<ServeRequest> trace;
};

// Mean simulated service time of the spec mix, measured on a scratch
// engine so the benchmarked fleets start genuinely cold.
double MeanServiceUs(const ClusterSpec& hardware, const std::vector<ScenarioSpec>& specs) {
  OverlapEngine scratch(hardware, {}, EngineOptions{.jitter = false});
  double total = 0.0;
  for (const ScenarioSpec& spec : specs) {
    total += scratch.Execute(spec).total_us;
  }
  return total / static_cast<double>(specs.size());
}

TraceSetup MakeTrace(bool smoke, int64_t requests_override) {
  const Workload llm = MakeLlama3Inference();
  const Workload moe = MakeMixtralTraining();
  const std::vector<ScenarioSpec> llm_specs = WorkloadSpecs(llm);
  const std::vector<ScenarioSpec> moe_specs = WorkloadSpecs(moe);
  // A chat tenant with per-conversation GEMM sizes widens the key space —
  // the multi-tenant regime where plan placement actually matters.
  std::vector<ScenarioSpec> chat_specs;
  for (const int64_t m : {1024, 2048, 4096, 6144}) {
    chat_specs.push_back(
        ScenarioSpec::Overlap(GemmShape{m, 8192, 3584}, CommPrimitive::kReduceScatter));
  }
  const double llm_service_us = MeanServiceUs(llm.cluster, llm_specs);
  const double moe_service_us = MeanServiceUs(llm.cluster, moe_specs);
  const double chat_service_us = MeanServiceUs(llm.cluster, chat_specs);
  // Each tenant offers ~0.55x of one executor's capacity: ~1.6x total, so
  // a lone replica drowns and the fleet absorbs the overflow.
  const int per_tenant = requests_override > 0 ? static_cast<int>(requests_override / 3)
                                               : (smoke ? 50 : 200);
  const auto trace = MergeStreams(
      {MakeRequestStream("llm", llm_specs,
                         PoissonArrivals(llm_service_us / 0.55, per_tenant, 1), 0),
       MakeRequestStream("moe", moe_specs,
                         BurstyArrivals(moe_service_us / 0.55, 4.0, 8, per_tenant, 2),
                         100000),
       MakeRequestStream("chat", chat_specs,
                         PoissonArrivals(chat_service_us / 0.55, per_tenant, 3), 200000)});
  return TraceSetup{llm.cluster, trace};
}

FleetReport RunFleet(const TraceSetup& setup, int replicas, PlacementPolicy policy,
                     bool ship_plans) {
  ClusterConfig config;
  config.replicas = replicas;
  config.policy = policy;
  config.ship_plans = ship_plans;
  ServingCluster fleet(setup.hardware, config, {}, EngineOptions{.jitter = false});
  return fleet.Run(setup.trace);
}

void AddRow(CsvWriter* csv, Table* table, int replicas, PlacementPolicy policy,
            bool ship_plans, const FleetReport& report) {
  const PercentileSummary latency = report.stats.LatencyPercentiles();
  csv->AddRow({std::to_string(replicas), PlacementPolicyName(policy),
               ship_plans ? "1" : "0", std::to_string(report.stats.count()),
               FormatDouble(report.ThroughputPerSec(), 2), FormatDouble(latency.p50, 1),
               FormatDouble(latency.p99, 1), FormatDouble(report.WarmHitRate(), 4),
               std::to_string(report.total_searches), std::to_string(report.distinct_keys),
               std::to_string(report.shipping.shipped)});
  table->AddRow({std::to_string(replicas), PlacementPolicyName(policy),
                 ship_plans ? "on" : "off", FormatDouble(report.ThroughputPerSec(), 1),
                 FormatDouble(latency.p50, 0), FormatDouble(latency.p99, 0),
                 FormatDouble(100.0 * report.WarmHitRate(), 1),
                 std::to_string(report.total_searches)});
}

// --- Fleet-scheduler section (src/sched) ------------------------------------

// A bursty multi-tenant trace on one contended executor: an adversary
// floods the shared warm key, a light victim trickles the same key, a
// steady tenant supplies warm filler work, and a newcomer's cold key
// arrives mid-run so its ~20ms search opens backfill windows.
std::vector<ServeRequest> MakeSchedTrace(bool smoke) {
  const int scale = smoke ? 1 : 2;
  const std::vector<ScenarioSpec> shared = {
      ScenarioSpec::Overlap(GemmShape{1024, 2048, 1024}, CommPrimitive::kAllReduce)};
  const std::vector<ScenarioSpec> cold = {
      ScenarioSpec::Overlap(GemmShape{4096, 2048, 1024}, CommPrimitive::kAllReduce)};
  return MergeStreams(
      {MakeRequestStream("steady", shared, PoissonArrivals(600.0, 80 * scale, 3), 0),
       MakeRequestStream("adversary", shared,
                         BurstyArrivals(120.0, 8.0, 16, 240 * scale, 11), 30000),
       MakeRequestStream("victim", shared, PoissonArrivals(4000.0, 24 * scale, 13), 30000),
       MakeRequestStream("newcomer", cold, PoissonArrivals(2000.0, 6 * scale, 7), 30000)});
}

FleetReport RunSchedFleet(const ClusterSpec& hardware,
                          const std::vector<ServeRequest>& trace, bool sched_on,
                          ObsPlane* obs = nullptr) {
  ClusterConfig config;
  config.replicas = 1;
  config.sched.enabled = sched_on;
  // The trace deliberately builds a deep backlog; with the default 100ms
  // starvation backstop every queued request would age past it and the
  // ordering would degenerate to FIFO-by-age. Keep usage shares in force.
  config.sched.starvation_age_us = 1.0e6;
  config.serve.obs = obs;
  ServingCluster fleet(hardware, config, {}, EngineOptions{.jitter = false});
  return fleet.Run(trace);
}

bool SameSchedOutcomes(const SchedReport& a, const SchedReport& b) {
  return a.backfills == b.backfills && a.reserves == b.reserves &&
         a.reserve_idle_us == b.reserve_idle_us && a.head_delays == b.head_delays &&
         a.preempt_scans == b.preempt_scans &&
         a.preempted_requests == b.preempted_requests && a.shed_requests == b.shed_requests;
}

bool SameTimeline(const FleetReport& a, const FleetReport& b) {
  if (a.makespan_us != b.makespan_us || a.stats.count() != b.stats.count() ||
      a.total_searches != b.total_searches) {
    return false;
  }
  for (size_t i = 0; i < a.stats.count(); ++i) {
    if (a.stats.records()[i].finish_us != b.stats.records()[i].finish_us ||
        a.stats.records()[i].plan_cache_hit != b.stats.records()[i].plan_cache_hit) {
      return false;
    }
  }
  return true;
}

// --- Predictive-autoscaling section (rate-estimate pre-spawn) ---------------

// A scripted ramp burst on a warm shared key: a base tenant holds 0.3x of
// one replica's capacity for the whole horizon, then a burst tenant ramps
// 0.6x -> 2.0x across four check intervals and holds 2.0x for one more.
// The ramp segments align with autoscale checkpoints, so the predictive
// tier's rate samples see each segment exactly once.
struct PrespawnSetup {
  std::vector<ServeRequest> trace;
  double check_interval_us = 0.0;
  double burst_start_us = 0.0;
  double service_us = 0.0;
};

PrespawnSetup MakePrespawnTrace(const ClusterSpec& hardware, bool smoke) {
  const std::vector<ScenarioSpec> specs = {
      ScenarioSpec::Overlap(GemmShape{1024, 2048, 1024}, CommPrimitive::kAllReduce)};
  PrespawnSetup setup;
  setup.service_us = MeanServiceUs(hardware, specs);
  // capacity_per_replica requests fit in one check interval.
  setup.check_interval_us = (smoke ? 20.0 : 50.0) * setup.service_us;
  setup.burst_start_us = 4.0 * setup.check_interval_us;
  // The trace ends one interval past the ramp peak, while a late-scaling
  // fleet still owes backlog — the regime where time-to-absorb separates
  // predictive from reactive scaling (a long plateau would let the
  // reactive fleet catch up before arrivals stop and erase the signal).
  const double horizon_us = setup.burst_start_us + 5.0 * setup.check_interval_us;
  std::vector<SimTime> base;
  for (double t = 0.0; t < horizon_us; t += setup.service_us / 0.3) {
    base.push_back(t);
  }
  std::vector<SimTime> burst;
  const double multipliers[5] = {0.6, 1.07, 1.53, 2.0, 2.0};
  for (int segment = 0; segment < 5; ++segment) {
    const double start = setup.burst_start_us + segment * setup.check_interval_us;
    const double gap = setup.service_us / multipliers[segment];
    for (double t = start; t < start + setup.check_interval_us; t += gap) {
      burst.push_back(t);
    }
  }
  setup.trace = MergeStreams({MakeRequestStream("base", specs, base, 0),
                              MakeRequestStream("burst", specs, burst, 100000)});
  return setup;
}

FleetReport RunPrespawnFleet(const ClusterSpec& hardware, const PrespawnSetup& setup,
                             bool predictive, double headroom, ObsPlane* obs = nullptr) {
  ClusterConfig config;
  config.replicas = 1;
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = 1;
  config.autoscale.max_replicas = 6;
  config.autoscale.check_interval_us = setup.check_interval_us;
  // Queue pressure scaled to capacity (0.4 of an interval's worth of
  // work), so smoke and full runs exercise the same scaling regime
  // instead of the absolute default threshold getting easier to cross as
  // the interval grows.
  config.autoscale.spawn_queue_per_replica =
      0.4 * setup.check_interval_us / setup.service_us;
  config.autoscale.drain_after_calm_checks = 3;
  config.autoscale.predictive = predictive;
  config.autoscale.prespawn_headroom = headroom;
  // A quarter-interval half-life: the rate sample at each checkpoint
  // reflects the segment that just ran, not the one before it.
  config.sched.share_half_life_us = setup.check_interval_us / 4.0;
  // One request per dispatch: a replica's absorb rate is then exactly
  // check_interval / service, the capacity model the ramp multipliers
  // are calibrated against (batch fusion would let one replica swallow
  // the whole ramp and the section would measure nothing).
  config.serve.max_batch = 1;
  // Free cold tuning: the shared key's ~20ms default tune would stall
  // the fleet for several check intervals and the section would measure
  // tuning, not scaling (the tuning regime is the sched section's job).
  config.serve.tune_base_us = 0.0;
  config.serve.tune_per_search_us = 0.0;
  config.serve.obs = obs;
  ServingCluster fleet(hardware, config, {}, EngineOptions{.jitter = false});
  return fleet.Run(setup.trace);
}

// One placement-microbench cell: ns per table-form Place at `replicas`
// slots under one load mix.
struct PlaceTiming {
  int replicas = 0;
  bool busy = false;
  double ns_per_place = 0.0;
};

// Every slot accepting and warm for the one key, as in a warm fleet. Each
// timed iteration rewrites one random slot's load (the event feed's
// SetLoad) and then places. The load draws are precomputed outside the
// timed region. Idle-heavy: half
// the draws leave the slot idle (busy_until behind the clock, nothing
// queued), so a zero-load slot is usually near. Busy-heavy: one draw in
// 256 is idle; the rest owe executor time and hold a queue, so most picks
// have to compare non-zero loads.
PlaceTiming TimePlacement(int replicas, bool busy, int placements) {
  constexpr uint64_t kKey = 0x5eed;
  constexpr SimTime kNow = 1000.0;
  constexpr double kCostUs = 100.0;
  struct Draw {
    int slot;
    SimTime busy_until;
    size_t queued;
  };
  Rng rng(static_cast<uint64_t>(replicas) * 2 + (busy ? 1 : 0));
  const auto draw = [&rng, replicas, busy]() {
    Draw d{static_cast<int>(rng.NextBelow(static_cast<uint64_t>(replicas))), kNow - 1.0, 0};
    const bool idle = busy ? rng.NextBelow(256) == 0 : rng.NextBelow(2) == 0;
    if (!idle) {
      d.busy_until = kNow + rng.NextDouble(0.0, 1000.0);
      d.queued = (busy ? 1 : 0) + rng.NextBelow(4);
    }
    return d;
  };
  ReplicaTable table;
  for (int i = 0; i < replicas; ++i) {
    const int id = table.AddSlot();
    table.SetAccepting(id, true);
    table.SetResident(id, kKey, true);
  }
  for (int i = 0; i < replicas; ++i) {
    const Draw d = draw();
    table.SetLoad(i, d.busy_until, d.queued);
  }
  std::vector<Draw> draws(static_cast<size_t>(placements));
  for (Draw& d : draws) {
    d = draw();
  }
  const std::function<bool(int)> pending = [](int) { return false; };
  FleetRouter router(PlacementPolicy::kPlanAffinity);
  double best_s = 0.0;
  uint64_t checksum = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (const Draw& d : draws) {
      table.SetLoad(d.slot, d.busy_until, d.queued);
      checksum += static_cast<uint64_t>(router.Place(table, kKey, kNow, kCostUs, pending));
    }
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    best_s = rep == 0 ? s : std::min(best_s, s);
  }
  // Keeps the picks observable so the loop cannot be elided.
  volatile uint64_t sink = checksum;
  (void)sink;
  return PlaceTiming{replicas, busy, best_s * 1e9 / static_cast<double>(placements)};
}

// Time from the burst's first arrival to the burst tenant's last finish —
// the absorb time the predictive tier is supposed to cut.
double BurstAbsorbUs(const FleetReport& report, double burst_start_us) {
  double last_finish_us = burst_start_us;
  for (const RequestRecord& record : report.stats.records()) {
    if (record.tenant == "burst") {
      last_finish_us = std::max(last_finish_us, record.finish_us);
    }
  }
  return last_finish_us - burst_start_us;
}

bool Run(const BenchArgs& args) {
  const bool smoke = args.smoke;
  const bool quiet = args.quiet;
  const TraceSetup setup = MakeTrace(smoke, args.requests);
  Narrate(quiet, "Serving cluster: %zu requests (llm Poisson + moe bursty), 8x A800\n\n",
          setup.trace.size());
  const auto wall_start = std::chrono::steady_clock::now();
  uint64_t total_events = 0;
  CsvWriter csv({"replicas", "policy", "ship_plans", "requests", "throughput_rps", "p50_us",
                 "p99_us", "warm_hit_rate", "tuner_searches", "distinct_keys",
                 "shipped_plans"});
  Table table({"replicas", "policy", "ship", "req/s", "p50 us", "p99 us", "hit%", "searches"});

  const std::vector<PlacementPolicy> policies = {
      PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
      PlacementPolicy::kPlanAffinity};
  // Policy comparison without shipping: routing alone must earn warmth.
  FleetReport round_robin_4;
  FleetReport affinity_4;
  double throughput_1 = 0.0;
  double throughput_4 = 0.0;
  for (const int replicas : smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4}) {
    for (const PlacementPolicy policy : policies) {
      const FleetReport report = RunFleet(setup, replicas, policy, /*ship_plans=*/false);
      total_events += report.events;
      AddRow(&csv, &table, replicas, policy, false, report);
      if (replicas == 4 && policy == PlacementPolicy::kRoundRobin) {
        round_robin_4 = report;
      }
      if (replicas == 4 && policy == PlacementPolicy::kPlanAffinity) {
        affinity_4 = report;
      }
      if (policy == PlacementPolicy::kPlanAffinity) {
        if (replicas == 1) {
          throughput_1 = report.ThroughputPerSec();
        }
        if (replicas == 4) {
          throughput_4 = report.ThroughputPerSec();
        }
      }
    }
  }
  // Placement microbench (report only).
  std::vector<PlaceTiming> placement;
  Table place_table({"replicas", "load mix", "ns/place"});
  for (const int replicas : {128, 512, 1024}) {
    for (const bool busy : {false, true}) {
      placement.push_back(TimePlacement(replicas, busy, smoke ? 50000 : 400000));
      place_table.AddRow({std::to_string(replicas), busy ? "busy-heavy" : "idle-heavy",
                          FormatDouble(placement.back().ns_per_place, 1)});
    }
  }
  Narrate(quiet, "placement (table-form Place after one SetLoad, best of 3):\n%s\n",
          place_table.Render().c_str());

  // Shipping on: every policy's fleet pays each search once.
  FleetReport shipped_4;
  size_t max_shipped_searches = 0;
  for (const PlacementPolicy policy : policies) {
    const FleetReport report = RunFleet(setup, 4, policy, /*ship_plans=*/true);
    total_events += report.events;
    AddRow(&csv, &table, 4, policy, true, report);
    max_shipped_searches = std::max(max_shipped_searches, report.total_searches);
    if (policy == PlacementPolicy::kPlanAffinity) {
      shipped_4 = report;
    }
  }
  Narrate(quiet, "%s\n", table.Render().c_str());
  const double sweep_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  Narrate(quiet,
          "event core: %llu events across the sweep in %.3f s wall (%.0f events/s)\n",
          static_cast<unsigned long long>(total_events), sweep_wall_s,
          sweep_wall_s > 0.0 ? static_cast<double>(total_events) / sweep_wall_s : 0.0);

  // --- Determinism gates ---
  const bool rerun_identical =
      SameTimeline(shipped_4, RunFleet(setup, 4, PlacementPolicy::kPlanAffinity, true));
  std::string snapshot;
  bool plans_replica_invariant = true;
  for (const int replicas : {1, 2, 4}) {
    ClusterConfig config;
    config.replicas = replicas;
    config.policy = PlacementPolicy::kPlanAffinity;
    ServingCluster fleet(setup.hardware, config, {}, EngineOptions{.jitter = false});
    fleet.Run(setup.trace);
    const std::string serialized = fleet.shipper().SerializeSnapshot();
    if (snapshot.empty()) {
      snapshot = serialized;
    } else if (serialized != snapshot) {
      plans_replica_invariant = false;
    }
  }
  ClusterConfig two_lanes;
  two_lanes.replicas = 4;
  two_lanes.serve.tuner_lanes = 2;
  ServingCluster two_lane_fleet(setup.hardware, two_lanes, {}, EngineOptions{.jitter = false});
  ServingCluster two_lane_rerun(setup.hardware, two_lanes, {}, EngineOptions{.jitter = false});
  const bool two_lane_rerun_identical =
      SameTimeline(two_lane_fleet.Run(setup.trace), two_lane_rerun.Run(setup.trace));

  // --- Chaos gates ---
  // Default dose: 1 crash + 1 straggler per 64 replicas (at least one
  // each), seeded from --faults and expanded over the fault-free
  // makespan. The fleet must still complete every request, keep the p99
  // within 3x of fault-free, and stay bit-deterministic under faults.
  ClusterConfig chaos_config;
  chaos_config.replicas = 4;
  chaos_config.policy = PlacementPolicy::kPlanAffinity;
  chaos_config.faults.seed = args.fault_seed;
  chaos_config.faults.horizon_us = shipped_4.makespan_us;
  chaos_config.faults.crashes = std::max(1, chaos_config.replicas / 64);
  chaos_config.faults.slowdowns = std::max(1, chaos_config.replicas / 64);
  ServingCluster chaos_fleet(setup.hardware, chaos_config, {}, EngineOptions{.jitter = false});
  const FleetReport chaos = chaos_fleet.Run(setup.trace);
  total_events += chaos.events;
  const double fault_free_p99 = shipped_4.stats.LatencyPercentiles().p99;
  const double chaos_p99 = chaos.stats.LatencyPercentiles().p99;
  const bool chaos_complete = chaos.stats.count() == setup.trace.size();
  const bool chaos_p99_ok = chaos_p99 <= 3.0 * fault_free_p99;
  ServingCluster chaos_again(setup.hardware, chaos_config, {}, EngineOptions{.jitter = false});
  const FleetReport chaos_rerun = chaos_again.Run(setup.trace);
  const bool chaos_deterministic =
      SameTimeline(chaos, chaos_rerun) &&
      chaos.fault.requests_requeued == chaos_rerun.fault.requests_requeued &&
      chaos.fault.requests_retried == chaos_rerun.fault.requests_retried &&
      chaos.fault.placement_stalls == chaos_rerun.fault.placement_stalls &&
      chaos.fault.ship_drops == chaos_rerun.fault.ship_drops;
  const double chaos_retry_rate =
      static_cast<double>(chaos.fault.requests_retried) /
      static_cast<double>(setup.trace.size());
  const double chaos_makespan_overhead =
      shipped_4.makespan_us > 0.0 ? chaos.makespan_us / shipped_4.makespan_us : 0.0;

  // --- Sched gates ---
  // One contended replica, an adversarial tenant, and a mid-run cold key:
  // fair share must protect the victim's p99 and backfill must fill the
  // tuning window without ever delaying the head batch.
  FleetReport sched_fifo;
  FleetReport sched_fair;
  double sched_victim_p99_fifo = 0.0;
  double sched_victim_p99_fair = 0.0;
  double sched_gain = 0.0;
  bool sched_complete = true;
  bool sched_off_identical = true;
  bool sched_deterministic = true;
  size_t sched_trace_size = 0;
  if (args.sched) {
    const std::vector<ServeRequest> sched_trace = MakeSchedTrace(smoke);
    sched_trace_size = sched_trace.size();
    sched_fifo = RunSchedFleet(setup.hardware, sched_trace, /*sched_on=*/false);
    sched_fair = RunSchedFleet(setup.hardware, sched_trace, /*sched_on=*/true);
    total_events += sched_fifo.events + sched_fair.events;
    sched_victim_p99_fifo = sched_fifo.stats.Summarize("victim").latency.p99;
    sched_victim_p99_fair = sched_fair.stats.Summarize("victim").latency.p99;
    sched_gain = sched_victim_p99_fifo > 0.0
                     ? 1.0 - sched_victim_p99_fair / sched_victim_p99_fifo
                     : 0.0;
    sched_complete = sched_fair.stats.count() == sched_trace.size() &&
                     sched_fifo.stats.count() == sched_trace.size();
    // A disabled SchedConfig with every knob tweaked must still be
    // bit-identical to the FIFO run — off means off.
    {
      ClusterConfig off;
      off.replicas = 1;
      off.sched.enabled = false;
      off.sched.share_half_life_us = 1.0;
      off.sched.backfill_slack = 99.0;
      off.sched.starvation_age_us = 1.0;
      ServingCluster off_fleet(setup.hardware, off, {}, EngineOptions{.jitter = false});
      sched_off_identical = SameTimeline(sched_fifo, off_fleet.Run(sched_trace));
    }
    // Sched-on timelines and counters must survive reruns byte-for-byte.
    for (int rerun = 0; rerun < 2; ++rerun) {
      const FleetReport variant = RunSchedFleet(setup.hardware, sched_trace, /*sched_on=*/true);
      if (!SameTimeline(sched_fair, variant) ||
          !SameSchedOutcomes(sched_fair.sched, variant.sched)) {
        sched_deterministic = false;
      }
    }
    if (!args.trace.empty()) {
      ObsConfig obs_config;
      obs_config.enabled = true;
      obs_config.checkpoint_interval_us = 100000.0;
      ObsPlane obs(obs_config);
      RunSchedFleet(setup.hardware, sched_trace, /*sched_on=*/true, &obs);
      if (!obs.WriteTrace(args.trace)) {
        std::printf("FAILED to write Chrome trace to %s\n", args.trace.c_str());
        sched_complete = false;
      } else {
        Narrate(quiet, "sched trace written to %s\n", args.trace.c_str());
      }
    }
  }

  // --- Prespawn gates ---
  // A scripted ramp burst: the predictive tier must pre-spawn off the
  // rate estimate and absorb the burst strictly faster than reactive-only
  // scaling, without a single drain while the burst is in flight.
  FleetReport prespawn_reactive;
  FleetReport prespawn_predictive;
  double prespawn_absorb_reactive_us = 0.0;
  double prespawn_absorb_us = 0.0;
  bool prespawn_complete = true;
  bool prespawn_off_identical = true;
  bool prespawn_deterministic = true;
  if (args.prespawn) {
    const PrespawnSetup pre = MakePrespawnTrace(setup.hardware, smoke);
    prespawn_reactive =
        RunPrespawnFleet(setup.hardware, pre, /*predictive=*/false, 1.0);
    prespawn_predictive =
        RunPrespawnFleet(setup.hardware, pre, /*predictive=*/true, 1.0);
    total_events += prespawn_reactive.events + prespawn_predictive.events;
    prespawn_absorb_reactive_us = BurstAbsorbUs(prespawn_reactive, pre.burst_start_us);
    prespawn_absorb_us = BurstAbsorbUs(prespawn_predictive, pre.burst_start_us);
    prespawn_complete = prespawn_reactive.stats.count() == pre.trace.size() &&
                        prespawn_predictive.stats.count() == pre.trace.size();
    // Predictive off with every predictive knob tweaked must stay
    // bit-identical to the reactive run — off means off.
    prespawn_off_identical = SameTimeline(
        prespawn_reactive,
        RunPrespawnFleet(setup.hardware, pre, /*predictive=*/false, 9.0));
    // Predictive-on timelines and the pre-spawn count must survive reruns.
    for (int rerun = 0; rerun < 2; ++rerun) {
      const FleetReport variant = RunPrespawnFleet(setup.hardware, pre, /*predictive=*/true, 1.0);
      if (!SameTimeline(prespawn_predictive, variant) ||
          variant.prespawns != prespawn_predictive.prespawns ||
          variant.spawns != prespawn_predictive.spawns ||
          variant.drains != prespawn_predictive.drains) {
        prespawn_deterministic = false;
      }
    }
    if (!args.trace.empty()) {
      std::string prespawn_trace_path = args.trace;
      const size_t dot = prespawn_trace_path.rfind('.');
      prespawn_trace_path.insert(
          dot == std::string::npos ? prespawn_trace_path.size() : dot, "_prespawn");
      ObsConfig obs_config;
      obs_config.enabled = true;
      obs_config.checkpoint_interval_us = pre.check_interval_us;
      ObsPlane obs(obs_config);
      RunPrespawnFleet(setup.hardware, pre, /*predictive=*/true, 1.0, &obs);
      if (!obs.WriteTrace(prespawn_trace_path)) {
        std::printf("FAILED to write Chrome trace to %s\n", prespawn_trace_path.c_str());
        prespawn_complete = false;
      } else {
        Narrate(quiet, "prespawn trace written to %s\n", prespawn_trace_path.c_str());
      }
    }
  }

  const bool csv_ok = csv.WriteFile("cluster_bench.csv");
  char json[6144];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"cluster\", \"smoke\": %s, \"requests\": %zu, \"distinct_keys\": %zu, "
      "\"throughput_rps_1\": %.2f, \"throughput_rps_4\": %.2f, "
      "\"rr_warm_hit\": %.4f, \"affinity_warm_hit\": %.4f, "
      "\"rr_searches\": %zu, \"affinity_searches\": %zu, "
      "\"shipped_searches_max\": %zu, \"shipped_plans\": %zu, "
      "\"duplicate_tunes_avoided\": %zu, \"p99_us_affinity_4\": %.1f, "
      "\"rerun_identical\": %s, \"plans_replica_invariant\": %s, \"two_lane_rerun_identical\": %s, "
      "\"fault_seed\": %llu, \"fault_injects\": %zu, \"fault_p99_us\": %.1f, "
      "\"fault_retry_rate\": %.4f, \"fault_makespan_overhead\": %.4f, "
      "\"fault_requeued\": %zu, \"fault_restarts\": %zu, \"fault_completed\": %s, "
      "\"fault_rerun_identical\": %s, "
      "\"sched_section\": %s, \"sched_backfills\": %zu, \"sched_head_delays\": %zu, "
      "\"sched_reserve_idle_us\": %.1f, \"sched_preempted\": %zu, "
      "\"sched_victim_p99_fifo_us\": %.1f, \"sched_victim_p99_us\": %.1f, "
      "\"sched_p99_gain\": %.4f, \"sched_off_identical\": %s, "
      "\"sched_rerun_identical\": %s, "
      "\"prespawn_section\": %s, \"prespawn_count\": %zu, "
      "\"prespawn_spawns\": %zu, \"prespawn_drains\": %zu, "
      "\"prespawn_peak_replicas\": %d, \"reactive_peak_replicas\": %d, "
      "\"prespawn_absorb_us\": %.1f, \"reactive_absorb_us\": %.1f, "
      "\"prespawn_absorb_gain\": %.4f, \"prespawn_off_identical\": %s, "
      "\"prespawn_rerun_identical\": %s, "
      "\"place_ns_128_idle\": %.1f, \"place_ns_128_busy\": %.1f, "
      "\"place_ns_512_idle\": %.1f, \"place_ns_512_busy\": %.1f, "
      "\"place_ns_1024_idle\": %.1f, \"place_ns_1024_busy\": %.1f}",
      smoke ? "true" : "false", setup.trace.size(), shipped_4.distinct_keys, throughput_1,
      throughput_4, round_robin_4.WarmHitRate(), affinity_4.WarmHitRate(),
      round_robin_4.total_searches, affinity_4.total_searches, max_shipped_searches,
      shipped_4.shipping.shipped, shipped_4.shipping.duplicate_tunes_avoided,
      shipped_4.stats.LatencyPercentiles().p99, rerun_identical ? "true" : "false",
      plans_replica_invariant ? "true" : "false", two_lane_rerun_identical ? "true" : "false",
      static_cast<unsigned long long>(args.fault_seed), chaos.fault.injected_total(),
      chaos_p99, chaos_retry_rate, chaos_makespan_overhead, chaos.fault.requests_requeued,
      chaos.fault.replica_restarts, chaos_complete ? "true" : "false",
      chaos_deterministic ? "true" : "false", args.sched ? "true" : "false",
      sched_fair.sched.backfills, sched_fair.sched.head_delays,
      sched_fair.sched.reserve_idle_us, sched_fair.sched.preempted_requests,
      sched_victim_p99_fifo, sched_victim_p99_fair, sched_gain,
      sched_off_identical ? "true" : "false", sched_deterministic ? "true" : "false",
      args.prespawn ? "true" : "false", prespawn_predictive.prespawns,
      prespawn_predictive.spawns, prespawn_predictive.drains,
      prespawn_predictive.peak_replicas, prespawn_reactive.peak_replicas,
      prespawn_absorb_us, prespawn_absorb_reactive_us,
      prespawn_absorb_reactive_us > 0.0
          ? 1.0 - prespawn_absorb_us / prespawn_absorb_reactive_us
          : 0.0,
      prespawn_off_identical ? "true" : "false",
      prespawn_deterministic ? "true" : "false", placement[0].ns_per_place,
      placement[1].ns_per_place, placement[2].ns_per_place, placement[3].ns_per_place,
      placement[4].ns_per_place, placement[5].ns_per_place);
  FILE* out = std::fopen("BENCH_cluster.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "%s\n", json);
    std::fclose(out);
  }
  bool ok = csv_ok && out != nullptr && AppendTrajectoryPoint(args.history, json);
  Narrate(quiet, "\nfleet scaling: %.1f -> %.1f req/s (1 -> 4 replicas, plan-affinity)\n",
          throughput_1, throughput_4);
  Narrate(quiet,
          "policy @4 replicas (no shipping): affinity hit %.1f%% / %zu searches vs "
          "round-robin %.1f%% / %zu searches\n",
          100.0 * affinity_4.WarmHitRate(), affinity_4.total_searches,
          100.0 * round_robin_4.WarmHitRate(), round_robin_4.total_searches);
  if (affinity_4.WarmHitRate() <= round_robin_4.WarmHitRate() ||
      affinity_4.total_searches >= round_robin_4.total_searches) {
    std::printf("FAIL: plan-affinity does not beat round-robin\n");
    ok = false;
  }
  Narrate(quiet,
          "plan shipping @4 replicas: <= %zu searches for %zu distinct keys "
          "(%zu duplicate tunes avoided)\n",
          max_shipped_searches, shipped_4.distinct_keys,
          shipped_4.shipping.duplicate_tunes_avoided);
  if (max_shipped_searches > shipped_4.distinct_keys) {
    std::printf("FAIL: a shipped fleet re-paid a tuner search\n");
    ok = false;
  }
  if (!rerun_identical || !plans_replica_invariant || !two_lane_rerun_identical) {
    std::printf("FAIL: determinism gate (rerun %d, replica-invariant plans %d, "
                "two-lane rerun %d)\n",
                rerun_identical, plans_replica_invariant, two_lane_rerun_identical);
    ok = false;
  }
  Narrate(quiet,
          "chaos (seed %llu): %zu faults, %zu requeued, p99 %.0f us vs %.0f fault-free "
          "(%.2fx), makespan %.2fx\n",
          static_cast<unsigned long long>(args.fault_seed), chaos.fault.injected_total(),
          chaos.fault.requests_requeued, chaos_p99, fault_free_p99,
          fault_free_p99 > 0.0 ? chaos_p99 / fault_free_p99 : 0.0, chaos_makespan_overhead);
  if (!chaos_complete) {
    std::printf("FAIL: chaos run dropped requests (%zu of %zu completed)\n",
                chaos.stats.count(), setup.trace.size());
    ok = false;
  }
  if (!chaos_p99_ok) {
    std::printf("FAIL: chaos p99 %.0f us exceeds 3x fault-free p99 %.0f us\n", chaos_p99,
                fault_free_p99);
    ok = false;
  }
  if (!chaos_deterministic) {
    std::printf("FAIL: faulted run is not bit-deterministic across reruns\n");
    ok = false;
  }
  if (args.sched) {
    Narrate(quiet,
            "sched: victim p99 %.0f us FIFO -> %.0f us fair (%.1f%% gain), "
            "%zu backfills, %zu head delays, %.0f us reserved idle, %zu preempted\n",
            sched_victim_p99_fifo, sched_victim_p99_fair, 100.0 * sched_gain,
            sched_fair.sched.backfills, sched_fair.sched.head_delays,
            sched_fair.sched.reserve_idle_us, sched_fair.sched.preempted_requests);
    if (sched_gain < 0.10) {
      std::printf("FAIL: sched victim p99 gain %.1f%% below 10%% (FIFO %.0f us, "
                  "fair %.0f us)\n",
                  100.0 * sched_gain, sched_victim_p99_fifo, sched_victim_p99_fair);
      ok = false;
    }
    if (sched_fair.sched.backfills == 0) {
      std::printf("FAIL: sched run performed no backfills\n");
      ok = false;
    }
    if (sched_fair.sched.head_delays != 0) {
      std::printf("FAIL: backfill delayed %zu head batches\n",
                  sched_fair.sched.head_delays);
      ok = false;
    }
    if (!sched_complete) {
      std::printf("FAIL: sched runs dropped requests (%zu FIFO / %zu fair of %zu)\n",
                  sched_fifo.stats.count(), sched_fair.stats.count(), sched_trace_size);
      ok = false;
    }
    if (!sched_off_identical) {
      std::printf("FAIL: disabled SchedConfig is not bit-identical to FIFO\n");
      ok = false;
    }
    if (!sched_deterministic) {
      std::printf("FAIL: sched run is not bit-identical across reruns\n");
      ok = false;
    }
  }
  if (args.prespawn) {
    Narrate(quiet,
            "prespawn: burst absorbed in %.0f us predictive vs %.0f us reactive "
            "(%zu pre-spawns, %zu drains, peak %d vs %d replicas)\n",
            prespawn_absorb_us, prespawn_absorb_reactive_us,
            prespawn_predictive.prespawns, prespawn_predictive.drains,
            prespawn_predictive.peak_replicas, prespawn_reactive.peak_replicas);
    if (prespawn_absorb_us >= prespawn_absorb_reactive_us) {
      std::printf("FAIL: predictive autoscaling did not absorb the burst faster "
                  "(%.0f us vs %.0f us reactive)\n",
                  prespawn_absorb_us, prespawn_absorb_reactive_us);
      ok = false;
    }
    if (prespawn_predictive.prespawns == 0) {
      std::printf("FAIL: predictive run fired no pre-spawns\n");
      ok = false;
    }
    if (prespawn_predictive.drains != 0) {
      std::printf("FAIL: predictive run drained %zu replicas during the burst\n",
                  prespawn_predictive.drains);
      ok = false;
    }
    if (!prespawn_complete) {
      std::printf("FAIL: prespawn runs dropped requests (%zu reactive / %zu predictive)\n",
                  prespawn_reactive.stats.count(), prespawn_predictive.stats.count());
      ok = false;
    }
    if (!prespawn_off_identical) {
      std::printf("FAIL: predictive-off config is not bit-identical to the reactive "
                  "autoscaler\n");
      ok = false;
    }
    if (!prespawn_deterministic) {
      std::printf("FAIL: predictive run is not bit-identical across reruns\n");
      ok = false;
    }
  }
  if (csv_ok) {
    Narrate(quiet, "series written to cluster_bench.csv + BENCH_cluster.json\n");
  } else {
    std::printf("FAILED to write cluster_bench.csv\n");
  }
  return ok;
}

}  // namespace
}  // namespace flo

int main(int argc, char** argv) {
  return flo::Run(flo::ParseBenchArgs(argc, argv)) ? 0 : 1;
}
