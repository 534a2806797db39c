// Fault-injection plane tests: schedule generation/round-trips, zero-fault
// bit-identity, seeded-chaos determinism across reruns, and the per-kind
// recovery paths (crash requeue + re-warm, straggler windows, tuner-fail
// retry/degrade, shipping-loss pull recovery).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cluster/serving_cluster.h"
#include "src/fault/fault_config.h"
#include "src/fault/fault_schedule.h"
#include "src/hw/cluster.h"
#include "src/serve/request_source.h"

namespace flo {
namespace {

// --- FaultSchedule ----------------------------------------------------------

TEST(FaultScheduleTest, FromConfigIsSeededAndShaped) {
  FaultConfig config;
  config.seed = 7;
  config.horizon_us = 50000.0;
  config.crashes = 2;
  config.hangs = 1;
  config.slowdowns = 3;
  config.tuner_failures = 1;
  config.ship_loss_windows = 1;
  const FaultSchedule schedule = FaultSchedule::FromConfig(config, 4);
  EXPECT_EQ(schedule.size(), 8u);
  int crashes = 0;
  for (const FaultEvent& event : schedule.events()) {
    EXPECT_GT(event.time_us, 0.0);
    EXPECT_LT(event.time_us, config.horizon_us);
    EXPECT_GE(event.replica, 0);
    EXPECT_LT(event.replica, 4);
    if (event.kind != FaultKind::kTunerFail) {
      EXPECT_GT(event.duration_us, 0.0);  // tuner faults are instantaneous
    }
    crashes += event.kind == FaultKind::kCrash ? 1 : 0;
  }
  EXPECT_EQ(crashes, 2);
  // Same seed, same schedule; different seed, different schedule.
  EXPECT_EQ(FaultSchedule::FromConfig(config, 4).events(), schedule.events());
  FaultConfig other = config;
  other.seed = 8;
  EXPECT_NE(FaultSchedule::FromConfig(other, 4).events(), schedule.events());
}

TEST(FaultScheduleTest, CsvRoundTripsAndRejectsMalformed) {
  FaultConfig config;
  config.horizon_us = 20000.0;
  config.crashes = 1;
  config.slowdowns = 2;
  config.ship_loss_windows = 1;
  const FaultSchedule schedule = FaultSchedule::FromConfig(config, 3);
  const auto parsed = FaultSchedule::ParseCsv(schedule.ToCsv());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->events(), schedule.events());

  EXPECT_FALSE(FaultSchedule::ParseCsv("1000,not_a_kind,0,500,1.0").has_value());
  EXPECT_FALSE(FaultSchedule::ParseCsv("oops,crash,0,500,1.0").has_value());
  EXPECT_FALSE(FaultSchedule::ParseCsv("1000,crash,0").has_value());
  // Non-finite times or magnitudes reject the whole script, good lines
  // included: a NaN time would otherwise reach the event loop.
  const std::string good = "1000,crash,0,500,1.0\n";
  EXPECT_FALSE(FaultSchedule::ParseCsv(good + "nan,crash,0,500,1.0").has_value());
  EXPECT_FALSE(FaultSchedule::ParseCsv(good + "2000,slowdown,1,500,nan").has_value());
  EXPECT_FALSE(FaultSchedule::ParseCsv("inf,crash,0,500,1.0").has_value());
  ASSERT_TRUE(FaultSchedule::ParseCsv(good).has_value());
  // Comments and blank lines are fine; an empty text is an empty schedule.
  const auto empty = FaultSchedule::ParseCsv("# nothing here\n\n");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(RetryBackoffTest, DoublesPerAttemptUpToTheTenthAndAddsBoundedJitter) {
  FaultConfig steady;
  steady.retry_backoff_jitter_us = 0.0;
  double expected = kRetryBackoffBaseUs;
  for (int attempt = 1; attempt <= 14; ++attempt) {
    EXPECT_EQ(RetryBackoffUs(steady, 7, attempt), expected) << attempt;
    if (attempt < 10) {
      expected *= 2.0;
    }
  }
  // Jitter lands in [0, retry_backoff_jitter_us) on top of the doubling,
  // and is a pure function of (seed, id, attempt).
  const FaultConfig jittered;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const double jitter = RetryBackoffUs(jittered, 7, attempt) - RetryBackoffUs(steady, 7, attempt);
    EXPECT_GE(jitter, 0.0);
    EXPECT_LT(jitter, jittered.retry_backoff_jitter_us);
    EXPECT_EQ(RetryBackoffUs(jittered, 7, attempt), RetryBackoffUs(jittered, 7, attempt));
  }
  FaultConfig reseeded = jittered;
  reseeded.seed = 2;
  EXPECT_NE(RetryBackoffUs(jittered, 7, 1), RetryBackoffUs(reseeded, 7, 1));
  EXPECT_NE(RetryBackoffUs(jittered, 7, 1), RetryBackoffUs(jittered, 8, 1));
}

// --- Fleet under injection --------------------------------------------------

ScenarioSpec SmallSpec(int64_t m) {
  return ScenarioSpec::Overlap(GemmShape{m, 2048, 1024}, CommPrimitive::kAllReduce);
}

std::vector<ServeRequest> MixedTrace(int keys, int per_tenant) {
  std::vector<ScenarioSpec> specs;
  for (int k = 0; k < keys; ++k) {
    specs.push_back(SmallSpec(1024 + 512 * k));
  }
  return MergeStreams(
      {MakeRequestStream("llm", specs, PoissonArrivals(800.0, per_tenant, 3), 0),
       MakeRequestStream("moe", specs, BurstyArrivals(1600.0, 4.0, 6, per_tenant, 5), 100000)});
}

FleetReport RunFleet(const ClusterConfig& config, const std::vector<ServeRequest>& trace,
                     const FaultSchedule* schedule = nullptr) {
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  if (schedule != nullptr) {
    fleet.SetFaultSchedule(*schedule);
  }
  return fleet.Run(trace);
}

void ExpectSameFaultReport(const FaultReport& a, const FaultReport& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.injected_crashes, b.injected_crashes);
  EXPECT_EQ(a.injected_hangs, b.injected_hangs);
  EXPECT_EQ(a.injected_slowdowns, b.injected_slowdowns);
  EXPECT_EQ(a.injected_tuner_failures, b.injected_tuner_failures);
  EXPECT_EQ(a.injected_ship_loss_windows, b.injected_ship_loss_windows);
  EXPECT_EQ(a.requests_requeued, b.requests_requeued);
  EXPECT_EQ(a.requests_retried, b.requests_retried);
  EXPECT_EQ(a.retry_budget_exhausted, b.retry_budget_exhausted);
  EXPECT_EQ(a.placement_stalls, b.placement_stalls);
  EXPECT_EQ(a.requests_degraded, b.requests_degraded);
  EXPECT_EQ(a.tuner_retries, b.tuner_retries);
  EXPECT_EQ(a.plans_rewarmed, b.plans_rewarmed);
  EXPECT_EQ(a.replica_restarts, b.replica_restarts);
  EXPECT_EQ(a.ship_drops, b.ship_drops);
  EXPECT_EQ(a.requests_shed, b.requests_shed);
}

void ExpectSameRecords(const FleetReport& a, const FleetReport& b) {
  ASSERT_EQ(a.stats.count(), b.stats.count());
  for (size_t i = 0; i < a.stats.count(); ++i) {
    EXPECT_EQ(a.stats.records()[i].id, b.stats.records()[i].id) << i;
    EXPECT_DOUBLE_EQ(a.stats.records()[i].finish_us, b.stats.records()[i].finish_us) << i;
    EXPECT_EQ(a.stats.records()[i].retries, b.stats.records()[i].retries) << i;
    EXPECT_EQ(a.stats.records()[i].degraded, b.stats.records()[i].degraded) << i;
  }
}

TEST(FaultInjectionTest, ZeroFaultConfigInjectsNothingAndStaysDeterministic) {
  const auto trace = MixedTrace(3, 20);
  ClusterConfig config;
  config.replicas = 2;
  const FleetReport report = RunFleet(config, trace);
  EXPECT_FALSE(report.fault.enabled);
  EXPECT_EQ(report.fault.injected_total(), 0u);
  EXPECT_EQ(report.fault.requests_requeued, 0u);
  EXPECT_EQ(report.fault.requests_degraded, 0u);
  EXPECT_EQ(report.stats.retried_requests(), 0u);
  EXPECT_EQ(report.stats.degraded_requests(), 0u);
  ASSERT_EQ(report.stats.count(), trace.size());
  const FleetReport again = RunFleet(config, trace);
  EXPECT_DOUBLE_EQ(again.makespan_us, report.makespan_us);
  ExpectSameRecords(report, again);
}

TEST(FaultInjectionTest, SeededChaosIsBitIdenticalAcrossReruns) {
  const auto trace = MixedTrace(4, 40);
  ClusterConfig config;
  config.replicas = 4;
  config.serve.tuner_lanes = 2;
  config.faults.seed = 42;
  config.faults.horizon_us = 40000.0;
  config.faults.crashes = 1;
  config.faults.hangs = 1;
  config.faults.slowdowns = 1;
  config.faults.tuner_failures = 1;
  config.faults.ship_loss_windows = 1;

  const FleetReport base = RunFleet(config, trace);
  EXPECT_TRUE(base.fault.enabled);
  EXPECT_GT(base.fault.injected_total(), 0u);
  ASSERT_EQ(base.stats.count(), trace.size());

  for (int rerun = 0; rerun < 2; ++rerun) {
    const FleetReport report = RunFleet(config, trace);
    EXPECT_DOUBLE_EQ(report.makespan_us, base.makespan_us);
    EXPECT_EQ(report.total_searches, base.total_searches);
    ExpectSameFaultReport(report.fault, base.fault);
    ExpectSameRecords(report, base);
  }
}

TEST(FaultInjectionTest, CrashRequeuesBacklogAndRewarmsFromPublishedSet) {
  const auto trace = MixedTrace(4, 40);
  ClusterConfig config;
  config.replicas = 2;
  config.ship_plans = true;
  config.faults.crashes = 1;  // marks the run fault-active
  config.faults.horizon_us = 40000.0;
  // Scripted: replica 0 crashes after the first cold searches have
  // published (~20ms each), so the restart has a set to re-warm from.
  FaultSchedule schedule;
  schedule.Add(FaultEvent{30000.0, FaultKind::kCrash, 0, 8000.0, 0.0});
  const FleetReport report = RunFleet(config, trace, &schedule);

  ASSERT_EQ(report.stats.count(), trace.size());  // nothing dropped
  EXPECT_EQ(report.fault.injected_crashes, 1u);
  EXPECT_EQ(report.fault.replica_restarts, 1u);
  EXPECT_GT(report.fault.requests_requeued, 0u);
  // Every evacuated request was re-placed (possibly after stalls).
  EXPECT_GE(report.fault.requests_retried, report.fault.requests_requeued);
  // The restart re-warmed the emptied store from the published set.
  EXPECT_GT(report.fault.plans_rewarmed, 0u);
  // Completed records carry their retry provenance.
  EXPECT_EQ(report.stats.retried_requests(), report.fault.requests_requeued);

  // Deterministic under rerun.
  const FleetReport again = RunFleet(config, trace, &schedule);
  EXPECT_DOUBLE_EQ(again.makespan_us, report.makespan_us);
  ExpectSameFaultReport(again.fault, report.fault);
  ExpectSameRecords(report, again);
}

TEST(FaultInjectionTest, SimultaneousCrashOfEveryReplicaStillCompletesEverything) {
  const auto trace = MixedTrace(2, 30);
  ClusterConfig config;
  config.replicas = 2;
  config.faults.crashes = 2;
  config.faults.horizon_us = 40000.0;
  FaultSchedule schedule;
  schedule.Add(FaultEvent{5000.0, FaultKind::kCrash, 0, 4000.0, 0.0});
  schedule.Add(FaultEvent{5000.0, FaultKind::kCrash, 1, 4000.0, 0.0});
  const FleetReport report = RunFleet(config, trace, &schedule);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_EQ(report.fault.injected_crashes, 2u);
  // Arrivals and requeues during the blackout found no routable replica
  // and backed off until the restores landed.
  EXPECT_GT(report.fault.placement_stalls, 0u);
}

TEST(FaultInjectionTest, StragglerWindowSlowsServiceThenRecovers) {
  const auto trace = MixedTrace(3, 30);
  ClusterConfig config;
  config.replicas = 2;
  const FleetReport baseline = RunFleet(config, trace);

  ClusterConfig chaos = config;
  chaos.faults.slowdowns = 1;
  chaos.faults.horizon_us = 30000.0;
  FaultSchedule schedule;
  schedule.Add(FaultEvent{2000.0, FaultKind::kSlowdown, 0, 15000.0, 4.0});
  const FleetReport report = RunFleet(chaos, trace, &schedule);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_EQ(report.fault.injected_slowdowns, 1u);
  // The window really perturbed the timeline (4x service cost on replica
  // 0 for 15ms), and the perturbation is itself deterministic.
  bool any_shift = false;
  ASSERT_EQ(report.stats.count(), baseline.stats.count());
  for (size_t i = 0; i < report.stats.count(); ++i) {
    any_shift |= report.stats.records()[i].finish_us != baseline.stats.records()[i].finish_us;
  }
  EXPECT_TRUE(any_shift);
  const FleetReport again = RunFleet(chaos, trace, &schedule);
  EXPECT_DOUBLE_EQ(again.makespan_us, report.makespan_us);
  ExpectSameRecords(report, again);
}

TEST(FaultInjectionTest, HangRestoreStartsTwoParkedColdBatches) {
  // A dispatch round starts several cold batches only when it finds two
  // or more startable ones, and arrivals dispatch one at a time. A hang
  // is the fleet's way to such a round: keys 0 and 1 take both tuning
  // lanes, keys 2 to 5 park behind them, the replica hangs (shorter than
  // the detection deadline, so nothing is requeued) while both searches
  // finish, and the restore's dispatch finds both lanes free and four
  // parked cold keys. It starts two of them in the same round.
  std::vector<ServeRequest> trace;
  for (int64_t k = 0; k < 6; ++k) {
    trace.push_back({k, "llm", static_cast<double>(k), SmallSpec(1024 + 512 * k)});
  }
  // Warm traffic after the restore, so the tuned keys also execute.
  for (int64_t i = 6; i < 30; ++i) {
    trace.push_back({i, i % 2 == 0 ? "llm" : "moe", 30000.0 + 500.0 * static_cast<double>(i),
                     SmallSpec(1024 + 512 * (i % 6))});
  }
  ClusterConfig config;
  config.replicas = 1;
  config.serve.tuner_lanes = 2;
  config.faults.hangs = 1;
  config.faults.horizon_us = 60000.0;
  config.faults.hang_detect_us = 50000.0;
  FaultSchedule schedule;
  schedule.Add(FaultEvent{10.0, FaultKind::kHang, 0, 25000.0, 0.0});

  const FleetReport base = RunFleet(config, trace, &schedule);
  ASSERT_EQ(base.stats.count(), trace.size());
  EXPECT_EQ(base.fault.injected_hangs, 1u);
  EXPECT_EQ(base.fault.requests_requeued, 0u);
  EXPECT_EQ(base.total_searches, 6u);
  ASSERT_EQ(base.replicas.size(), 1u);
  EXPECT_EQ(base.replicas[0].serve.tuner_lanes, 2);
  // Keys 2 and 3 tune side by side after the restore, so key 3's first
  // request executes less than one search after key 2's; on one lane
  // they would have tuned back to back.
  std::vector<SimTime> start(6, -1.0);
  for (const RequestRecord& record : base.stats.records()) {
    if (record.id < 6) {
      start[static_cast<size_t>(record.id)] = record.start_us;
    }
  }
  EXPECT_GT(start[2], 25000.0);
  EXPECT_GT(start[3], start[2]);
  EXPECT_LT(start[3] - start[2], config.serve.tune_per_search_us);

  for (int rerun = 0; rerun < 2; ++rerun) {
    const FleetReport report = RunFleet(config, trace, &schedule);
    EXPECT_DOUBLE_EQ(report.makespan_us, base.makespan_us);
    EXPECT_EQ(report.total_searches, base.total_searches);
    EXPECT_EQ(report.replicas[0].serve.tuner_lanes, base.replicas[0].serve.tuner_lanes);
    ExpectSameFaultReport(report.fault, base.fault);
    ExpectSameRecords(report, base);
  }
}

TEST(FaultInjectionTest, HangPastDeadlineRequeuesPendingWork) {
  const auto trace = MixedTrace(3, 30);
  ClusterConfig config;
  config.replicas = 2;
  config.faults.hangs = 1;
  config.faults.horizon_us = 30000.0;
  config.faults.hang_detect_us = 1000.0;
  FaultSchedule schedule;
  schedule.Add(FaultEvent{4000.0, FaultKind::kHang, 0, 8000.0, 0.0});
  const FleetReport report = RunFleet(config, trace, &schedule);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_EQ(report.fault.injected_hangs, 1u);
  // The stall outlived the detection deadline, so the backlog moved.
  EXPECT_GT(report.fault.requests_requeued, 0u);
}

TEST(FaultInjectionTest, TunerFaultAbortsSearchAndRetriesWithBackoff) {
  // One cold key, one replica: the fault lands while the initial ~20ms
  // search is in flight, aborting it; the batch retries after its
  // deterministic backoff and the key still ends up tuned exactly once
  // more (charged again, so the fault is visible in tuner busy time).
  std::vector<ScenarioSpec> specs = {SmallSpec(4096)};
  const auto trace =
      MakeRequestStream("llm", specs, PoissonArrivals(500.0, 12, 3), 0);
  ClusterConfig config;
  config.replicas = 1;
  config.faults.tuner_failures = 1;
  config.faults.horizon_us = 80000.0;
  FaultSchedule schedule;
  schedule.Add(FaultEvent{5000.0, FaultKind::kTunerFail, 0, 0.0, 0.0});
  const FleetReport report = RunFleet(config, trace, &schedule);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_EQ(report.fault.injected_tuner_failures, 1u);
  EXPECT_GE(report.fault.tuner_retries, 1u);
  EXPECT_EQ(report.fault.requests_degraded, 0u);  // within budget

  // Deterministic under rerun.
  const FleetReport again = RunFleet(config, trace, &schedule);
  ExpectSameFaultReport(again.fault, report.fault);
  ExpectSameRecords(report, again);
}

TEST(FaultInjectionTest, TunerFaultPastBudgetDegradesToSafetyPlan) {
  // With a zero retry budget the first abort immediately degrades the
  // batch: it serves on the search-free single-group safety plan instead
  // of retrying, and its records carry the degraded mark.
  std::vector<ScenarioSpec> specs = {SmallSpec(4096)};
  const auto trace =
      MakeRequestStream("llm", specs, PoissonArrivals(500.0, 12, 3), 0);
  ClusterConfig config;
  config.replicas = 1;
  config.faults.tuner_failures = 1;
  config.faults.horizon_us = 80000.0;
  config.faults.tuner_retry_budget = 0;
  FaultSchedule schedule;
  schedule.Add(FaultEvent{5000.0, FaultKind::kTunerFail, 0, 0.0, 0.0});
  const FleetReport report = RunFleet(config, trace, &schedule);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_EQ(report.fault.injected_tuner_failures, 1u);
  EXPECT_EQ(report.fault.tuner_retries, 0u);
  EXPECT_GT(report.fault.requests_degraded, 0u);
  EXPECT_EQ(report.stats.degraded_requests(), report.fault.requests_degraded);

  // Deterministic under rerun.
  const FleetReport again = RunFleet(config, trace, &schedule);
  ExpectSameFaultReport(again.fault, report.fault);
  ExpectSameRecords(report, again);
}

TEST(FaultInjectionTest, SloShedDropsBlownTenantsAtTheDegradePoint) {
  // A first cold key's ~20ms search blows the tenant's 1ms SLO as soon
  // as its batch completes. A second cold key's search is then aborted
  // by a scripted tuner fault with a zero retry budget: at the degrade
  // point the batch's requests belong to a tenant whose p99 is already
  // past its SLO, so SLO-aware shed drops them instead of serving the
  // safety plan. Shed requests are counted in the FaultReport, mirrored
  // in the SchedReport, and never reach an executor.
  const auto trace = MergeStreams(
      {MakeRequestStream("llm", {SmallSpec(1024)}, PoissonArrivals(500.0, 12, 3), 0),
       MakeRequestStream("llm", {SmallSpec(4096)}, PoissonArrivals(2000.0, 6, 7), 30000)});
  ClusterConfig config;
  config.replicas = 1;
  config.sched.enabled = true;
  config.sched.slo_shed = true;
  config.sched.slo_p99_us = 1000.0;
  config.faults.tuner_failures = 1;  // marks the run fault-active
  config.faults.horizon_us = 80000.0;
  config.faults.tuner_retry_budget = 0;
  FaultSchedule schedule;
  // Lands while the second key's search is in flight (started ~30ms).
  schedule.Add(FaultEvent{32000.0, FaultKind::kTunerFail, 0, 0.0, 0.0});
  const FleetReport report = RunFleet(config, trace, &schedule);

  EXPECT_GT(report.fault.requests_shed, 0u);
  EXPECT_EQ(report.sched.shed_requests, report.fault.requests_shed);
  // Run accounting closes: every admitted request either completed with
  // a record or was shed; shed ones never executed.
  ASSERT_EQ(report.stats.count() + report.fault.requests_shed, trace.size());

  // Without the shed knob the same chaos serves everything degraded.
  ClusterConfig keep = config;
  keep.sched.slo_shed = false;
  const FleetReport degraded = RunFleet(keep, trace, &schedule);
  ASSERT_EQ(degraded.stats.count(), trace.size());
  EXPECT_EQ(degraded.fault.requests_shed, 0u);
  EXPECT_GT(degraded.fault.requests_degraded, 0u);

  // Deterministic under rerun.
  const FleetReport again = RunFleet(config, trace, &schedule);
  ExpectSameFaultReport(again.fault, report.fault);
  ExpectSameRecords(report, again);
}

TEST(FaultInjectionTest, ShipLossRecoversThroughPullPathWithoutExtraSearches) {
  const auto trace = MixedTrace(4, 40);
  ClusterConfig config;
  config.replicas = 4;
  config.policy = PlacementPolicy::kRoundRobin;  // every replica needs every key
  config.ship_plans = true;
  config.faults.ship_loss_windows = 1;
  config.faults.horizon_us = 40000.0;
  FaultSchedule schedule;
  // Every publish fan-out delivery is dropped for the whole run.
  schedule.Add(FaultEvent{1.0, FaultKind::kShipLoss, -1, 1e9, 1.0});
  const FleetReport report = RunFleet(config, trace, &schedule);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_EQ(report.fault.injected_ship_loss_windows, 1u);
  EXPECT_GT(report.fault.ship_drops, 0u);
  // Victims recover by pulling the published plan, never by re-searching.
  EXPECT_LE(report.total_searches, report.distinct_keys);
}

}  // namespace
}  // namespace flo
