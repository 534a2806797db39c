// Fleet-scheduler tests: fair-share priority math, the SLO shed's
// per-run latency state, backfill safety (the head job is never
// delayed), fair-share convergence under an adversarial tenant,
// preemptive requeue completeness, scheduler-off bit-identity with the
// pre-sched dispatch, and sched-on bit-identity across reruns.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/serving_cluster.h"
#include "src/fault/fault_schedule.h"
#include "src/hw/cluster.h"
#include "src/sched/fleet_scheduler.h"
#include "src/serve/request_source.h"
#include "src/serve/tenant_registry.h"

namespace flo {
namespace {

// --- FleetScheduler unit ----------------------------------------------------

TEST(FleetSchedulerTest, UsageDecaysByHalfLives) {
  SchedConfig config;
  config.enabled = true;
  config.share_half_life_us = 1000.0;
  FleetScheduler sched(config);
  const uint32_t tenant = InternTenant("decay-tenant");
  sched.Charge(tenant, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(sched.UsageAt(tenant, 0.0), 100.0);
  // Whole half-life periods halve; partial periods do not.
  EXPECT_DOUBLE_EQ(sched.UsageAt(tenant, 999.0), 100.0);
  EXPECT_DOUBLE_EQ(sched.UsageAt(tenant, 1000.0), 50.0);
  EXPECT_DOUBLE_EQ(sched.UsageAt(tenant, 2500.0), 25.0);
  // Far future: the decay loop is capped and the share bottoms out at 0.
  EXPECT_DOUBLE_EQ(sched.UsageAt(tenant, 1e9), 0.0);
  // A never-charged tenant owes nothing.
  EXPECT_DOUBLE_EQ(sched.UsageAt(InternTenant("idle-tenant"), 500.0), 0.0);
}

TEST(FleetSchedulerTest, PriorityOrdersStarvationThenUsageThenAge) {
  SchedConfig config;
  config.enabled = true;
  config.starvation_age_us = 1000.0;
  FleetScheduler sched(config);
  const uint32_t heavy = InternTenant("heavy-tenant");
  const uint32_t light = InternTenant("light-tenant");
  sched.Charge(heavy, 5000.0, 0.0);

  // Lower decayed usage outranks higher, whatever the arrival order.
  const auto light_new = sched.KeyFor(light, 90.0, 100.0);
  const auto heavy_old = sched.KeyFor(heavy, 10.0, 100.0);
  EXPECT_TRUE(FleetScheduler::Before(light_new, heavy_old));
  EXPECT_FALSE(FleetScheduler::Before(heavy_old, light_new));

  // Equal usage: older arrival wins.
  const auto light_older = sched.KeyFor(light, 50.0, 100.0);
  EXPECT_TRUE(FleetScheduler::Before(light_older, light_new));

  // Starvation backstop: a request past the age bound outranks every
  // non-starving one, even from the heaviest tenant; among starving
  // requests the oldest wins.
  const auto heavy_starving = sched.KeyFor(heavy, 10.0, 2000.0);
  const auto light_fresh = sched.KeyFor(light, 1990.0, 2000.0);
  EXPECT_TRUE(heavy_starving.starving);
  EXPECT_FALSE(light_fresh.starving);
  EXPECT_TRUE(FleetScheduler::Before(heavy_starving, light_fresh));
  const auto light_starving = sched.KeyFor(light, 5.0, 2000.0);
  EXPECT_TRUE(FleetScheduler::Before(light_starving, heavy_starving));
}

TEST(FleetSchedulerTest, BackfillFitRespectsSlack) {
  SchedConfig config;
  config.enabled = true;
  config.backfill_slack = 1.25;
  FleetScheduler sched(config);
  EXPECT_TRUE(sched.BackfillFits(100.0, 125.0));
  EXPECT_FALSE(sched.BackfillFits(100.0, 124.0));
  EXPECT_FALSE(sched.BackfillFits(100.0, 0.0));
  SchedConfig off = config;
  off.backfill = false;
  EXPECT_FALSE(FleetScheduler(off).BackfillFits(1.0, 1e9));
}

TEST(FleetSchedulerTest, SloShedReadsOnlyThisRunsLatencies) {
  SchedConfig config;
  config.enabled = true;
  config.slo_shed = true;
  config.slo_p99_us = 1000.0;
  FleetScheduler sched(config);
  const uint32_t tenant = InternTenant("slo-tenant");
  EXPECT_FALSE(sched.TenantSloBlown(tenant));
  for (int i = 0; i < 100; ++i) {
    sched.ObserveLatency(tenant, 50000.0);
  }
  EXPECT_TRUE(sched.TenantSloBlown(tenant));
  // A new run starts from no latencies: low ones keep the SLO met.
  sched.ResetRunState();
  EXPECT_FALSE(sched.TenantSloBlown(tenant));
  for (int i = 0; i < 100; ++i) {
    sched.ObserveLatency(tenant, 50.0);
  }
  EXPECT_FALSE(sched.TenantSloBlown(tenant));
  // Unarmed, the SLO is never blown, whatever the latencies.
  SchedConfig no_shed = config;
  no_shed.slo_shed = false;
  SchedConfig no_target = config;
  no_target.slo_p99_us = 0.0;
  for (const SchedConfig& unarmed : {no_shed, no_target}) {
    FleetScheduler off(unarmed);
    for (int i = 0; i < 100; ++i) {
      off.ObserveLatency(tenant, 50000.0);
    }
    EXPECT_FALSE(off.TenantSloBlown(tenant));
  }
}

// --- Cluster-level ----------------------------------------------------------

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

void ExpectSameRecords(const FleetReport& a, const FleetReport& b) {
  ASSERT_EQ(a.stats.count(), b.stats.count());
  for (size_t i = 0; i < a.stats.count(); ++i) {
    EXPECT_EQ(a.stats.records()[i].id, b.stats.records()[i].id) << i;
    EXPECT_DOUBLE_EQ(a.stats.records()[i].finish_us, b.stats.records()[i].finish_us) << i;
  }
}

void ExpectSameSchedReport(const SchedReport& a, const SchedReport& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.backfills, b.backfills);
  EXPECT_EQ(a.reserves, b.reserves);
  EXPECT_DOUBLE_EQ(a.reserve_idle_us, b.reserve_idle_us);
  EXPECT_EQ(a.head_delays, b.head_delays);
  EXPECT_EQ(a.preempt_scans, b.preempt_scans);
  EXPECT_EQ(a.preempted_requests, b.preempted_requests);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
}

TEST(FleetSchedTest, DisabledConfigIsBitIdenticalToPreSchedDispatch) {
  const auto trace = MixedTrace(3, 30);
  ClusterConfig baseline;
  baseline.replicas = 2;
  const FleetReport before = RunFleet(baseline, trace);
  EXPECT_FALSE(before.sched.enabled);

  // enabled=false must win over every other knob: no scheduler is
  // constructed, so the whole run — timeline and published bytes — is
  // the pre-sched dispatch.
  ClusterConfig off = baseline;
  off.sched.enabled = false;
  off.sched.share_half_life_us = 1.0;
  off.sched.starvation_age_us = 1.0;
  off.sched.backfill_slack = 99.0;
  off.sched.preempt_interval_us = 1.0;
  off.sched.overload_min_queue = 0;
  off.sched.slo_shed = true;
  off.sched.slo_p99_us = 1.0;
  ServingCluster base_fleet(Make4090Cluster(4), baseline, {}, EngineOptions{.jitter = false});
  ServingCluster off_fleet(Make4090Cluster(4), off, {}, EngineOptions{.jitter = false});
  const FleetReport a = base_fleet.Run(trace);
  const FleetReport b = off_fleet.Run(trace);
  EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.events, b.events);
  ExpectSameRecords(a, b);
  EXPECT_EQ(base_fleet.shipper().SerializeSnapshot(), off_fleet.shipper().SerializeSnapshot());
  EXPECT_FALSE(b.sched.enabled);
  EXPECT_EQ(b.sched.backfills, 0u);
  EXPECT_EQ(b.sched.preempt_scans, 0u);
}

// Warm steady traffic plus a cold key arriving mid-run: the cold tenant's
// head blocks on its ~20ms search, and warm batches backfill the window.
std::vector<ServeRequest> BackfillTrace() {
  std::vector<ScenarioSpec> warm_specs = {SmallSpec(1024)};
  std::vector<ScenarioSpec> cold_specs = {SmallSpec(4096)};
  return MergeStreams(
      {MakeRequestStream("steady", warm_specs, PoissonArrivals(600.0, 80, 3), 0),
       MakeRequestStream("newcomer", cold_specs, PoissonArrivals(2000.0, 6, 7), 30000)});
}

TEST(FleetSchedTest, BackfillFillsTuningWindowsWithoutDelayingTheHead) {
  const auto trace = BackfillTrace();
  ClusterConfig config;
  config.replicas = 1;
  config.sched.enabled = true;
  const FleetReport report = RunFleet(config, trace);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_TRUE(report.sched.enabled);
  // The cold head reserved the executor at least once and warm work was
  // slotted into its window...
  EXPECT_GT(report.sched.backfills, 0u);
  // ...without ever starting a batch that overran a tuned head's start:
  // the no-head-delay contract, audited at every tuning completion.
  EXPECT_EQ(report.sched.head_delays, 0u);

  // Strict priority (backfill off) reserves without filling: it must
  // spend at least as much executor time idle under reservation.
  ClusterConfig strict = config;
  strict.sched.backfill = false;
  const FleetReport reserved = RunFleet(strict, trace);
  ASSERT_EQ(reserved.stats.count(), trace.size());
  EXPECT_EQ(reserved.sched.backfills, 0u);
  EXPECT_EQ(reserved.sched.head_delays, 0u);
  EXPECT_GE(reserved.sched.reserve_idle_us, report.sched.reserve_idle_us);
}

// An adversarial tenant floods one key while a light tenant trickles
// requests of the same (warm) key through the contended window.
std::vector<ServeRequest> AdversarialTrace() {
  std::vector<ScenarioSpec> specs = {SmallSpec(1024)};
  return MergeStreams(
      {MakeRequestStream("adversary", specs, BurstyArrivals(120.0, 8.0, 16, 240, 11), 30000),
       MakeRequestStream("victim", specs, PoissonArrivals(4000.0, 24, 13), 30000)});
}

TEST(FleetSchedTest, FairShareProtectsTheLightTenantFromAnAdversary) {
  const auto trace = AdversarialTrace();
  ClusterConfig fifo;
  fifo.replicas = 1;
  const FleetReport baseline = RunFleet(fifo, trace);
  ClusterConfig fair = fifo;
  fair.sched.enabled = true;
  const FleetReport shared = RunFleet(fair, trace);
  ASSERT_EQ(baseline.stats.count(), trace.size());
  ASSERT_EQ(shared.stats.count(), trace.size());

  // The victim's tail collapses: its sparse requests jump the adversary's
  // backlog instead of queueing behind it.
  const TenantSummary victim_fifo = baseline.stats.Summarize("victim");
  const TenantSummary victim_fair = shared.stats.Summarize("victim");
  EXPECT_LT(victim_fair.latency.p99, victim_fifo.latency.p99);
  EXPECT_LT(victim_fair.latency.p50, victim_fifo.latency.p50);
  // Conservation: the adversary still completes everything — fair share
  // reorders, it never sheds.
  EXPECT_EQ(shared.stats.Summarize("adversary").requests,
            baseline.stats.Summarize("adversary").requests);
}

TEST(FleetSchedTest, PreemptedRequestsAllCompleteOnHealthyReplicas) {
  const auto trace = MixedTrace(3, 40);
  ClusterConfig config;
  config.replicas = 2;
  config.policy = PlacementPolicy::kRoundRobin;
  config.sched.enabled = true;
  config.faults.slowdowns = 1;  // marks the run fault-active
  config.faults.horizon_us = 30000.0;
  // Replica 0 straggles for 20ms mid-burst: the scan must pull its queued
  // backlog over to replica 1 instead of letting it ride the straggler.
  FaultSchedule schedule;
  schedule.Add(FaultEvent{2000.0, FaultKind::kSlowdown, 0, 20000.0, 4.0});
  const FleetReport report = RunFleet(config, trace, &schedule);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_GT(report.sched.preempt_scans, 0u);
  EXPECT_GT(report.sched.preempted_requests, 0u);
  // Preemption is a placement revision, not a failure: no retry marks.
  EXPECT_EQ(report.stats.retried_requests(), report.fault.requests_requeued);

  // And it helps: the same chaos without preemption strands the backlog
  // on the straggler until the window closes.
  ClusterConfig no_preempt = config;
  no_preempt.sched.preempt_requeue = false;
  const FleetReport stranded = RunFleet(no_preempt, trace, &schedule);
  ASSERT_EQ(stranded.stats.count(), trace.size());
  EXPECT_EQ(stranded.sched.preempted_requests, 0u);
  EXPECT_LE(report.makespan_us, stranded.makespan_us);
}

TEST(FleetSchedTest, SchedOnIsBitIdenticalAcrossReruns) {
  const auto trace = MixedTrace(4, 40);
  ClusterConfig config;
  config.replicas = 2;
  config.serve.tuner_lanes = 2;
  config.sched.enabled = true;
  const FleetReport base = RunFleet(config, trace);
  ASSERT_EQ(base.stats.count(), trace.size());
  EXPECT_TRUE(base.sched.enabled);

  for (int rerun = 0; rerun < 2; ++rerun) {
    const FleetReport report = RunFleet(config, trace);
    EXPECT_DOUBLE_EQ(report.makespan_us, base.makespan_us);
    EXPECT_EQ(report.total_searches, base.total_searches);
    ExpectSameSchedReport(report.sched, base.sched);
    ExpectSameRecords(report, base);
  }
}

}  // namespace
}  // namespace flo
