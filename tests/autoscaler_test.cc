// Autoscaler decision-table tests plus cluster-level regressions for the
// observation path feeding it.
//
// The unit tests pin Evaluate as a decision table: reactive pressure,
// drain hysteresis, the zero-accepting freeze, and the predictive tier
// (pre-spawn threshold, headroom scaling, reactive precedence, pre-drain
// guard, calm-streak interactions). The cluster tests pin the three
// observation-path invariants end to end:
//  - a full-fleet outage must neither advance nor reset the calm streak
//    (no drain the moment health restores);
//  - an interval that completes nothing while work is pending carries the
//    previous window's p99 forward (a stalled fleet is not a calm fleet);
//  - pending_requests and accepting_replicas cover the SAME replica set,
//    so a hung replica's parked backlog cannot masquerade as pressure on
//    the healthy survivors.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/autoscaler.h"
#include "src/cluster/serving_cluster.h"
#include "src/core/overlap_engine.h"
#include "src/fault/fault_schedule.h"
#include "src/sched/fleet_scheduler.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_loop.h"

namespace flo {
namespace {

// --- Evaluate decision table: reactive tier ---------------------------------

TEST(AutoscalerDecisionTest, ZeroAcceptingObservationFreezesTheCalmStreak) {
  AutoscaleConfig config;
  config.enabled = true;
  config.min_replicas = 1;
  config.max_replicas = 4;
  config.drain_after_calm_checks = 3;
  Autoscaler scaler(config);
  // One calm check banks progress...
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0}), Autoscaler::Decision::kHold);
  // ...then every replica crashes. The outage observation holds without
  // touching the counter: it is not calm (pending work may be parked on
  // the dead fleet), and it is not busy either — pressure is unknowable
  // while nothing accepts. Even a deep backlog cannot spawn here.
  EXPECT_EQ(scaler.Evaluate({0, 50, 0.0}), Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Evaluate({0, 0, 0.0}), Autoscaler::Decision::kHold);
  // Health restores: the streak resumes at 2, not 3 (the outage checks
  // did not count as calm), so the drain lands one check later.
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0}), Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0}), Autoscaler::Decision::kDrain);
}

// --- Evaluate decision table: predictive tier -------------------------------

AutoscaleConfig PredictiveConfig() {
  AutoscaleConfig config;
  config.enabled = true;
  config.predictive = true;
  config.min_replicas = 1;
  config.max_replicas = 4;
  config.spawn_queue_per_replica = 4.0;
  config.drain_after_calm_checks = 3;
  config.prespawn_headroom = 1.0;
  return config;
}

TEST(AutoscalerDecisionTest, PrespawnFiresWhenPredictedDemandExceedsCapacity) {
  Autoscaler scaler(PredictiveConfig());
  // Queues are empty and the SLO is quiet, but the extrapolated demand
  // (estimate + trend = 130) exceeds what 2 replicas absorb (2 x 50).
  EXPECT_EQ(scaler.Evaluate({2, 0, 0.0, 120.0, 10.0, 50.0}),
            Autoscaler::Decision::kPrespawn);
  // Below the fleet's capacity the estimate is just headroom: hold.
  EXPECT_EQ(scaler.Evaluate({2, 0, 0.0, 80.0, 10.0, 50.0}),
            Autoscaler::Decision::kHold);
  // A collapsing estimate clamps at zero demand, never "negative demand".
  EXPECT_EQ(scaler.Evaluate({2, 0, 0.0, 10.0, -50.0, 50.0}),
            Autoscaler::Decision::kHold);
  // At the replica ceiling the pressure is acknowledged but nothing spawns.
  EXPECT_EQ(scaler.Evaluate({4, 0, 0.0, 500.0, 0.0, 50.0}),
            Autoscaler::Decision::kHold);
  // No capacity estimate yet (no completed work): the tier stays silent.
  EXPECT_EQ(scaler.Evaluate({2, 0, 0.0, 500.0, 0.0, 0.0}),
            Autoscaler::Decision::kHold);
}

TEST(AutoscalerDecisionTest, HeadroomScalesThePrespawnThreshold) {
  AutoscaleConfig config = PredictiveConfig();
  config.prespawn_headroom = 2.0;
  Autoscaler scaler(config);
  // Threshold is replicas x capacity x headroom = 2 x 50 x 2 = 200.
  EXPECT_EQ(scaler.Evaluate({2, 0, 0.0, 150.0, 0.0, 50.0}),
            Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Evaluate({2, 0, 0.0, 250.0, 0.0, 50.0}),
            Autoscaler::Decision::kPrespawn);
}

TEST(AutoscalerDecisionTest, ReactivePressureOutranksThePredictiveTier) {
  Autoscaler scaler(PredictiveConfig());
  // Queue pressure and predicted demand both fire: the decision is the
  // reactive kSpawn — the predictive tier composes, never overrides.
  EXPECT_EQ(scaler.Evaluate({1, 50, 0.0, 500.0, 0.0, 10.0}),
            Autoscaler::Decision::kSpawn);
}

TEST(AutoscalerDecisionTest, PredictiveOffIgnoresTheRateFields) {
  AutoscaleConfig config;
  config.enabled = true;
  config.max_replicas = 4;
  config.spawn_queue_per_replica = 4.0;
  config.drain_after_calm_checks = 3;
  Autoscaler reactive(config);
  AutoscaleConfig off = config;
  off.predictive = false;  // the default, spelled out
  Autoscaler with_fields(off);
  // Step for step, a reactive scaler fed zeroed rate fields and a
  // predictive-off scaler fed screaming rate fields decide identically.
  const std::vector<Autoscaler::Observation> sequence = {
      {2, 30, 0.0, 0.0, 0.0, 0.0},  {2, 0, 0.0, 0.0, 0.0, 0.0},
      {2, 0, 0.0, 0.0, 0.0, 0.0},   {2, 0, 0.0, 0.0, 0.0, 0.0},
      {1, 0, 0.0, 0.0, 0.0, 0.0}};
  for (const Autoscaler::Observation& observation : sequence) {
    Autoscaler::Observation loud = observation;
    loud.rate_estimate = 9999.0;
    loud.rate_trend = 9999.0;
    loud.capacity_per_replica = 1.0;
    EXPECT_EQ(with_fields.Evaluate(loud), reactive.Evaluate(observation));
  }
}

TEST(AutoscalerDecisionTest, PreDrainGuardHoldsWhileDemandNeedsTheFleet) {
  AutoscaleConfig config = PredictiveConfig();
  config.drain_after_calm_checks = 2;
  Autoscaler scaler(config);
  // Demand 120 fits 3 replicas (150) but not 2 (100): queues are calm,
  // yet giving a replica back would put the fleet behind the estimate —
  // the guard keeps the calm streak at zero.
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0, 120.0, 0.0, 50.0}),
            Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0, 120.0, 0.0, 50.0}),
            Autoscaler::Decision::kHold);
  // Demand decays to 90 <= 2 x 50: calm can accumulate and the drain
  // fires after the full hysteresis window, not instantly.
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0, 90.0, 0.0, 50.0}),
            Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0, 90.0, 0.0, 50.0}),
            Autoscaler::Decision::kDrain);
}

TEST(AutoscalerDecisionTest, PrespawnResetsTheCalmStreak) {
  AutoscaleConfig config = PredictiveConfig();
  config.drain_after_calm_checks = 2;
  Autoscaler scaler(config);
  // One calm check banks progress (demand 40 fits the shrunk fleet).
  EXPECT_EQ(scaler.Evaluate({2, 0, 0.0, 40.0, 0.0, 50.0}),
            Autoscaler::Decision::kHold);
  // A pre-spawn is demand forming, not calm: the streak resets.
  EXPECT_EQ(scaler.Evaluate({2, 0, 0.0, 150.0, 0.0, 50.0}),
            Autoscaler::Decision::kPrespawn);
  // Post-spawn calm starts over: hold at 1, drain only at the threshold.
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0, 40.0, 0.0, 50.0}),
            Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0, 40.0, 0.0, 50.0}),
            Autoscaler::Decision::kDrain);
}

// --- The rate estimate feeding the predictive tier --------------------------

TEST(AutoscalerDecisionTest, RateEstimateIsPhaseStableAtASteadyRate) {
  // One arrival every 10us for 20 half-lives: the decayed mass converges,
  // and the phase-compensated inversion recovers ~0.1 arrivals/us no
  // matter where inside a half-life the sample lands. (The naive
  // mass / half_life inversion swings by up to 2x with the sample phase.)
  const double half_life_us = 100.0;
  const double interval_us = 50.0;  // => ~5 arrivals per interval
  for (const double sample_at : {2003.0, 2057.0, 2099.0}) {
    ArrivalRate rate(half_life_us);
    for (double t = 0.0; t < sample_at; t += 10.0) {
      rate.Charge(t);
    }
    const RateEstimate estimate = rate.Sample(sample_at, interval_us);
    EXPECT_NEAR(estimate.arrivals_per_interval, 5.0, 0.5) << "at " << sample_at;
  }
  // A ramping rate shows up as a positive trend between samples.
  ArrivalRate ramping(half_life_us);
  for (double t = 0.0; t < 1000.0; t += 20.0) {
    ramping.Charge(t);
  }
  const RateEstimate slow = ramping.Sample(1000.0, interval_us);
  for (double t = 1000.0; t < 2000.0; t += 5.0) {
    ramping.Charge(t);
  }
  const RateEstimate fast = ramping.Sample(2000.0, interval_us);
  EXPECT_GT(fast.arrivals_per_interval, slow.arrivals_per_interval);
  EXPECT_GT(fast.trend, 0.0);
}

// --- Cluster-level regressions for the observation path ---------------------

ScenarioSpec SmallSpec(int64_t m) {
  return ScenarioSpec::Overlap(GemmShape{m, 2048, 1024}, CommPrimitive::kAllReduce);
}

ServeRequest At(int64_t id, double arrival_us, const ScenarioSpec& spec) {
  ServeRequest request;
  request.id = id;
  request.tenant = "llm";
  request.arrival_us = arrival_us;
  request.spec = spec;
  return request;
}

FleetReport RunFleet(const ClusterConfig& config, const std::vector<ServeRequest>& trace,
                     const FaultSchedule* schedule = nullptr) {
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  if (schedule != nullptr) {
    fleet.SetFaultSchedule(*schedule);
  }
  return fleet.Run(trace);
}

// A crash window that spans several autoscale checkpoints must not turn
// into a drain the moment health restores: outage checks read "calm"
// only if the observation path mistakes zero accepting replicas for an
// idle fleet.
TEST(AutoscalerClusterTest, FullOutageAcrossCheckpointsCausesNoSpuriousDrain) {
  ClusterConfig config;
  config.replicas = 2;
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = 1;
  config.autoscale.max_replicas = 2;
  config.autoscale.check_interval_us = 20000.0;
  config.autoscale.drain_after_calm_checks = 4;
  config.serve.tune_base_us = 0.0;
  config.serve.tune_per_search_us = 0.0;
  // A light warm-up that finishes well before the crash (one calm check
  // banks at the first checkpoint), then silence through the outage, then
  // one tail request after the restore so checkpoints keep evaluating.
  std::vector<ServeRequest> trace;
  for (int i = 0; i < 4; ++i) {
    trace.push_back(At(i, 100.0 * i, SmallSpec(1024)));
  }
  trace.push_back(At(4, 110000.0, SmallSpec(1024)));
  // Both replicas crash at 25ms; the 60ms restart spans checkpoints at
  // 40/60/80ms, restoring before the one at 100ms.
  FaultSchedule outage;
  outage.Add({25000.0, FaultKind::kCrash, 0, 60000.0, 0.0});
  outage.Add({25000.0, FaultKind::kCrash, 1, 60000.0, 0.0});
  const FleetReport report = RunFleet(config, trace, &outage);
  EXPECT_EQ(report.stats.count(), 5u);
  EXPECT_EQ(report.fault.replica_restarts, 2u);
  // The outage checkpoints neither advanced the calm streak (no drain at
  // the first post-restore checkpoint) nor spawned into a dead fleet.
  EXPECT_EQ(report.drains, 0u);
  EXPECT_EQ(report.spawns, 0u);
  EXPECT_EQ(report.peak_replicas, 2);
}

// An interval that completes nothing while requests are pending must not
// read as calm: the cluster carries the previous window's p99 forward,
// so a fleet stalled behind a long cold tune cannot drain mid-stall.
TEST(AutoscalerClusterTest, StalledIntervalCarriesP99ForwardInsteadOfCalm) {
  ClusterConfig config;
  config.replicas = 2;
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = 1;
  config.autoscale.max_replicas = 2;
  config.autoscale.check_interval_us = 4000.0;
  config.autoscale.spawn_queue_per_replica = 8.0;
  config.autoscale.slo_p99_us = 500.0;
  config.autoscale.drain_queue_per_replica = 5.0;
  config.autoscale.drain_after_calm_checks = 2;
  // Side-lane tuning with a fixed 30ms cost: a cold key parks its
  // requests behind a long tune with no completions for many checkpoints.
  config.serve.tune_base_us = 30000.0;
  config.serve.tune_per_search_us = 0.0;
  std::vector<ServeRequest> trace;
  // Phase A: a burst whose queue wait blows the 500us SLO once key A's
  // tune finishes — the completion window records a p99 around 30ms.
  for (int i = 0; i < 12; ++i) {
    trace.push_back(At(i, 10.0 * i, SmallSpec(1024)));
  }
  // Phase B: two requests of a second cold key arrive as phase A drains;
  // their 30ms tune spans several checkpoints that complete nothing
  // while the pair stays pending.
  trace.push_back(At(12, 31000.0, SmallSpec(1536)));
  trace.push_back(At(13, 31001.0, SmallSpec(1536)));
  const FleetReport report = RunFleet(config, trace);
  EXPECT_EQ(report.stats.count(), 14u);
  // Without the carry, the stalled checkpoints read p99 = 0 (calm) and
  // the two-check hysteresis drains a replica mid-stall. With it, the
  // carried ~30ms p99 keeps the SLO signal hot until work actually moves.
  EXPECT_EQ(report.drains, 0u);
  // At the two-replica ceiling the pressure never materializes a spawn.
  EXPECT_EQ(report.spawns, 0u);
  EXPECT_EQ(report.peak_replicas, 2);
}

// pending_requests and accepting_replicas must cover the same replica
// set: a hung replica's parked backlog is not pressure on the healthy
// survivor, because the survivor cannot serve work it was never given
// (the fault plane requeues it only when hang detection fires).
TEST(AutoscalerClusterTest, HungReplicaBacklogStaysOutOfThePressureSignal) {
  ClusterConfig config;
  config.replicas = 2;
  config.ship_plans = false;  // keep the key warm on replica 0 only
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = 1;
  config.autoscale.max_replicas = 3;
  config.autoscale.check_interval_us = 20000.0;
  config.autoscale.spawn_queue_per_replica = 4.0;
  config.autoscale.drain_after_calm_checks = 100;  // isolate the spawn signal
  config.serve.tune_base_us = 0.0;
  config.serve.tune_per_search_us = 0.0;
  // Detection far beyond the hang window: the backlog never requeues, so
  // it stays parked on the non-accepting replica for the whole fault.
  config.faults.hang_detect_us = 400000.0;
  // Plan-affinity routes the whole same-key burst to replica 0, which
  // hangs mid-burst holding a backlog deeper than the spawn threshold.
  std::vector<ServeRequest> trace;
  for (int i = 0; i < 24; ++i) {
    trace.push_back(At(i, 1000.0 + i, SmallSpec(1024)));
  }
  FaultSchedule hang;
  hang.Add({1050.0, FaultKind::kHang, 0, 150000.0, 0.0});
  const FleetReport report = RunFleet(config, trace, &hang);
  EXPECT_EQ(report.stats.count(), 24u);
  EXPECT_EQ(report.fault.injected_hangs, 1u);
  EXPECT_EQ(report.fault.requests_requeued, 0u);  // the backlog never moved
  // The healthy survivor's own queue is empty: mixing the hung backlog
  // into the numerator would read 20+ pending per accepting replica and
  // spawn a third replica every checkpoint of the hang.
  EXPECT_EQ(report.spawns, 0u);
  EXPECT_EQ(report.prespawns, 0u);
  EXPECT_EQ(report.peak_replicas, 2);
}

}  // namespace
}  // namespace flo
