// Replica autoscaling on the simulated clock.
//
// The cluster evaluates the autoscaler at a fixed check interval; the
// decision is a pure function of the observation plus a small hysteresis
// counter, so fleets scale identically on every run (deterministic at any
// replica count). Two reactive pressure signals, either can trigger a
// spawn:
//  - queue pressure: pending requests per accepting replica above the
//    spawn threshold (the fleet is falling behind the arrival rate);
//  - SLO pressure: the p99 latency of requests finished since the last
//    check above the target (tails are already burning).
// Draining needs calm on BOTH signals for `drain_after_calm_checks`
// consecutive checks — scale-down is deliberately stickier than scale-up
// so bursty traffic does not flap the fleet.
//
// An optional predictive tier (off by default) composes with — never
// overrides — the reactive signals. It reads a short-horizon arrival-rate
// estimate sampled from the fleet's decayed arrival account (ArrivalRate,
// src/sched/fleet_scheduler.h):
//  - pre-spawn (kPrespawn): when the extrapolated next-interval demand
//    exceeds what the accepting fleet can absorb (accepting_replicas x
//    capacity_per_replica x prespawn_headroom) while the reactive signals
//    are still quiet, spawn now so the forming burst lands on a warm
//    fleet instead of paying spawn + warm-up inside the tail;
//  - pre-drain guard: a drain additionally requires that the shrunk
//    fleet could still absorb the predicted demand, for the same
//    hysteresis window — so a ramp whose queues have not built yet
//    cannot trick the reactive calm counter into a spurious drain.
// Reactive pressure always wins: if queue or SLO pressure fires, the
// decision is the reactive kSpawn, and predictive calm can only make
// draining stricter, never eager.
#ifndef SRC_CLUSTER_AUTOSCALER_H_
#define SRC_CLUSTER_AUTOSCALER_H_

#include <cstddef>

namespace flo {

struct AutoscaleConfig {
  bool enabled = false;
  int min_replicas = 1;
  int max_replicas = 8;
  // Sim-clock period between evaluations.
  double check_interval_us = 100000.0;
  // Spawn when pending requests per accepting replica exceed this.
  double spawn_queue_per_replica = 8.0;
  // ...or when the recent p99 latency exceeds this (0 disables the SLO
  // signal).
  double slo_p99_us = 0.0;
  // Drain when pending per replica fall below this and the SLO is met.
  double drain_queue_per_replica = 1.0;
  // Consecutive calm checks required before draining one replica.
  int drain_after_calm_checks = 3;
  // Predictive tier master switch. Off (the default), the rate-estimate
  // fields of the observation are ignored and decisions are bit-identical
  // to the reactive-only autoscaler. On, the ServingCluster keeps an
  // ArrivalRate account whether or not SchedConfig is enabled; the
  // estimate decays over SchedConfig::share_half_life_us.
  bool predictive = false;
  // Capacity margin for both predictive decisions: pre-spawn fires when
  // predicted demand > accepting x capacity x headroom, and a drain is
  // allowed only when (accepting - 1) x capacity x headroom still covers
  // the predicted demand. > 1.0 spawns earlier and drains later.
  double prespawn_headroom = 1.0;
};

class Autoscaler {
 public:
  // kPrespawn is a spawn decided by the predictive tier alone (reactive
  // signals quiet); clusters treat it exactly like kSpawn but report and
  // trace it separately so the tier's contribution is observable.
  enum class Decision { kHold, kSpawn, kDrain, kPrespawn };

  // INVARIANT (pinned in tests/autoscaler_test.cc): pending_requests and
  // accepting_replicas must cover the SAME replica set — accepting
  // replicas only. Backlogs parked on crashed, hung, or draining
  // replicas are excluded from the numerator because those replicas are
  // excluded from the denominator; that work re-enters the pressure
  // signal when the fault/sched requeue paths re-place it on an
  // accepting replica. Mixing the sets made per-replica pressure
  // meaningless during fault windows (e.g. a hung replica's deep queue
  // divided over the healthy survivors).
  struct Observation {
    int accepting_replicas = 0;
    size_t pending_requests = 0;
    // p99 latency of requests finished since the previous check. When an
    // interval completes nothing but work is still pending, the cluster
    // carries the previous window's p99 forward (a stalled fleet is not
    // a calm fleet); 0 only when the fleet is genuinely idle.
    double recent_p99_us = 0.0;
    // Predictive-tier inputs (ignored unless config.predictive):
    // estimated arrivals in the next check interval, the per-interval
    // trend of that estimate, and the requests one accepting replica can
    // absorb per check interval.
    double rate_estimate = 0.0;
    double rate_trend = 0.0;
    double capacity_per_replica = 0.0;
  };

  explicit Autoscaler(AutoscaleConfig config);

  const AutoscaleConfig& config() const { return config_; }

  // One check-interval evaluation. Deterministic: the decision depends
  // only on the observation sequence. An observation with zero accepting
  // replicas (a fault outage, not calm) holds WITHOUT touching the
  // drain-hysteresis counter: the fleet's pressure is unknowable while
  // nothing accepts, so the calm window neither advances nor resets.
  Decision Evaluate(const Observation& observation);

 private:
  AutoscaleConfig config_;
  int calm_checks_ = 0;
};

}  // namespace flo

#endif  // SRC_CLUSTER_AUTOSCALER_H_
