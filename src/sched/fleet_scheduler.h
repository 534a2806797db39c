// FleetScheduler: fleet-wide fair-share state plus the priority and
// backfill decisions every replica's dispatch consults.
//
// One scheduler is shared by every session in a cluster (the way the
// ObsPlane is), so tenant shares are fleet-wide: a tenant burning
// executor time on replica 3 loses priority on replica 0 too. It holds
// only what its decisions read — per-tenant decayed usage and, when the
// SLO shed is armed, per-tenant latency histograms — updated at
// event-dispatch time on the sim clock, so decisions are
// bit-deterministic across reruns.
//
// Priority is Slurm-shaped: usage-decayed fair share first (lowest
// served cost wins), request age as the tie-break, and a starvation
// backstop that lifts any request older than `starvation_age_us` above
// every non-starving batch. Tenant ids never order anything — interning
// order is arrival-dependent — only usage, age, and (via the lane list)
// alphabetical tenant order do.
//
// ArrivalRate: the fleet's decayed arrival account, on the same
// libm-free half-life clock as the usage shares, inverted into the
// short-horizon rate estimate the predictive autoscale tier reads. It is
// independent of the scheduler: a cluster holds one exactly when that
// tier is on.
#ifndef SRC_SCHED_FLEET_SCHEDULER_H_
#define SRC_SCHED_FLEET_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sched/sched_config.h"
#include "src/serve/request_queue.h"
#include "src/sim/event_record.h"

namespace flo {

// Short-horizon arrival-rate estimate sampled from an ArrivalRate at the
// autoscale checkpoint. Both fields are in requests per `interval_us`
// (the sampling interval): the estimate is the steady-state inversion of
// the decayed arrival mass, the trend is the change since the previous
// sample — together they extrapolate the next interval's demand one step
// ahead.
struct RateEstimate {
  double arrivals_per_interval = 0.0;
  double trend = 0.0;
};

class ArrivalRate {
 public:
  explicit ArrivalRate(double half_life_us) : half_life_us_(half_life_us) {}

  // Charges one arrival. Called once per admitted request, never for
  // fault requeues or preemptive re-placements (those are placement
  // revisions, not demand).
  void Charge(SimTime now);

  // Samples the arrival-rate estimate for the next `interval_us`,
  // inverting the decayed arrival mass: decay folds in whole half-life
  // quanta, so at a steady rate of r arrivals/us the after-fold mass is
  // r * (half_life + d) where d = now - anchor is the un-decayed span —
  // mass / (half_life + d) recovers r exactly at any sample phase, with
  // plain arithmetic (no libm call — decisions stay bit-stable across
  // toolchains). The trend is the difference from the previous sample, so
  // callers can extrapolate a forming burst one interval ahead. Returns
  // zeros when decay is disabled (half_life_us <= 0): an undecayed
  // account is cumulative history, not a rate.
  RateEstimate Sample(SimTime now, double interval_us);

 private:
  double half_life_us_;
  double mass_ = 0.0;
  SimTime anchor_us_ = 0.0;
  // The previous Sample value, for the trend.
  double last_rate_per_interval_ = 0.0;
  bool sampled_ = false;
};

class FleetScheduler {
 public:
  explicit FleetScheduler(SchedConfig config) : config_(config) {}

  bool enabled() const { return config_.enabled; }
  const SchedConfig& config() const { return config_; }

  // The deterministic priority key: starving requests first (oldest
  // wins), then lowest decayed usage, then oldest arrival. Callers
  // break remaining ties by their own deterministic scan order.
  struct Priority {
    bool starving = false;
    double usage_us = 0.0;
    SimTime arrival_us = 0.0;
  };
  Priority KeyFor(uint32_t tenant_id, SimTime arrival_us, SimTime now) const;
  // True when `a` outranks `b`.
  static bool Before(const Priority& a, const Priority& b);

  // RequestQueue::LanePicker entry point: index (into `heads`) of the
  // highest-priority lane head at `now`. Ties keep the first head in
  // the presented (alphabetical-tenant) order.
  size_t PickLane(const std::vector<RequestQueue::LaneHead>& heads, SimTime now) const;

  // Charges `cost_us` of served predicted-cost to the tenant (once per
  // request at batch dispatch), folding in half-life decay.
  void Charge(uint32_t tenant_id, double cost_us, SimTime now);
  // The tenant's decayed usage as of `now`; 0 for never-charged tenants.
  double UsageAt(uint32_t tenant_id, SimTime now) const;

  // Completed-request latency feed for the SLO shed decision. Recorded
  // only while the shed is armed (slo_shed and slo_p99_us > 0), the one
  // case TenantSloBlown reads it; TenantP99Us has no other reader.
  void ObserveLatency(uint32_t tenant_id, double latency_us);
  // Approximate p99 over the tenant's observed latencies (0 when none).
  double TenantP99Us(uint32_t tenant_id) const;
  // True when slo_shed is armed and the tenant's p99 already exceeds
  // the configured SLO — serving it degraded can no longer help.
  bool TenantSloBlown(uint32_t tenant_id) const;

  // True when a candidate with this predicted service time fits a
  // tuning window of `window_us` with the configured slack.
  bool BackfillFits(double predicted_service_us, double window_us) const;

  // Clears shares and latency state between runs.
  void ResetRunState();

 private:
  struct TenantShare {
    double usage_us = 0.0;
    // Decay is folded in whole half-life periods; the anchor advances
    // by whole periods so partial periods keep accumulating.
    SimTime anchor_us = 0.0;
    Histogram latency_us;
  };

  TenantShare& ShareFor(uint32_t tenant_id);

  SchedConfig config_;
  // Indexed by interned tenant id (dense, ids start at 1).
  std::vector<TenantShare> shares_;
};

}  // namespace flo

#endif  // SRC_SCHED_FLEET_SCHEDULER_H_
