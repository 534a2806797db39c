// Fleet scheduling knobs: the decision layer for *when* admitted work
// runs (the FleetRouter decides *where*). Three cooperating policies,
// all default-off, so a default-constructed config leaves the serving
// dispatcher's pick FIFO:
//
//  - fair-share priority: per-tenant served-cost shares decayed with a
//    half-life compose with request age into a deterministic priority
//    key that orders each replica's ready lanes;
//  - latency-predicted backfill: when the head-of-line batch is blocked
//    on cold tuning, lower-priority warm batches are slotted into the
//    window iff their predicted service time fits before the tuning
//    lane's expected completion — the head job is never delayed;
//  - preemptive requeue: not-yet-dispatched requests on draining,
//    straggling, or overloaded replicas are pulled back through the
//    FleetRouter instead of riding the sinking replica.
#ifndef SRC_SCHED_SCHED_CONFIG_H_
#define SRC_SCHED_SCHED_CONFIG_H_

#include <cstddef>

namespace flo {

struct SchedConfig {
  // Master switch. Off = the session dispatcher's no-policy pick, FIFO
  // (ready batches in order, then the queue's rotation head; no backfill,
  // reservation, preemption or shed), whatever the other knobs say.
  bool enabled = false;

  // Fair share: served predicted-cost halves every this many sim-us.
  // <= 0 disables decay (shares accumulate forever).
  double share_half_life_us = 50'000.0;
  // A request older than this outranks every non-starving batch
  // regardless of its tenant's share — the starvation-freedom backstop.
  double starvation_age_us = 100'000.0;

  // Backfill: with it off, a blocked high-priority head holds the
  // executor idle until its tuning completes (strict priority).
  bool backfill = true;
  // A candidate fits a window iff predicted_service * slack <= window;
  // the margin absorbs predictor error so the head job is not delayed.
  double backfill_slack = 1.25;

  // Preemptive requeue: a fleet-level scan every preempt_interval_us
  // pulls queued (never dispatched) requests off unhealthy or
  // overloaded replicas and re-places them through the router.
  bool preempt_requeue = true;
  double preempt_interval_us = 2'000.0;
  // A replica is overloaded when its queue depth is at least
  // overload_min_queue and exceeds overload_factor x the mean depth of
  // the other accepting replicas.
  double overload_factor = 4.0;
  size_t overload_min_queue = 8;

  // SLO-aware shed: when tuner retries exhaust and a batch would be
  // served on the single-group safety plan, drop the requests of
  // tenants whose observed p99 already exceeds slo_p99_us instead of
  // queueing degraded work that can no longer meet its SLO.
  bool slo_shed = false;
  double slo_p99_us = 0.0;  // <= 0 = never shed
};

// Scheduler outcomes aggregated into FleetReport. All-zero (and
// enabled=false) when the scheduler is off.
struct SchedReport {
  bool enabled = false;
  size_t backfills = 0;            // warm batches slotted into tuning windows
  size_t reserves = 0;             // executor-idle holds for a blocked head
  double reserve_idle_us = 0.0;    // total executor time spent reserved
  size_t head_delays = 0;          // backfill overran into a tuned head's start
  size_t preempt_scans = 0;        // fleet preemption sweeps run
  size_t preempted_requests = 0;   // queued requests pulled off replicas
  size_t shed_requests = 0;        // degraded-mode requests shed over SLO
};

}  // namespace flo

#endif  // SRC_SCHED_SCHED_CONFIG_H_
