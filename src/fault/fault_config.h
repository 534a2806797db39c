// Typed fault kinds, the seeded chaos configuration, and the recovery
// report the serving fleet produces under injection.
//
// The fault plane is deterministic by construction: a FaultConfig seed
// expands into a fixed FaultSchedule (src/fault/fault_schedule.h), every
// injection and recovery action runs on the shared EventLoop's sim clock,
// and all jitter is derived from stable hashes — so a given seed yields
// bit-identical FleetReports (including the FaultReport below) across
// reruns. A zero-fault config schedules nothing and leaves every run
// bit-identical to a build that never had the plane.
#ifndef SRC_FAULT_FAULT_CONFIG_H_
#define SRC_FAULT_FAULT_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace flo {

// The injectable fault taxonomy (Slurm's NODE_FAIL / drain / health-check
// shapes, mapped onto the simulated serving fleet).
enum class FaultKind : uint8_t {
  // Replica dies: session torn down (queued and in-flight requests
  // requeued through the router), PlanStore contents lost; the replica
  // restarts after a delay and re-warms from the shipper's published set.
  kCrash = 0,
  // Executor stalls: no new dispatches until the window ends. If the
  // stall outlives the detection deadline, pending work is requeued the
  // way a deadline-missed request would be.
  kHang,
  // Straggler: every batch on the replica costs `magnitude`x for the
  // window; the replica is drained from routing (unroutable) until the
  // window ends, like Slurm draining an unhealthy node.
  kSlowdown,
  // Every cold tuner search in flight on the replica aborts when it
  // completes: the plan is discarded and the batch retries with
  // exponential backoff, degrading to the single-group safety plan when
  // the retry budget exhausts.
  kTunerFail,
  // Shipping loss window: freshly published plans fail to reach a
  // deterministic `magnitude` fraction of peers. Victims recover through
  // the existing re-ship pull path (BeginTuning against a published key),
  // never by re-paying the search.
  kShipLoss,
  kCount,
};

const char* FaultKindName(FaultKind kind);

// First-retry recovery backoff; it doubles per attempt (RetryBackoffUs).
// A requeue that finds no routable replica also parks this long.
inline constexpr double kRetryBackoffBaseUs = 200.0;

// Seeded chaos shape plus the recovery policy knobs. `enabled()` false
// (the default) injects nothing and perturbs nothing.
struct FaultConfig {
  uint64_t seed = 1;
  // Injection times are drawn uniformly over (0, horizon_us); pick the
  // rough makespan of the fault-free run.
  double horizon_us = 0.0;
  // Faults per kind in the generated schedule.
  int crashes = 0;
  int hangs = 0;
  int slowdowns = 0;
  int tuner_failures = 0;
  int ship_loss_windows = 0;
  // Deadline before a hung replica's pending work requeues. (Per-kind
  // windows and magnitudes are fixed in fault_schedule.cc.)
  double hang_detect_us = 1500.0;
  // Recovery policy: requeued requests back off exponentially from
  // kRetryBackoffBaseUs (RetryBackoffUs below) and are flagged once they
  // exceed the budget (the run still completes them — the budget bounds
  // the backoff growth and feeds the report, it does not shed load).
  int retry_budget = 5;
  double retry_backoff_jitter_us = 50.0;
  // Cold searches aborted by kTunerFail retry at most this many times
  // before the batch serves the single-group safety plan instead.
  int tuner_retry_budget = 2;

  bool enabled() const {
    return crashes > 0 || hangs > 0 || slowdowns > 0 || tuner_failures > 0 ||
           ship_loss_windows > 0;
  }
};

// Recovery backoff before retry `attempt` (1-based) of the work `id` — a
// requeued request's id or an aborted tune's plan key:
// kRetryBackoffBaseUs * 2^(min(attempt, 10) - 1) (attempts past the
// tenth wait as long as the tenth), plus seeded jitter in
// [0, retry_backoff_jitter_us) that is a pure function of (seed, id,
// attempt), so the timeline is bit-identical across reruns.
double RetryBackoffUs(const FaultConfig& faults, uint64_t id, int attempt);

// The fault section of a FleetReport: injections performed and the
// recovery work they triggered. All counters are per run and
// deterministic for a fixed schedule.
struct FaultReport {
  bool enabled = false;
  // Injections actually applied (an event targeting a retired or already
  // unhealthy replica is skipped, deterministically).
  size_t injected_crashes = 0;
  size_t injected_hangs = 0;
  size_t injected_slowdowns = 0;
  size_t injected_tuner_failures = 0;
  size_t injected_ship_loss_windows = 0;
  // Recovery: requests pulled off a failed replica and rescheduled.
  size_t requests_requeued = 0;
  // Requeued requests successfully re-placed through the router.
  size_t requests_retried = 0;
  // Requests whose retry count exceeded the budget (still served).
  size_t retry_budget_exhausted = 0;
  // Requeue firings that found no routable replica and backed off again.
  size_t placement_stalls = 0;
  // Requests served on the single-group safety plan after tuner retries
  // exhausted their budget.
  size_t requests_degraded = 0;
  // Aborted cold searches re-parked for a backoff retry.
  size_t tuner_retries = 0;
  // Plans re-imported into a restarted replica's store from the
  // shipper's published set.
  size_t plans_rewarmed = 0;
  size_t replica_restarts = 0;
  // Plan shipments suppressed by kShipLoss windows (this run).
  size_t ship_drops = 0;
  // SLO-aware shed (src/sched, slo_shed knob): retries dropped at the
  // degrade point because the tenant's p99 was already past its SLO —
  // serving a safety-plan batch would only burn capacity the tenant's
  // latency target cannot be saved by. Shed requests complete the run
  // accounting but never reach an executor.
  size_t requests_shed = 0;

  size_t injected_total() const {
    return injected_crashes + injected_hangs + injected_slowdowns +
           injected_tuner_failures + injected_ship_loss_windows;
  }
};

}  // namespace flo

#endif  // SRC_FAULT_FAULT_CONFIG_H_
