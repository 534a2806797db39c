// The online serving scheduler: drains a request trace through one shared
// ScheduleExecutor on the simulated clock.
//
// Model: one executor lane (the cluster runs one overlapped scenario at a
// time — the GEMM waves of a batch own the SM pool) plus one tuning lane.
// Arriving requests are admitted into per-tenant queues (RequestQueue);
// batches of plan-compatible requests are dispatched to the executor.
// A batch whose plan is cold is routed to the tuning lane first, so
// cold-plan tuning overlaps warm-plan execution instead of stalling it —
// the serving-side payoff of the paper's reusable-plan design.
//
// Cold-plan cost on the sim clock is a plan-build base charge plus a per
// tuner search charge (measured via Tuner::search_count). Note the two
// cache layers: evicting a plan from a capacity-bounded PlanStore re-pays
// the base on the next request, but the expensive searches return only
// when the engine's own Tuner cache (unbounded, per process) is also
// cold — i.e. in a fresh serving process, which is exactly the situation
// shared stores exist to rescue.
#ifndef SRC_SERVE_SERVE_LOOP_H_
#define SRC_SERVE_SERVE_LOOP_H_

#include <cstdint>
#include <vector>

#include "src/core/overlap_engine.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_stats.h"

namespace flo {

class FleetScheduler;
class ObsPlane;
class RequestCursor;

struct ServeConfig {
  // Max requests fused into one executor dispatch (they share a plan).
  int max_batch = 4;
  // Cold-plan tuning cost on the serving clock: base + per tuner search.
  // A search stands for profiling candidate GEMM configs before runtime
  // (paper Sec. 4.2.2), so it costs milliseconds, not microseconds.
  double tune_base_us = 50.0;
  double tune_per_search_us = 20000.0;
  // Concurrent cold-tuning lanes. With > 1 lanes, distinct cold plan keys
  // tune in parallel on the simulated clock: each lane is busy for its own
  // batch's cost (tune_per_search_us per search). The searches themselves
  // run on the host one after another, in the order their batches started;
  // tuning cost is simulated, so host threads could change only wall time.
  // Plans are deterministic regardless of the lane count; only the
  // timeline changes.
  int tuner_lanes = 1;
  // Observability plane (src/obs): request-lifecycle span tracing, metrics
  // checkpoints, and the flight recorder. Borrowed; must outlive the run.
  // nullptr (the default) — and a plane with ObsConfig::enabled false —
  // leave every timeline, report, and random draw bit-identical to a
  // build without observability.
  ObsPlane* obs = nullptr;
  // Fleet scheduler (src/sched): fair-share priority over the tenant
  // lanes, latency-predicted backfill into cold-tuning windows, and the
  // SLO shed decision. Borrowed; must outlive the run. The session has
  // one dispatcher and the scheduler only changes which unit it picks:
  // nullptr (the default) — and a scheduler whose SchedConfig::enabled is
  // false — pick FIFO (the oldest ready batch, else the queue's rotation
  // head).
  FleetScheduler* sched = nullptr;
};

struct ServeReport {
  ServeStats stats;
  SimTime makespan_us = 0.0;
  size_t batches = 0;
  // Batches whose plan was cold when they were formed.
  size_t cold_batches = 0;
  double executor_busy_us = 0.0;
  double tuner_busy_us = 0.0;
  // Peak cold-tuning lanes put to use.
  int tuner_lanes = 0;
  // Events dispatched by the run's event loop (arrivals + internal).
  uint64_t events = 0;
  // Fault recovery (src/fault): cold searches that were failed by an
  // injected tuner-lane fault and re-attempted with backoff, and requests
  // served on the single-group safety plan after the retry budget ran out.
  // Both zero on fault-free runs.
  size_t tuner_retries = 0;
  size_t degraded_requests = 0;
  // Fleet scheduling (src/sched), all zero with the scheduler off:
  // warm batches backfilled into tuning windows, executor-idle
  // reservations held for a blocked head (and their total idle time),
  // backfills that overran a tuned head's start, and degraded-mode
  // requests shed over a blown SLO.
  size_t backfills = 0;
  size_t sched_reserves = 0;
  double reserve_idle_us = 0.0;
  size_t head_delays = 0;
  size_t shed_requests = 0;

  double ThroughputPerSec() const {
    return makespan_us > 0.0 ? static_cast<double>(stats.count()) / makespan_us * 1e6 : 0.0;
  }
};

class ServeLoop {
 public:
  // The engine is borrowed and must outlive the loop. Point it at a shared
  // PlanStore (OverlapEngine::UseSharedPlanStore) to serve warm from
  // another loop's tuning work.
  explicit ServeLoop(OverlapEngine* engine, ServeConfig config = {});

  // Serves the trace to completion and returns the metrics. Deterministic:
  // the same trace against the same engine state yields identical numbers.
  ServeReport Run(std::vector<ServeRequest> requests);

  // Streaming form: pulls requests from the cursor as simulated time
  // advances (one arrival in flight at a time), so memory stays
  // O(pending) instead of O(trace). The vector overload wraps this.
  ServeReport Run(RequestCursor* cursor);

  const ServeConfig& config() const { return config_; }

 private:
  OverlapEngine* engine_;
  ServeConfig config_;
};

}  // namespace flo

#endif  // SRC_SERVE_SERVE_LOOP_H_
