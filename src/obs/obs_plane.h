// The observability facade: one object wiring the span tracer, metrics
// registry, and flight recorder into a serving run.
//
// A ServeLoop or ServingCluster points ServeConfig::obs at a plane; the
// run then:
//  - installs the plane as the event loop's observation tap (flight
//    recording + sim-clock metrics checkpoints, without scheduling any
//    events of its own — attaching the plane cannot perturb the
//    simulation);
//  - emits SpanRecords from its event handlers (request lifecycle, batch
//    execution, cold-plan tuning, planner search charges, plan-store
//    hit/miss/ship, autoscaler decisions), each of which also bumps the
//    matching registry counters/histograms;
//  - registers pollers that mirror externally owned totals (tuner search
//    counts, plan-store stats) into gauges at every checkpoint.
//
// Exports: TraceJson() renders the retained spans as Chrome trace-event
// JSON (open in ui.perfetto.dev — one process per replica, the executor
// lane as complete events, requests/tuning as nestable async tracks);
// the registry renders the metrics time series as CSV and the final
// snapshot as JSON. All exports are byte-deterministic for a
// deterministic run.
//
// Everything is gated: with ObsConfig::enabled false (or the plane absent,
// or FLO_DISABLE_OBS compiled in) runs are bit-identical to a build
// without observability.
#ifndef SRC_OBS_OBS_PLANE_H_
#define SRC_OBS_OBS_PLANE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_config.h"
#include "src/obs/span.h"
#include "src/obs/span_tracer.h"
#include "src/sim/event_loop.h"

namespace flo {

class ObsPlane {
 public:
  explicit ObsPlane(ObsConfig config = {});

  ObsPlane(const ObsPlane&) = delete;
  ObsPlane& operator=(const ObsPlane&) = delete;

  bool enabled() const { return kObsCompiledIn && config_.enabled; }

  const ObsConfig& config() const { return config_; }
  SpanTracer& tracer() { return tracer_; }
  MetricsRegistry& metrics() { return registry_; }
  const MetricsRegistry& metrics() const { return registry_; }
  FlightRecorder& recorder() { return recorder_; }

  // Per-run lifecycle. BeginRun drops spans, metric values, checkpoint
  // rows, flight records, and pollers (registrations survive); FinishRun
  // polls once more and stamps the final checkpoint at the run's
  // makespan.
  void BeginRun();
  void FinishRun(SimTime makespan_us);

  // Installs this plane as the loop's observation tap (no-op when
  // disabled, detaching any previous tap).
  void AttachLoop(EventLoop* loop);

  // Pollers run before every checkpoint row, mirroring externally owned
  // totals (tuner search counts, plan-store stats) into the registry.
  void AddPoller(std::function<void(MetricsRegistry&)> poller);

  // Records a span: flight recorder, tracer ring, and the kind's registry
  // counters/histograms. Call sites guard with enabled() so the disabled
  // cost is one branch.
  void Emit(const SpanRecord& span);

  // Pre-registered metric ids for the serving emission sites.
  struct ServeMetrics {
    MetricsRegistry::Id requests = 0;
    MetricsRegistry::Id batches = 0;
    MetricsRegistry::Id tunes = 0;
    MetricsRegistry::Id tune_searches = 0;
    MetricsRegistry::Id plan_hits = 0;
    MetricsRegistry::Id plan_misses = 0;
    MetricsRegistry::Id plan_ships = 0;
    MetricsRegistry::Id autoscale_spawns = 0;
    MetricsRegistry::Id autoscale_drains = 0;
    MetricsRegistry::Id autoscale_holds = 0;
    MetricsRegistry::Id autoscale_prespawns = 0;
    // Gauge: the predictive tier's sampled arrivals-per-interval
    // estimate, set at each autoscale checkpoint (0 when reactive-only).
    MetricsRegistry::Id autoscale_rate_estimate = 0;
    MetricsRegistry::Id replica_spawns = 0;
    MetricsRegistry::Id replica_drains = 0;
    MetricsRegistry::Id replica_retires = 0;
    MetricsRegistry::Id events = 0;
    // Fault plane (src/fault): injections and recovery actions.
    MetricsRegistry::Id fault_injects = 0;
    MetricsRegistry::Id requests_requeued = 0;
    MetricsRegistry::Id requests_retried = 0;
    MetricsRegistry::Id requests_degraded = 0;
    // Fleet scheduler (src/sched): backfill, reservation, preemption,
    // and SLO-shed outcomes.
    MetricsRegistry::Id sched_backfills = 0;
    MetricsRegistry::Id sched_reserves = 0;
    MetricsRegistry::Id sched_preempted = 0;
    MetricsRegistry::Id sched_shed = 0;
    MetricsRegistry::Id latency_us = 0;  // histogram
    MetricsRegistry::Id queue_us = 0;    // histogram
    // Poller-fed gauges (mirrors of externally owned totals).
    MetricsRegistry::Id tuner_searches_total = 0;
    MetricsRegistry::Id store_hits = 0;
    MetricsRegistry::Id store_misses = 0;
    MetricsRegistry::Id store_evictions = 0;
    MetricsRegistry::Id plans_resident = 0;
    MetricsRegistry::Id replicas_accepting = 0;
  };
  const ServeMetrics& ids() const { return ids_; }

  // Exports (deterministic byte streams for a deterministic run).
  std::string TraceJson() const;
  bool WriteTrace(const std::string& path) const;
  std::string MetricsCsv() const;
  bool WriteMetricsCsv(const std::string& path) const;
  std::string MetricsJson() const { return registry_.SnapshotJson(); }

 private:
  static void Tap(void* ctx, const EventRecord& record, SimTime now);
  void OnEvent(const EventRecord& record, SimTime now);
  void RunPollers();

  ObsConfig config_;
  SpanTracer tracer_;
  MetricsRegistry registry_;
  FlightRecorder recorder_;
  ServeMetrics ids_;
  std::vector<std::function<void(MetricsRegistry&)>> pollers_;
  SimTime next_checkpoint_us_ = 0.0;
  bool checkpoints_armed_ = false;
};

}  // namespace flo

#endif  // SRC_OBS_OBS_PLANE_H_
