#include "src/obs/obs_plane.h"

#include <utility>

#include "src/serve/tenant_registry.h"
#include "src/sim/trace_export.h"
#include "src/util/check.h"
#include "src/util/file.h"

namespace flo {

namespace {

// Flight-recorder ring capacity (events / spans): the last N of each are
// dumped on a FLO_CHECK failure.
constexpr size_t kFlightRingCapacity = 256;

}  // namespace

ObsPlane::ObsPlane(ObsConfig config)
    : config_(config), tracer_(config.span_ring_capacity), recorder_(kFlightRingCapacity) {
  ids_.requests = registry_.Counter("serve.requests");
  ids_.batches = registry_.Counter("serve.batches");
  ids_.tunes = registry_.Counter("serve.tunes");
  ids_.tune_searches = registry_.Counter("serve.tune_searches");
  ids_.plan_hits = registry_.Counter("plan.hits");
  ids_.plan_misses = registry_.Counter("plan.misses");
  ids_.plan_ships = registry_.Counter("plan.ships");
  ids_.autoscale_spawns = registry_.Counter("autoscale.spawns");
  ids_.autoscale_drains = registry_.Counter("autoscale.drains");
  ids_.autoscale_holds = registry_.Counter("autoscale.holds");
  ids_.autoscale_prespawns = registry_.Counter("autoscale.prespawns");
  ids_.autoscale_rate_estimate = registry_.Gauge("autoscale.rate_estimate");
  ids_.replica_spawns = registry_.Counter("fleet.replica_spawns");
  ids_.replica_drains = registry_.Counter("fleet.replica_drains");
  ids_.replica_retires = registry_.Counter("fleet.replica_retires");
  ids_.events = registry_.Counter("sim.events");
  ids_.fault_injects = registry_.Counter("fault.injects");
  ids_.requests_requeued = registry_.Counter("fault.requests_requeued");
  ids_.requests_retried = registry_.Counter("fault.requests_retried");
  ids_.requests_degraded = registry_.Counter("fault.requests_degraded");
  ids_.sched_backfills = registry_.Counter("sched.backfills");
  ids_.sched_reserves = registry_.Counter("sched.reserves");
  ids_.sched_preempted = registry_.Counter("sched.requests_preempted");
  ids_.sched_shed = registry_.Counter("sched.requests_shed");
  ids_.latency_us = registry_.Histo("serve.latency_us");
  ids_.queue_us = registry_.Histo("serve.queue_us");
  ids_.tuner_searches_total = registry_.Gauge("tuner.searches_total");
  ids_.store_hits = registry_.Gauge("plan_store.hits");
  ids_.store_misses = registry_.Gauge("plan_store.misses");
  ids_.store_evictions = registry_.Gauge("plan_store.evictions");
  ids_.plans_resident = registry_.Gauge("plan_store.resident");
  ids_.replicas_accepting = registry_.Gauge("fleet.replicas_accepting");
  if (enabled()) {
    recorder_.InstallCheckHook();
  }
}

void ObsPlane::BeginRun() {
  tracer_.Clear();
  registry_.ResetValues();
  recorder_.Clear();
  pollers_.clear();
  checkpoints_armed_ = enabled() && config_.checkpoint_interval_us > 0.0;
  next_checkpoint_us_ = config_.checkpoint_interval_us;
}

void ObsPlane::FinishRun(SimTime makespan_us) {
  if (!enabled()) {
    return;
  }
  RunPollers();
  registry_.Checkpoint(makespan_us);
}

void ObsPlane::AttachLoop(EventLoop* loop) {
  FLO_CHECK(loop != nullptr);
  if (enabled()) {
    loop->SetTap(&ObsPlane::Tap, this);
  } else {
    loop->SetTap(nullptr, nullptr);
  }
}

void ObsPlane::AddPoller(std::function<void(MetricsRegistry&)> poller) {
  pollers_.push_back(std::move(poller));
}

void ObsPlane::RunPollers() {
  for (const auto& poller : pollers_) {
    poller(registry_);
  }
}

void ObsPlane::Tap(void* ctx, const EventRecord& record, SimTime now) {
  static_cast<ObsPlane*>(ctx)->OnEvent(record, now);
}

// Installed as the tap only while enabled().
void ObsPlane::OnEvent(const EventRecord& record, SimTime now) {
  recorder_.OnEvent(record, now);
  registry_.Add(ids_.events);
  // Checkpoint rows are cut when dispatched time crosses an interval
  // boundary — values reflect every event strictly before the boundary,
  // which is deterministic because dispatch order is.
  while (checkpoints_armed_ && now >= next_checkpoint_us_) {
    RunPollers();
    registry_.Checkpoint(next_checkpoint_us_);
    next_checkpoint_us_ += config_.checkpoint_interval_us;
  }
}

void ObsPlane::Emit(const SpanRecord& span) {
  if (!enabled()) {
    return;
  }
  FLO_CHECK_GE(span.end_us, span.start_us);
  recorder_.OnSpan(span);
  tracer_.Emit(span);
  switch (span.kind) {
    case SpanKind::kRequest:
      registry_.Add(ids_.requests);
      registry_.Observe(ids_.latency_us, span.DurationUs());
      break;
    case SpanKind::kQueue:
      registry_.Observe(ids_.queue_us, span.DurationUs());
      break;
    case SpanKind::kExecute:
      registry_.Add(ids_.batches);
      break;
    case SpanKind::kTune:
      registry_.Add(ids_.tunes);
      registry_.Add(ids_.tune_searches, span.arg);
      break;
    case SpanKind::kBnbSearch:
      break;  // the searches are charged on the kTune span
    case SpanKind::kPlanHit:
      registry_.Add(ids_.plan_hits);
      break;
    case SpanKind::kPlanMiss:
      registry_.Add(ids_.plan_misses);
      break;
    case SpanKind::kPlanShip:
      registry_.Add(ids_.plan_ships);
      break;
    case SpanKind::kAutoscale:
      registry_.Add(span.arg == 1   ? ids_.autoscale_spawns
                    : span.arg == 2 ? ids_.autoscale_drains
                                    : ids_.autoscale_holds);
      break;
    case SpanKind::kReplicaSpawn:
      registry_.Add(ids_.replica_spawns);
      break;
    case SpanKind::kReplicaDrain:
      registry_.Add(ids_.replica_drains);
      break;
    case SpanKind::kReplicaRetire:
      registry_.Add(ids_.replica_retires);
      break;
    case SpanKind::kFaultCrash:
    case SpanKind::kFaultInject:
      registry_.Add(ids_.fault_injects);
      break;
    case SpanKind::kFaultRequeue:
      registry_.Add(ids_.requests_requeued, span.arg);
      break;
    case SpanKind::kFaultRetry:
      registry_.Add(ids_.requests_retried);
      break;
    case SpanKind::kFaultDegraded:
      registry_.Add(ids_.requests_degraded, span.arg);
      break;
    case SpanKind::kSchedBackfill:
      registry_.Add(ids_.sched_backfills);
      break;
    case SpanKind::kSchedReserve:
      registry_.Add(ids_.sched_reserves);
      break;
    case SpanKind::kSchedPreempt:
      registry_.Add(ids_.sched_preempted, span.arg);
      break;
    case SpanKind::kSchedShed:
      registry_.Add(ids_.sched_shed);
      break;
    case SpanKind::kPrespawn:
      registry_.Add(ids_.autoscale_prespawns);
      break;
    case SpanKind::kCount:
      FLO_CHECK(false) << "kCount is not an emittable span kind";
  }
}

std::string ObsPlane::TraceJson() const {
  ChromeTraceBuilder builder;
  for (size_t track = 0; track < tracer_.track_count(); ++track) {
    const std::vector<SpanRecord> spans = tracer_.TrackSpans(track);
    const int64_t pid = static_cast<int64_t>(track);
    if (track == 0) {
      builder.ProcessName(pid, "fleet");
    } else {
      builder.ProcessName(pid, "replica " + std::to_string(track - 1));
    }
    builder.ThreadName(pid, 0, "executor");
    for (const SpanRecord& span : spans) {
      const std::string name = SpanKindName(span.kind);
      switch (span.kind) {
        case SpanKind::kExecute:
          // The executor lane runs one batch at a time: complete events on
          // tid 0 never overlap within a replica.
          builder.Complete(pid, 0, name, span.start_us, span.DurationUs(),
                           {TraceArg::Int("batch", static_cast<int64_t>(span.arg)),
                            TraceArg::Bool("hit", (span.flags & 1) != 0),
                            TraceArg::Str("key", std::to_string(span.id))});
          break;
        case SpanKind::kTune:
          // Tuning lanes overlap: nestable async, grouped by plan key.
          builder.AsyncBegin(pid, "tune", span.id, name, span.start_us,
                             {TraceArg::Int("searches", static_cast<int64_t>(span.arg))});
          builder.AsyncEnd(pid, "tune", span.id, name, span.end_us);
          break;
        case SpanKind::kSchedReserve:
          // Executor-reservation holds are real intervals (one at a time
          // per replica): async on a "sched" track so SLO attribution
          // can overlap them against request queueing.
          builder.AsyncBegin(pid, "sched", span.id, name, span.start_us, {});
          builder.AsyncEnd(pid, "sched", span.id, name, span.end_us);
          break;
        case SpanKind::kRequest:
        case SpanKind::kQueue: {
          // One async group per tenant; request and queue spans share the
          // request id, so the viewer nests queue inside request.
          const std::string category =
              span.tenant != 0 ? "tenant:" + TenantNameOf(span.tenant) : "requests";
          builder.AsyncBegin(pid, category, span.id, name, span.start_us,
                             {TraceArg::Int("batch", static_cast<int64_t>(span.arg))});
          builder.AsyncEnd(pid, category, span.id, name, span.end_us);
          break;
        }
        default:
          builder.Instant(pid, 0, name, span.start_us,
                          {TraceArg::Str("id", std::to_string(span.id)),
                           TraceArg::Int("arg", static_cast<int64_t>(span.arg))});
      }
    }
  }
  return builder.Json();
}

bool ObsPlane::WriteTrace(const std::string& path) const {
  return WriteStringToFile(path, TraceJson());
}

std::string ObsPlane::MetricsCsv() const { return registry_.TimeSeriesCsv().Render(); }

bool ObsPlane::WriteMetricsCsv(const std::string& path) const {
  return registry_.TimeSeriesCsv().WriteFile(path);
}

}  // namespace flo
