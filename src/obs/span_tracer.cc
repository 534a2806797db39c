#include "src/obs/span_tracer.h"

#include <algorithm>

#include "src/util/check.h"

namespace flo {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kQueue:
      return "queue";
    case SpanKind::kExecute:
      return "execute";
    case SpanKind::kTune:
      return "tune";
    case SpanKind::kBnbSearch:
      return "bnb_search";
    case SpanKind::kPlanHit:
      return "plan_hit";
    case SpanKind::kPlanMiss:
      return "plan_miss";
    case SpanKind::kPlanShip:
      return "plan_ship";
    case SpanKind::kAutoscale:
      return "autoscale";
    case SpanKind::kReplicaSpawn:
      return "replica_spawn";
    case SpanKind::kReplicaDrain:
      return "replica_drain";
    case SpanKind::kReplicaRetire:
      return "replica_retire";
    case SpanKind::kFaultCrash:
      return "fault/crash";
    case SpanKind::kFaultInject:
      return "fault/inject";
    case SpanKind::kFaultRequeue:
      return "fault/requeue";
    case SpanKind::kFaultRetry:
      return "fault/retry";
    case SpanKind::kFaultDegraded:
      return "fault/degraded";
    case SpanKind::kSchedBackfill:
      return "sched/backfill";
    case SpanKind::kSchedReserve:
      return "sched/reserve";
    case SpanKind::kSchedPreempt:
      return "sched/preempt";
    case SpanKind::kSchedShed:
      return "sched/shed";
    case SpanKind::kPrespawn:
      return "autoscale/prespawn";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

SpanTracer::SpanTracer(size_t ring_capacity) : capacity_(ring_capacity) {
  FLO_CHECK_GT(capacity_, 0u);
}

std::vector<SpanRecord> SpanTracer::TrackSpans(size_t track) const {
  FLO_CHECK_LT(track, tracks_.size());
  const Ring& ring = tracks_[track];
  // Oldest retained span sits at the head (0 until the ring wraps).
  std::vector<SpanRecord> spans(ring.buffer.size());
  std::rotate_copy(ring.buffer.begin(), ring.buffer.begin() + ring.head, ring.buffer.end(),
                   spans.begin());
  return spans;
}

void SpanTracer::Clear() {
  for (Ring& ring : tracks_) {
    ring.buffer.clear();
    ring.head = 0;
  }
  emitted_ = 0;
  dropped_ = 0;
}

}  // namespace flo
