#include "src/obs/flight_recorder.h"

#include "src/util/check.h"

namespace flo {
namespace {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kGeneric:
      return "generic";
    case EventType::kArrival:
      return "arrival";
    case EventType::kBatchFinished:
      return "batch_finished";
    case EventType::kTuningFinished:
      return "tuning_finished";
    case EventType::kAutoscaleCheck:
      return "autoscale_check";
    case EventType::kFaultInject:
      return "fault_inject";
    case EventType::kRequeue:
      return "requeue";
    case EventType::kHealthRestore:
      return "health_restore";
    case EventType::kHangDetect:
      return "hang_detect";
    case EventType::kRetryKick:
      return "retry_kick";
    case EventType::kSchedCheck:
      return "sched_check";
  }
  return "?";
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(capacity) {
  FLO_CHECK_GT(capacity_, 0u);
  events_.reserve(capacity_);
  spans_.reserve(capacity_);
}

FlightRecorder::~FlightRecorder() {
  if (check_hook_ != -1) {
    RemoveCheckFailureDump(check_hook_);
  }
}

void FlightRecorder::InstallCheckHook() {
  if (check_hook_ == -1) {
    check_hook_ = AddCheckFailureDump(
        [](void* ctx) { static_cast<FlightRecorder*>(ctx)->Dump(stderr); }, this);
  }
}

void FlightRecorder::Dump(std::FILE* out) const {
  std::fprintf(out, "--- flight recorder: last %zu of %llu events ---\n", events_.size(),
               static_cast<unsigned long long>(event_next_));
  for (size_t i = 0; i < events_.size(); ++i) {
    const EventEntry& entry = events_[(event_head_ + i) % events_.size()];
    std::fprintf(out, "  t=%.3f %s key=%llx slot=%u replica=%d\n", entry.time_us,
                 EventTypeName(entry.record.type),
                 static_cast<unsigned long long>(entry.record.key), entry.record.slot,
                 entry.record.replica);
  }
  std::fprintf(out, "--- flight recorder: last %zu of %llu spans ---\n", spans_.size(),
               static_cast<unsigned long long>(span_next_));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[(span_head_ + i) % spans_.size()];
    std::fprintf(out, "  [%.3f, %.3f] %s id=%llx arg=%llu replica=%d\n", span.start_us,
                 span.end_us, SpanKindName(span.kind),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.arg), span.replica);
  }
}

void FlightRecorder::Clear() {
  events_.clear();
  event_head_ = 0;
  event_next_ = 0;
  spans_.clear();
  span_head_ = 0;
  span_next_ = 0;
}

}  // namespace flo
