// Typed, allocation-free event records for the serving-scale event loop.
//
// The original simulator core dispatched every event through a heap-allocated
// std::function closure. At millions of events that allocation (plus the
// capture copies) dominates the hot path, so the serving loop now schedules
// small POD records and dispatches them through pre-registered handlers.
#ifndef SRC_SIM_EVENT_RECORD_H_
#define SRC_SIM_EVENT_RECORD_H_

#include <cstdint>

namespace flo {

// Simulated time in microseconds. Microseconds are the natural unit here:
// kernel launch overheads are ~5 us and end-to-end runs are ~1e6 us, so
// doubles keep full precision across the whole range.
using SimTime = double;

// Tag for the tagged-record dispatch. kArrival is special: arrivals sort
// ahead of every other event type at equal timestamps (see EventLoop).
enum class EventType : uint8_t {
  kGeneric = 0,
  kArrival,
  kBatchFinished,
  kTuningFinished,
  kAutoscaleCheck,
  // Fault plane (src/fault + src/cluster): a scheduled injection firing,
  // a requeued request re-entering the router, a failed replica's health
  // restoring, the hang-detection deadline, and a backoff-retry wake-up
  // for an aborted cold tune.
  kFaultInject,
  kRequeue,
  kHealthRestore,
  kHangDetect,
  kRetryKick,
  // Fleet scheduler (src/sched): the periodic preemptive-requeue scan
  // pulling not-yet-dispatched work off draining/straggling/overloaded
  // replicas back through the router.
  kSchedCheck,
};

// One scheduled event. The payload is deliberately tiny: a canonical key
// (plan key, request id, ...), the registered handler to dispatch to, a
// pool slot for handlers that park state in an object pool, and the replica
// the event belongs to. Copied by value everywhere; never heap-allocated.
struct EventRecord {
  uint64_t key = 0;
  uint32_t handler = 0;
  uint32_t slot = 0;
  int32_t replica = -1;
  EventType type = EventType::kGeneric;
};

}  // namespace flo

#endif  // SRC_SIM_EVENT_RECORD_H_
