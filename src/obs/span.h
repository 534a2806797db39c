// The span record: one fixed-size POD per observed interval or instant.
//
// Spans are emitted only from the single-threaded event-dispatch path (a
// session handler, the cluster's autoscale checkpoint, ...), with
// sim-clock times, so a run's span stream is a pure function of the
// simulated execution — bit-deterministic across reruns.
#ifndef SRC_OBS_SPAN_H_
#define SRC_OBS_SPAN_H_

#include <cstdint>

namespace flo {

enum class SpanKind : uint8_t {
  // Request lifecycle (id = request id, tenant = interned tenant).
  kRequest = 0,  // arrival -> completion
  kQueue,        // arrival -> batch execution start
  kExecute,      // one batch on the executor lane (id = plan key, arg = batch size)
  kTune,         // cold-plan tuning lane occupancy (id = plan key, arg = searches)
  // Planner internals (instants; id = plan key).
  kBnbSearch,  // predictive searches charged to a tuning start (arg = searches)
  kPlanHit,    // batch dispatched against a warm plan
  kPlanMiss,   // batch paid the cold path (arg = batch size)
  kPlanShip,   // freshly tuned plan published to the fleet
  // Fleet events (instants; replica = -1 for fleet scope).
  kAutoscale,      // arg = decision (0 hold, 1 spawn, 2 drain, 3 prespawn)
  kReplicaSpawn,   // id = replica id
  kReplicaDrain,   // id = replica id
  kReplicaRetire,  // id = replica id
  // Fault plane (instants). id = replica id unless noted.
  kFaultCrash,     // a crash injection landed (arg = restart delay, us)
  kFaultInject,    // any other injection (arg = FaultKind)
  kFaultRequeue,   // requests pulled off a failed replica (arg = count)
  kFaultRetry,     // a requeued request re-placed (id = request id)
  kFaultDegraded,  // batch fell back to the safety plan (id = key, arg = requests)
  // Fleet scheduler (src/sched).
  kSchedBackfill,  // warm batch slotted into a tuning window (id = key, arg = size)
  kSchedReserve,   // executor held idle for a blocked head (interval; id = key)
  kSchedPreempt,   // queued requests pulled off a replica (id = replica, arg = count)
  kSchedShed,      // degraded-mode request shed over a blown SLO (id = request id)
  // Predictive autoscaling: a pre-spawn fired from the rate estimate
  // (id = spawned replica id, arg = predicted next-interval demand).
  kPrespawn,
  kCount,
};

// Viewer/trace name of a kind ("request", "execute", ...).
const char* SpanKindName(SpanKind kind);

struct SpanRecord {
  double start_us = 0.0;
  double end_us = 0.0;  // == start_us for instants
  uint64_t id = 0;      // request id or plan key
  uint64_t arg = 0;     // kind-specific payload (see SpanKind)
  int32_t replica = -1;
  uint32_t tenant = 0;  // interned tenant id; 0 = none
  SpanKind kind = SpanKind::kRequest;
  uint8_t flags = 0;  // bit 0: plan-cache hit

  bool instant() const { return end_us == start_us; }
  double DurationUs() const { return end_us - start_us; }
};

static_assert(sizeof(SpanRecord) <= 48, "span records ride fixed-size rings");

}  // namespace flo

#endif  // SRC_OBS_SPAN_H_
