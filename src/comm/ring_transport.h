// Mechanistic ring transport: the step algebra of a collective simulated
// step by step.
//
// Where the closed form charges one duration from the cost model, the ring
// transport (EngineOptions::detailed_comm, replayed by ScheduleExecutor)
// schedules the actual ring algorithm: 2(n-1) chunk rotations for
// AllReduce, (n-1) for ReduceScatter/AllGather, (n-1) pairwise exchange
// rounds for All-to-All. Every step pays the hop latency and moves the
// step's share of the wire volume at the link's effective bandwidth.
// Summed, the steps reproduce the analytic model — the equivalence is
// tested — while showing that the closed form is not hiding structure.
#ifndef SRC_COMM_RING_TRANSPORT_H_
#define SRC_COMM_RING_TRANSPORT_H_

#include "src/comm/primitive.h"
#include "src/hw/interconnect.h"
#include "src/sim/event_record.h"

namespace flo {

// Number of ring steps a primitive needs with `gpu_count` participants.
int RingStepCount(CommPrimitive primitive, int gpu_count);

// Duration of one ring step moving `chunk_bytes` per rank. `message_bytes`
// is the whole call's payload — pipelining efficiency is a property of the
// full transfer, so the bandwidth is evaluated at message size.
SimTime RingStepTime(const InterconnectSpec& link, double message_bytes, double chunk_bytes);

}  // namespace flo

#endif  // SRC_COMM_RING_TRANSPORT_H_
