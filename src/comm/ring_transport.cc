#include "src/comm/ring_transport.h"

#include "src/util/check.h"

namespace flo {

int RingStepCount(CommPrimitive primitive, int gpu_count) {
  FLO_CHECK_GE(gpu_count, 2);
  switch (primitive) {
    case CommPrimitive::kAllReduce:
      return 2 * (gpu_count - 1);
    case CommPrimitive::kReduceScatter:
    case CommPrimitive::kAllGather:
    case CommPrimitive::kAllToAll:
      return gpu_count - 1;
  }
  return gpu_count - 1;
}

SimTime RingStepTime(const InterconnectSpec& link, double message_bytes, double chunk_bytes) {
  FLO_CHECK_GT(message_bytes, 0.0);
  FLO_CHECK_GT(chunk_bytes, 0.0);
  const double busbw_gbps = link.EffectiveBusBandwidth(message_bytes);
  const double bytes_per_us = busbw_gbps * 1e3;
  return link.base_latency_us + chunk_bytes / bytes_per_us;
}

}  // namespace flo
