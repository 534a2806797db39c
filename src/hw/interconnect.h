// Inter-GPU link models with size-dependent effective bandwidth.
//
// The paper's tuner samples a (data size, bandwidth) curve per primitive and
// hardware offline (Fig. 8) and interpolates it at search time. We model the
// underlying point-to-point link here; collective-level curves are derived
// in src/comm/cost_model.h. The curve exhibits the measured shape: smooth
// saturation plus a sharp cliff below a threshold size (the red markers in
// Fig. 8).
#ifndef SRC_HW_INTERCONNECT_H_
#define SRC_HW_INTERCONNECT_H_

#include <cstdint>
#include <string>

#include "src/util/interp.h"

namespace flo {

enum class LinkKind {
  kPcie,    // RTX 4090 server: PCIe across NUMA nodes, no P2P access.
  kNvlink,  // A800 server: pairwise NVLink, P2P capable.
  kHccs,    // Ascend 910B: HCCS mesh.
};

const char* LinkKindName(LinkKind kind);

struct InterconnectSpec {
  LinkKind kind = LinkKind::kPcie;
  std::string name;
  // Peak per-GPU bus bandwidth for large transfers.
  double peak_busbw_gbps = 0.0;
  // Per-message fixed latency (protocol + sync overhead per ring step).
  double base_latency_us = 10.0;
  // Transfer size at which the smooth component reaches half of peak.
  double half_saturation_bytes = 4.0 * 1024 * 1024;
  // Below this size the bandwidth drops off a cliff (Fig. 8 red markers).
  double cliff_bytes = 1.0 * 1024 * 1024;
  // SMs a collective kernel occupies while resident (NCCL channels).
  int comm_sm_count = 8;
  // Per-collective-call host/driver overhead (API call, kernel launch,
  // protocol setup). Frequent small calls make tile-wise signaling lose.
  double call_overhead_us = 15.0;
  // Whether peer-to-peer device access is available (FLUX and Async-TP
  // require it; the 4090 testbed lacks it).
  bool p2p_access = false;

  // Effective bus bandwidth (GB/s) moving `bytes` in one call.
  double EffectiveBusBandwidth(double bytes) const;

  // Samples (bytes, GB/s) densely over [min_bytes, max_bytes]; this is the
  // "offline profiling" stage of the tuner (Sec. 4.2.1 (2)).
  Curve SampleBandwidthCurve(double min_bytes, double max_bytes, int points_per_decade = 16) const;

  bool operator==(const InterconnectSpec&) const = default;
};

// Presets matching the paper's testbeds.
InterconnectSpec MakePcie4090();
InterconnectSpec MakeNvlinkA800();
InterconnectSpec MakeHccsAscend();

}  // namespace flo

#endif  // SRC_HW_INTERCONNECT_H_
