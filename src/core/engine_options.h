// Execution-time knobs of the overlap engine (deployment scenarios of
// Sec. 4.2.3 and Sec. 5). These affect how a plan is *executed* on the
// simulated cluster, never which plan is chosen — the planner's cache key
// deliberately excludes them so one cached plan serves every option mix.
#ifndef SRC_CORE_ENGINE_OPTIONS_H_
#define SRC_CORE_ENGINE_OPTIONS_H_

#include <cstdint>

namespace flo {

struct EngineOptions {
  // Deterministic jitter (per-case seeded) on wave and collective
  // durations; gives the predictor a realistic error distribution.
  // Amplitudes are fixed in schedule_executor.cc.
  bool jitter = true;
  uint64_t seed_salt = 0;
  // Simulate collectives mechanistically, ring step by ring step
  // (src/comm/ring_transport.h) instead of charging the closed-form cost.
  bool detailed_comm = false;
  // The signal kernel polls the counting table periodically (Sec. 5);
  // a group's communication can only be released on a poll boundary.
  double signal_poll_interval_us = 0.0;
  // SMs statically reserved by co-located work (the preset-SM-ratio
  // scenario of Sec. 4.2.3); unavailable to both GEMM and collectives.
  int reserved_sms = 0;
  // Hold the collective's SM footprint for the whole overlapped region
  // (polling signal kernels + NCCL channels stay resident), exactly the
  // Alg. 1 line 3 assumption. Disable to model channels that release
  // between groups.
  bool persistent_comm_sms = true;

  bool operator==(const EngineOptions&) const = default;
};

}  // namespace flo

#endif  // SRC_CORE_ENGINE_OPTIONS_H_
