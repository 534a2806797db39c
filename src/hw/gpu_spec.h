// Compute-device descriptions used by the timing models.
//
// Presets mirror the paper's testbeds: NVIDIA A800 (NVLink server), NVIDIA
// RTX 4090 (consumer PCIe server) and HUAWEI Ascend 910B (Sec. 6.7).
#ifndef SRC_HW_GPU_SPEC_H_
#define SRC_HW_GPU_SPEC_H_

#include <string>

namespace flo {

struct GpuSpec {
  std::string name;
  // Streaming multiprocessors (or AI cores on Ascend): the number of output
  // tiles that execute concurrently — determines the wave count.
  int sm_count = 0;
  // Dense FP16 tensor throughput of the whole chip.
  double fp16_tflops = 0.0;
  // Device memory bandwidth; drives epilogue/element-wise kernel costs.
  double hbm_gbps = 0.0;
  // Fixed cost of getting any kernel onto the device.
  double kernel_launch_overhead_us = 5.0;
  // Fraction of peak FLOPS a well-tuned GEMM reaches on large shapes.
  double gemm_peak_efficiency = 0.80;
  // K value at which main-loop efficiency reaches half of peak; models the
  // prologue/epilogue amortization of the CUTLASS main loop.
  double gemm_k_half = 512.0;

  // Effective GEMM FLOPS for accumulation depth `k` using all SMs.
  double EffectiveTflops(double k) const;

  bool operator==(const GpuSpec&) const = default;
};

// Paper testbed presets.
GpuSpec MakeRtx4090();
GpuSpec MakeA800();
GpuSpec MakeAscend910B();

// Additional parts the artifact supports (sm80/sm86/sm89 per the paper's
// AE appendix: "can also be used on RTX 3090 and A100 GPUs").
GpuSpec MakeA100();
GpuSpec MakeRtx3090();

// Resolves a preset by case-insensitive name ("a800", "rtx4090", "4090",
// "ascend910b"); aborts on unknown names.
GpuSpec GpuSpecByName(const std::string& name);

}  // namespace flo

#endif  // SRC_HW_GPU_SPEC_H_
