#include "src/hw/gpu_spec.h"

#include <algorithm>
#include <cctype>

#include "src/util/check.h"

namespace flo {

double GpuSpec::EffectiveTflops(double k) const {
  FLO_CHECK_GT(k, 0.0);
  // Saturating main-loop efficiency: short K cannot hide the tile prologue
  // and epilogue, long K approaches the tuned peak.
  const double k_eff = k / (k + gemm_k_half);
  return fp16_tflops * gemm_peak_efficiency * k_eff;
}

GpuSpec MakeRtx4090() {
  GpuSpec spec;
  spec.name = "RTX4090";
  spec.sm_count = 128;
  spec.fp16_tflops = 330.0;
  spec.hbm_gbps = 1008.0;
  spec.kernel_launch_overhead_us = 5.0;
  spec.gemm_peak_efficiency = 0.78;
  spec.gemm_k_half = 512.0;
  return spec;
}

GpuSpec MakeA800() {
  GpuSpec spec;
  spec.name = "A800";
  spec.sm_count = 108;
  spec.fp16_tflops = 312.0;
  spec.hbm_gbps = 1935.0;
  spec.kernel_launch_overhead_us = 5.0;
  spec.gemm_peak_efficiency = 0.82;
  spec.gemm_k_half = 448.0;
  return spec;
}

GpuSpec MakeAscend910B() {
  GpuSpec spec;
  spec.name = "Ascend910B";
  // 910B exposes 24 AI (cube) cores; each runs one output tile at a time in
  // the TBE tiling model, so waves are much wider than on NVIDIA parts.
  spec.sm_count = 24;
  spec.fp16_tflops = 320.0;
  spec.hbm_gbps = 1600.0;
  spec.kernel_launch_overhead_us = 8.0;
  spec.gemm_peak_efficiency = 0.72;
  spec.gemm_k_half = 640.0;
  return spec;
}

GpuSpec MakeA100() {
  GpuSpec spec = MakeA800();
  // A100 is the same silicon as A800 with unrestricted NVLink; the compute
  // spec is identical for our purposes.
  spec.name = "A100";
  return spec;
}

GpuSpec MakeRtx3090() {
  GpuSpec spec;
  spec.name = "RTX3090";
  spec.sm_count = 82;
  spec.fp16_tflops = 142.0;
  spec.hbm_gbps = 936.0;
  spec.kernel_launch_overhead_us = 5.0;
  spec.gemm_peak_efficiency = 0.75;
  spec.gemm_k_half = 512.0;
  return spec;
}

GpuSpec GpuSpecByName(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "rtx4090" || lower == "4090") {
    return MakeRtx4090();
  }
  if (lower == "a800") {
    return MakeA800();
  }
  if (lower == "a100") {
    return MakeA100();
  }
  if (lower == "rtx3090" || lower == "3090") {
    return MakeRtx3090();
  }
  FLO_CHECK(lower == "ascend910b" || lower == "910b" || lower == "ascend")
      << "unknown GPU preset: " << name;
  return MakeAscend910B();
}

}  // namespace flo
