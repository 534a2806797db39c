// Configuration for the observability plane (src/obs).
//
// The plane is off by default. Enabled, it records all three sinks: span
// tracing (the Perfetto export), the metrics registry with sim-clock
// checkpoints, and the flight recorder dumped on FLO_CHECK failure. The
// entire plane can be compiled out with -DFLO_DISABLE_OBS (CMake option
// FLO_DISABLE_OBS): every emission site guards on ObsPlane::enabled(),
// which folds to a constant false in that build, so the simulator's hot
// paths carry at most one predictable branch per event — and a disabled
// run is bit-identical to a build without the plane at all.
#ifndef SRC_OBS_OBS_CONFIG_H_
#define SRC_OBS_OBS_CONFIG_H_

#include <cstddef>

namespace flo {

#ifdef FLO_DISABLE_OBS
inline constexpr bool kObsCompiledIn = false;
#else
inline constexpr bool kObsCompiledIn = true;
#endif

struct ObsConfig {
  // Master switch; with it off an attached ObsPlane records nothing.
  bool enabled = false;
  // Sim-clock spacing of metrics time-series rows; 0 = final snapshot
  // only. Checkpoints are taken from the event-loop tap when dispatched
  // time crosses a boundary — never by scheduling events, so enabling
  // them cannot perturb the simulation.
  double checkpoint_interval_us = 0.0;
  // Per-track (replica) span ring capacity: a 1M-request fleet run keeps
  // the last N spans per replica, so trace size is bounded by design
  // (SpanTracer reports how many were dropped). The default keeps a
  // 128-replica fleet's rings ~6MB total — deep rings (8192+) push the
  // working set past the cache and triple the traced run's overhead.
  size_t span_ring_capacity = 1024;
};

}  // namespace flo

#endif  // SRC_OBS_OBS_CONFIG_H_
