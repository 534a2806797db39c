// The benchmark's three workloads. Each builds its inputs from the seed,
// sets up, measures for the requested seconds, checks its outputs, and
// returns the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run).
//
//  - fleet_warm: 128-replica plan-affinity fleet serving a warm key set
//    (plan snapshot imported in set-up) — the per-request path above the
//    event core.
//  - fleet_churn: ~16 replicas with bounded plan stores, cold keys
//    arriving mid-run, all five fault kinds, the fleet scheduler, and
//    reactive + predictive autoscaling — the write-heavy control plane.
//  - plan_sweep: closed-loop plan + execute over a spec grid from fresh
//    planner state — the planner user's cold path, no fleet layers.
#ifndef FLOBENCH_WORKLOADS_H_
#define FLOBENCH_WORKLOADS_H_

#include "bench_util.h"
#include "src/core/scenario.h"

namespace flobench {

// The sequential (non-overlapped) baseline of an overlap spec.
inline flo::ScenarioSpec SequentialOf(const flo::ScenarioSpec& spec) {
  return spec.imbalanced() ? flo::ScenarioSpec::NonOverlapImbalanced(spec.shapes, spec.primitive)
                           : flo::ScenarioSpec::NonOverlap(spec.shapes[0], spec.primitive);
}

Result RunFleetWarm(const Args& args);
Result RunFleetChurn(const Args& args);
Result RunPlanSweep(const Args& args);

}  // namespace flobench

#endif  // FLOBENCH_WORKLOADS_H_
