// Declarative scenario description: everything one engine run needs, as
// one value type.
//
// A ScenarioSpec says *what* to execute — per-rank GEMM shapes, the
// communication primitive, the misconfiguration ablation's extra tiles, an
// optional forced wave partition, and optional per-scenario EngineOptions
// overriding the engine defaults. The OverlapPlanner turns a spec into an
// ExecutionPlan (cached by canonical hash), and the ScheduleExecutor runs
// the plan on the simulated cluster. New workloads are new spec values,
// not new engine methods.
#ifndef SRC_CORE_SCENARIO_H_
#define SRC_CORE_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/comm/primitive.h"
#include "src/core/engine_options.h"
#include "src/core/wave_partition.h"
#include "src/gemm/tile.h"
#include "src/util/rng.h"

namespace flo {

enum class ScenarioKind {
  // Signal-released wave-group overlap (the paper's mechanism).
  kOverlap,
  // Sequential baseline: full GEMM, then one library collective call.
  kNonOverlap,
};

const char* ScenarioKindName(ScenarioKind kind);
// Inverse of ScenarioKindName; std::nullopt for unknown names. Shared by
// every text parser (plan store, serving traces).
std::optional<ScenarioKind> TryScenarioKindFromName(const std::string& name);

struct ScenarioSpec {
  ScenarioKind kind = ScenarioKind::kOverlap;
  // One shape per rank. A single entry is broadcast to every rank
  // (balanced tensor parallelism); multiple entries model the imbalanced
  // expert-parallel All-to-All of Sec. 4.2.2.
  std::vector<GemmShape> shapes;
  CommPrimitive primitive = CommPrimitive::kAllReduce;
  // Misconfigured-wave ablation (paper Fig. 14): every group's counting
  // target is inflated by this many tiles borrowed from the next group.
  int extra_tiles = 0;
  // Bypass the tuner's predictive search with an explicit partition.
  std::optional<WavePartition> forced_partition;
  // Per-scenario override of the engine-level EngineOptions.
  std::optional<EngineOptions> options;

  bool operator==(const ScenarioSpec&) const = default;

  bool imbalanced() const { return shapes.size() > 1; }
  // Shapes expanded to one per rank (broadcasting a single entry).
  std::vector<GemmShape> RankShapes(int gpu_count) const;

  // Mixes the plan-relevant fields (not the execution-only options) into
  // `hash`; the planner composes this with cluster and tuner identity to
  // form the canonical plan-cache key.
  void MixInto(StableHash& hash) const;

  std::string Describe() const;

  // --- Builders, one per scenario family ---
  static ScenarioSpec Overlap(const GemmShape& shape, CommPrimitive primitive,
                              const WavePartition* forced_partition = nullptr);
  static ScenarioSpec NonOverlap(const GemmShape& shape, CommPrimitive primitive);
  static ScenarioSpec Misconfigured(const GemmShape& shape, CommPrimitive primitive,
                                    int extra_tiles);
  static ScenarioSpec Imbalanced(std::vector<GemmShape> shapes, CommPrimitive primitive,
                                 const WavePartition* forced_partition = nullptr);
  static ScenarioSpec NonOverlapImbalanced(std::vector<GemmShape> shapes,
                                           CommPrimitive primitive);
};

}  // namespace flo

#endif  // SRC_CORE_SCENARIO_H_
