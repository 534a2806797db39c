// Turns a ScenarioSpec into an ExecutionPlan, memoized through a PlanStore.
//
// This is the planning layer of the ScenarioSpec -> OverlapPlanner ->
// ScheduleExecutor pipeline: it owns every decision made before the
// replay — tuner search (or forced partition), wave-count adjustment,
// misconfiguration tile shifting, and the joint multi-rank search for
// imbalanced specs — and caches the result under a canonical hash of
// (scenario, cluster, tuner config). Execution-only knobs (jitter,
// polling, reserved SMs) are deliberately not part of the key: one plan
// serves every EngineOptions mix.
#ifndef SRC_CORE_OVERLAP_PLANNER_H_
#define SRC_CORE_OVERLAP_PLANNER_H_

#include <cstdint>
#include <optional>
#include <utility>

#include "src/core/execution_plan.h"
#include "src/core/plan_store.h"
#include "src/core/scenario.h"
#include "src/core/tuner.h"

namespace flo {

struct PlannerStats {
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

// One tuner search: a single shape (balanced Tune) or the canonical sorted
// rank-shape multiset (imbalanced TuneImbalanced). Keying imbalanced
// requests by the full multiset — not the heaviest rank — keeps two specs
// that share a heaviest rank but differ in light ranks from naming the
// same search.
struct PretuneRequest {
  std::vector<GemmShape> shapes;
  CommPrimitive primitive = CommPrimitive::kAllReduce;

  bool operator==(const PretuneRequest&) const = default;
};

class OverlapPlanner {
 public:
  // Both pointers are borrowed and must outlive the planner.
  OverlapPlanner(Tuner* tuner, PlanStore* store);

  // The plan-cache key: scenario fingerprint x cluster identity x tuner
  // configuration.
  uint64_t CanonicalKey(const ScenarioSpec& spec) const;

  // The tuner search a Build for `spec` would perform — a single-shape
  // Tune or an imbalanced multiset TuneImbalanced — or std::nullopt when
  // building the plan performs no predictive search (non-overlap
  // scenarios, forced partitions). A fleet uses it to publish a plan's
  // tuner-tier artifact.
  std::optional<PretuneRequest> TuningRequest(const ScenarioSpec& spec) const;

  // Returns the memoized plan, building (and caching) it on first use.
  // `key` must equal CanonicalKey(spec) (serving paths key a request
  // once, at placement, and carry the key through batching and
  // execution). The handle keeps the plan alive even if the store, which
  // other engines may share, evicts the entry meanwhile. `cache_hit`,
  // when non-null, reports whether the plan was served from the store —
  // per-spec visibility for batch sweeps and serving loops.
  PlanStore::Handle Plan(const ScenarioSpec& spec, uint64_t key, bool* cache_hit);
  // The lookup of Plan without the handle: stats, store hit/miss and LRU
  // recency advance exactly as Plan's would, and a miss builds and caches
  // the plan. Returns whether the lookup hit.
  bool TouchPlan(const ScenarioSpec& spec, uint64_t key);

  const PlannerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PlannerStats{}; }

 private:
  void RecordLookup(bool hit, bool* cache_hit);
  ExecutionPlan Build(const ScenarioSpec& spec);
  ExecutionPlan BuildNonOverlap(const ScenarioSpec& spec);
  ExecutionPlan BuildBalancedOverlap(const ScenarioSpec& spec);
  ExecutionPlan BuildImbalancedOverlap(const ScenarioSpec& spec);
  // A forced imbalanced partition: restated over the heaviest rank's
  // waves, coarsened to the lightest rank's, tiles split by group fraction.
  ExecutionPlan BuildImbalancedForced(const ScenarioSpec& spec,
                                      const std::vector<GemmShape>& shapes);
  // Fills plan->segments from group_tiles via the tuner's cost model.
  void FillCommSegments(ExecutionPlan* plan, const std::vector<GemmShape>& rank_shapes);

  Tuner* tuner_;
  PlanStore* store_;
  PlannerStats stats_;
};

}  // namespace flo

#endif  // SRC_CORE_OVERLAP_PLANNER_H_
