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
  // The reference is stable until the store evicts the entry (so: consume
  // it before planning anything else against a capacity-bounded store).
  // `cache_hit`, when non-null, reports whether the plan was served from
  // the store — per-spec visibility for batch sweeps and serving loops.
  const ExecutionPlan& Plan(const ScenarioSpec& spec, bool* cache_hit = nullptr);

  // Value-returning variant for shared stores: the copy is taken under the
  // store's lock (PlanStore::FindCopy), so it stays valid even if another
  // engine concurrently evicts the entry. The engine uses this whenever a
  // shared PlanStore is attached.
  ExecutionPlan PlanByValue(const ScenarioSpec& spec, bool* cache_hit = nullptr);

  // Keyed forms for callers that already hold the spec's key: `key` must
  // equal CanonicalKey(spec) (serving paths key a request once, at
  // placement, and carry the key through batching and execution).
  const ExecutionPlan& Plan(const ScenarioSpec& spec, uint64_t key, bool* cache_hit);
  ExecutionPlan PlanByValue(const ScenarioSpec& spec, uint64_t key, bool* cache_hit);
  // The lookup of PlanByValue without the copy: stats, store hit/miss and
  // LRU recency advance exactly as PlanByValue's would, and a miss builds
  // and caches the plan. Returns whether the lookup hit.
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
