#include "src/core/overlap_engine.h"

#include <utility>
#include <vector>

#include "src/core/predictor.h"
#include "src/util/check.h"

namespace flo {

OverlapEngine::OverlapEngine(ClusterSpec cluster, TunerConfig tuner_config,
                             EngineOptions options)
    : cluster_(cluster),
      options_(options),
      tuner_(cluster, tuner_config),
      planner_(&tuner_, store_.get()),
      executor_(std::move(cluster)) {}

void OverlapEngine::UseSharedPlanStore(std::shared_ptr<PlanStore> store) {
  FLO_CHECK(store != nullptr);
  store_ = std::move(store);
  planner_ = OverlapPlanner(&tuner_, store_.get());
  // Conservative: memoized runs stay valid across stores (plans for a key
  // are deterministic), but a store swap is a deployment boundary — start
  // clean. Dropping the handle (not clearing the map) leaves a memo other
  // engines share intact; the next memoized miss allocates a private one.
  run_memo_.reset();
}

void OverlapEngine::UseSharedRunMemo(std::shared_ptr<RunMemo> memo) {
  FLO_CHECK(memo != nullptr);
  run_memo_ = std::move(memo);
}

OverlapRun OverlapEngine::Execute(const ScenarioSpec& spec) {
  return ExecuteInternal(spec, planner_.CanonicalKey(spec), /*memoize=*/false);
}

OverlapRun OverlapEngine::ExecuteMemoized(const ScenarioSpec& spec) {
  const uint64_t key = planner_.CanonicalKey(spec);
  // Per-scenario option overrides are not part of the plan key, so those
  // specs always take the plain path.
  const bool memoize = !spec.options.has_value();
  bool hit = false;
  if (const OverlapRun* cached = memoize ? FindMemo(spec, key, &hit) : nullptr) {
    OverlapRun run = *cached;
    run.plan_cache_hit = hit;
    return run;
  }
  return ExecuteInternal(spec, key, memoize);
}

OverlapEngine::RunTiming OverlapEngine::ExecuteMemoizedTiming(const ScenarioSpec& spec,
                                                              uint64_t key) {
  const bool memoize = !spec.options.has_value();
  bool hit = false;
  if (const OverlapRun* cached = memoize ? FindMemo(spec, key, &hit) : nullptr) {
    return RunTiming{cached->total_us, hit};
  }
  const OverlapRun run = ExecuteInternal(spec, key, memoize);
  return RunTiming{run.total_us, run.plan_cache_hit};
}

const OverlapRun* OverlapEngine::FindMemo(const ScenarioSpec& spec, uint64_t key,
                                          bool* plan_cache_hit) {
  if (run_memo_ == nullptr) {
    return nullptr;
  }
  const auto it = run_memo_->find(key);
  if (it == run_memo_->end()) {
    return nullptr;
  }
  // The memoized replay needs no plan, but the store lookup still happens
  // (stats, recency, a rebuild after eviction): hit/miss is a property of
  // this call's lookup, not of the memoized one.
  *plan_cache_hit = planner_.TouchPlan(spec, key);
  return &it->second;
}

OverlapRun OverlapEngine::ExecuteInternal(const ScenarioSpec& spec, uint64_t key,
                                          bool memoize) {
  const EngineOptions& effective = spec.options.has_value() ? *spec.options : options_;
  bool cache_hit = false;
  const PlanStore::Handle plan = planner_.Plan(spec, key, &cache_hit);
  const std::vector<GemmShape> shapes = spec.RankShapes(cluster_.gpu_count);
  std::vector<GemmConfig> configs;
  configs.reserve(shapes.size());
  for (const GemmShape& shape : shapes) {
    configs.push_back(tuner_.GemmConfigFor(shape));
  }
  const uint64_t seed =
      executor_.CaseSeed(shapes[0], spec.primitive, plan->partition, effective.seed_salt);
  OverlapRun run;
  if (spec.kind == ScenarioKind::kNonOverlap) {
    run.partition = plan->partition;
    run.total_us = executor_.ExecuteSequential(*plan, configs, effective, seed);
    run.predicted_us = plan->predicted_non_overlap_us;
  } else {
    run = executor_.ExecuteOverlap(*plan, configs, effective, seed);
    run.predicted_us = plan->predicted_us;
  }
  run.plan_cache_hit = cache_hit;
  if (memoize) {
    // Keep memo entries small: group traces and timelines stay per-call.
    OverlapRun cached = run;
    cached.groups.clear();
    cached.gemm_timeline = Timeline();
    cached.comm_timeline = Timeline();
    if (run_memo_ == nullptr) {
      run_memo_ = std::make_shared<RunMemo>();
    }
    run_memo_->emplace(key, std::move(cached));
  }
  return run;
}

SimTime OverlapEngine::TheoreticalBest(const GemmShape& shape, CommPrimitive primitive) {
  PredictorSetup setup = tuner_.MakeSetup(shape, primitive);
  return TheoreticalOverlapLatency(setup);
}

void OverlapEngine::ExportMetrics(MetricsRegistry* registry) const {
  tuner_.ExportMetrics(registry);
  store_->ExportMetrics(registry);
}

}  // namespace flo
