// The FlashOverlap engine: a thin orchestration of the
// ScenarioSpec -> OverlapPlanner -> ScheduleExecutor pipeline.
//
// Describe what to run as a ScenarioSpec (declarative: per-rank shapes,
// primitive, ablation knobs, optional forced partition and per-scenario
// options); the planner turns it into a cached ExecutionPlan; the executor
// replays the plan on the simulated cluster. Successive Execute calls
// share one executor and reuse cached plans, so a warm sweep performs
// zero tuner searches.
#ifndef SRC_CORE_OVERLAP_ENGINE_H_
#define SRC_CORE_OVERLAP_ENGINE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/comm/cost_model.h"
#include "src/core/engine_options.h"
#include "src/core/overlap_planner.h"
#include "src/core/plan_store.h"
#include "src/core/scenario.h"
#include "src/core/schedule_executor.h"
#include "src/core/tuner.h"
#include "src/core/wave_partition.h"
#include "src/hw/cluster.h"
#include "src/sim/event_record.h"
#include "src/sim/timeline.h"

namespace flo {

// ExecuteMemoized results keyed by the spec's plan key. Entries store runs
// with `groups` and timelines cleared. One memo may serve several engines
// (OverlapEngine::UseSharedRunMemo).
using RunMemo = std::unordered_map<uint64_t, OverlapRun>;

class OverlapEngine {
 public:
  explicit OverlapEngine(ClusterSpec cluster, TunerConfig tuner_config = {},
                         EngineOptions options = {});

  Tuner& tuner() { return tuner_; }
  OverlapPlanner& planner() { return planner_; }
  // The active store: a private one, or the shared one after
  // UseSharedPlanStore.
  PlanStore& plan_store() { return *store_; }
  ScheduleExecutor& executor() { return executor_; }
  const ClusterSpec& cluster() const { return cluster_; }
  const EngineOptions& options() const { return options_; }

  // Shared-store mode (the paper's plans are "cached and reusable across
  // serving processes"): repoints the planner at an external, possibly
  // capacity-bounded PlanStore so several engines/serving loops reuse each
  // other's plans. Execution holds a plan by its handle, so it takes the
  // same path against a private or a shared store. Cross-engine reuse
  // only happens between identical deployments — the canonical key covers
  // cluster and tuner config.
  // Resets planner stats (they described the old store) and detaches the
  // engine from any shared run memo onto a fresh private one, so a store
  // swap never wipes runs that other engines share.
  void UseSharedPlanStore(std::shared_ptr<PlanStore> store);

  // Shared-memo mode ("prepare once, serve many"): repoints
  // ExecuteMemoized at an external RunMemo, so a key replayed by any
  // engine on the memo is a memo hit on all the others. Contract: engines
  // sharing a memo have equal ClusterSpec, TunerConfig and EngineOptions
  // (an entry is a pure function of the plan, those configs and the case
  // seed, and equal configs give a key the same plan on every engine),
  // and are driven from one thread: the memo has no lock. Store lookups
  // stay per engine: a memo hit still looks the plan up in this engine's
  // own store, so hit/miss counts and LRU order are unchanged.
  void UseSharedRunMemo(std::shared_ptr<RunMemo> memo);
  // Entries in the active run memo (0 before the first memoized miss).
  size_t run_memo_size() const { return run_memo_ == nullptr ? 0 : run_memo_->size(); }

  // Executes one scenario end to end: plan (cached) then schedule. For
  // ScenarioKind::kNonOverlap only `total_us`, `predicted_us` and
  // `partition` are populated.
  OverlapRun Execute(const ScenarioSpec& spec);

  // Execute with result memoization for serving loops that replay the same
  // scenario many times (fleet runs execute each distinct spec thousands of
  // times). The plan-store lookup still happens on every call — store
  // hit/miss counters, LRU recency, and planner stats advance exactly as
  // with Execute, and plan_cache_hit reflects the fresh lookup — but on a
  // repeat spec no plan handle is taken (OverlapPlanner::TouchPlan) and the
  // deterministic simulation itself (gemm configs, seeded schedule replay)
  // is skipped and the cached result returned with `groups` traces and the
  // rank-0 timelines empty (only Execute callers read them). Specs
  // carrying per-scenario options bypass the memo entirely (their engine
  // options are not part of the plan key).
  OverlapRun ExecuteMemoized(const ScenarioSpec& spec);

  // What a serving batch reads of a run: the per-request time and whether
  // this call's plan lookup hit the store.
  struct RunTiming {
    SimTime total_us = 0.0;
    bool plan_cache_hit = false;
  };
  // ExecuteMemoized reduced to its timing, keyed by the caller: `key` must
  // equal planner().CanonicalKey(spec) (serving sessions pass the key
  // their batch was formed around instead of re-hashing the spec). A memo
  // hit copies nothing (no OverlapRun, no partition vector): the warm
  // serving path's execute is one store lookup and one memo lookup.
  RunTiming ExecuteMemoizedTiming(const ScenarioSpec& spec, uint64_t key);

  // Perfect-overlap bound (Sec. 6.4).
  SimTime TheoreticalBest(const GemmShape& shape, CommPrimitive primitive);

  // Observability mirror: exports the tuner's and the active plan
  // store's totals into registry gauges — the checkpoint-poller body
  // serving layers register on an attached ObsPlane.
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  // The memoized run for `key` after this call's plan lookup (which sets
  // *plan_cache_hit and still counts stats, refreshes recency and rebuilds
  // an evicted plan); nullptr on a memo miss, with no lookup made.
  const OverlapRun* FindMemo(const ScenarioSpec& spec, uint64_t key, bool* plan_cache_hit);
  // Plans (cached) and simulates; with `memoize`, also stores the result.
  OverlapRun ExecuteInternal(const ScenarioSpec& spec, uint64_t key, bool memoize);

  ClusterSpec cluster_;
  EngineOptions options_;
  Tuner tuner_;
  // The store planner_ memoizes into: private until UseSharedPlanStore.
  std::shared_ptr<PlanStore> store_ = std::make_shared<PlanStore>();
  OverlapPlanner planner_;
  ScheduleExecutor executor_;
  // The active run memo: private, allocated on the first memoized miss,
  // or shared after UseSharedRunMemo. In a ServingCluster every replica
  // uses the fleet's memo, so each key is replayed once per fleet, not
  // once per replica. Keys are the specs' plan keys: for one cluster and
  // tuner config the key is the spec's FNV-1a fingerprint
  // (ScenarioSpec::MixInto) carried on through constant cluster and tuner
  // bytes, and every FNV step (xor a byte, multiply by an odd prime) is a
  // bijection on 64-bit states, so distinct fingerprints give distinct
  // keys; only a balanced and an imbalanced spec (whose key gains a
  // version suffix) could meet, by a 2^-64 coincidence the plan store
  // already keys on. Timings are exact because the schedule replay is a
  // pure function of (plan, configs, options, case seed), all derived
  // deterministically from the spec.
  std::shared_ptr<RunMemo> run_memo_;
};

}  // namespace flo

#endif  // SRC_CORE_OVERLAP_ENGINE_H_
