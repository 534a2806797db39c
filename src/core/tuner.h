// Real-time tuner: offline profiling + online predictive search (Sec. 4.2).
//
// Offline (once per deployment): derive GEMM configurations, sample the
// communication latency curve, determine the collective's SM footprint.
// The derived artifacts live in an offline stage that several tuners on
// one cluster can share (ShareOfflineStage): a serving fleet points every
// replica's tuner at one stage, so the fleet runs the offline stage once,
// not once per replica.
// Online (once per new GEMM size): search the wave-group design space for
// the candidate with the lowest predicted latency. The search is the fused
// branch-and-bound walk of src/core/partition_search.h over a precomputed
// per-group-wave-count latency table. Results are cached; unseen sizes can
// be served by nearest-neighbour matching so dynamic workloads (LLM
// inference) never pay search latency in-band.
//
// Concurrency: every public method is thread-safe. Cache lookups take a
// short critical section; a cache-missing Tune releases the lock for the
// search itself and single-flights concurrent requests for the same key,
// so several threads can drive cold searches for distinct keys in
// parallel (each key is searched exactly once, keeping search_count and
// the cached plans deterministic regardless of thread count). The offline
// stage has its own lock, so tuners sharing it stay thread-safe. Two
// exceptions, both warm-start operations meant to run before serving:
// ImportPlans overwrites already-cached plans in place, so it must not
// run while another thread holds a reference to a plan of the same key;
// ShareOfflineStage swaps the tuner's stage, so it must not run while
// another thread uses this tuner.
#ifndef SRC_CORE_TUNER_H_
#define SRC_CORE_TUNER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/cost_model.h"
#include "src/core/plan_store.h"
#include "src/core/predictor.h"
#include "src/core/wave_partition.h"
#include "src/hw/cluster.h"

namespace flo {

struct TunerConfig {
  // Pruning bounds on the first/last group sizes (paper uses S1=2, SP=4).
  int s1 = 2;
  int sp = 4;
  // If true, search the full 2^(T-1) space (the accuracy baseline of
  // Sec. 6.5); only viable for modest T.
  bool exhaustive = false;
};

struct TunedPlan {
  WavePartition partition;
  double predicted_us = 0.0;
  double predicted_non_overlap_us = 0.0;
  GemmConfig gemm;
  int effective_waves = 0;
  int candidates_evaluated = 0;
  // Branch-and-bound group extensions examined.
  size_t search_nodes = 0;
};

// Result of the joint multi-rank search (imbalanced All-to-All,
// Sec. 4.2.2): the best base composition over the deepest rank's wave
// count; each rank executes its prefix-local projection (ProjectPartition).
struct TunedMultiRankPlan {
  WavePartition base;
  // Rendezvous overlap latency of `base` (PredictOverlapLatencyMultiRank
  // over the projected partitions — the search's table recurrence is
  // bit-identical to that replay).
  double predicted_us = 0.0;
  // Sequential baseline: max over ranks of the per-rank non-overlap
  // latency (GEMM + whole-payload collective).
  double predicted_non_overlap_us = 0.0;
  int base_waves = 0;
  int candidates_evaluated = 0;
  size_t search_nodes = 0;
};

class Tuner {
 public:
  explicit Tuner(ClusterSpec cluster, TunerConfig config = {});

  const ClusterSpec& cluster() const { return cluster_; }
  const TunerConfig& config() const { return config_; }
  const CommCostModel& cost_model() const { return cost_model_; }

  // --- Offline stage artifacts (computed lazily, cached in the stage) ---
  // Returned references stay valid while any tuner sharing the stage
  // lives (node-based containers; entries are never erased).
  const GemmConfig& GemmConfigFor(const GemmShape& shape);
  const Curve& LatencyCurveFor(CommPrimitive primitive);
  // Points this tuner at `owner`'s offline stage and drops its own, so
  // both derive and read each artifact once. The artifacts are functions
  // of the ClusterSpec alone; aborts unless the two specs are equal.
  // References this tuner returned before come from the dropped stage:
  // call it before the tuner derives anything.
  void ShareOfflineStage(const Tuner& owner);
  int CommSmCount() const { return cluster_.link.comm_sm_count; }
  PredictorSetup MakeSetup(const GemmShape& shape, CommPrimitive primitive);

  // --- Online stage ---
  // Searches the (pruned or exhaustive) space for `shape` and caches the
  // result. Concurrent calls for the same key wait on one search.
  const TunedPlan& Tune(const GemmShape& shape, CommPrimitive primitive);

  // True when a Tune for this key would be served from the cache. A peek:
  // no search, no stats. (An in-flight search does not count — the plan is
  // visible only once cached.)
  bool Contains(const GemmShape& shape, CommPrimitive primitive) const;

  // Joint multi-rank search for an imbalanced per-rank shape set, cached
  // and single-flighted like Tune. The key is the canonical rank-shape
  // multiset (sorted), so rank order never splits the cache and two sets
  // sharing a heaviest rank but differing light ranks never collide.
  // Counts one predictive search per cache miss.
  const TunedMultiRankPlan& TuneImbalanced(const std::vector<GemmShape>& shapes,
                                           CommPrimitive primitive);

  // Cache peek for TuneImbalanced, mirroring Contains.
  bool ContainsImbalanced(const std::vector<GemmShape>& shapes,
                          CommPrimitive primitive) const;

  // Canonical sorted order of a rank-shape multiset — the single ordering
  // home shared by the TuneImbalanced cache key and the planner's tuning
  // requests (OverlapPlanner::TuningRequest), so the two can never drift
  // apart and name one search by two keys.
  static std::vector<GemmShape> CanonicalShapeMultiset(std::vector<GemmShape> shapes);

  size_t imbalanced_cache_size() const;

  // Serves an unseen size from the cache by nearest-neighbour matching on
  // log-scale (M, N, K) distance, via a per-primitive index of cached
  // plans; falls back to Tune when no plan of the primitive is cached. The
  // returned plan is rescaled to the query's wave count.
  TunedPlan TuneNearest(const GemmShape& shape, CommPrimitive primitive);

  size_t cache_size() const;

  // Number of predictive searches actually executed (cache misses). Batch
  // callers use this to demonstrate that warm sweeps never search in-band.
  size_t search_count() const { return search_count_.load(std::memory_order_relaxed); }

  // Observability mirror: writes the tuner's totals into registry gauges
  // ("tuner.searches_total", "tuner.plans_cached"). Name-idempotent, so
  // checkpoint pollers re-export onto the same columns every interval.
  void ExportMetrics(MetricsRegistry* registry) const;

  // Snapshot of the plan cache, for persistence via src/core/plan_store.h.
  std::vector<StoredPlan> ExportPlans() const;

  // Installs pre-searched plans into the cache (deployment warm start);
  // returns the number of plans accepted. Plans whose partition does not
  // cover the shape's effective wave count on this cluster are rescaled.
  // Overwrites existing entries in place — run it before handing the
  // tuner to concurrent users (see the class comment).
  int ImportPlans(const std::vector<StoredPlan>& plans);

 private:
  using Key = std::tuple<int64_t, int64_t, int64_t, int>;
  // Canonical imbalanced key: sorted (m, n, k) multiset + primitive.
  using MultiKey = std::pair<std::vector<std::array<int64_t, 3>>, int>;

  static MultiKey CanonicalMultiKey(const std::vector<GemmShape>& shapes,
                                    CommPrimitive primitive);

  // Nearest-neighbour index entry: precomputed log-extents of a cached
  // plan. Pointers reference plan_cache_ nodes (stable; never erased).
  // The key breaks distance ties, so TuneNearest is deterministic even
  // though parallel tuning appends entries in pool-completion order.
  struct IndexEntry {
    double log_m;
    double log_n;
    double log_k;
    Key key;
    const TunedPlan* plan;
  };

  TunedPlan Search(const GemmShape& shape, CommPrimitive primitive);
  TunedPlan SearchBranchAndBound(const PredictorSetup& setup, int waves) const;
  // The fused multi-rank search over the deduplicated shape set (the
  // rendezvous max is unchanged by duplicate ranks).
  TunedMultiRankPlan SearchImbalanced(const MultiKey& key, CommPrimitive primitive);
  // Caches a plan and keeps the per-primitive nearest-neighbour index in
  // sync; an existing entry is kept untouched unless `overwrite` (which
  // mutates the node in place — ImportPlans only). Returns the cached
  // node.
  const TunedPlan& StorePlanLocked(const Key& key, TunedPlan plan, bool overwrite);

  // GEMM configurations and sampled latency curves behind their own lock
  // (defined in tuner.cc).
  struct OfflineStage;

  ClusterSpec cluster_;
  TunerConfig config_;
  CommCostModel cost_model_;
  std::shared_ptr<OfflineStage> stage_;

  mutable std::mutex mu_;
  std::condition_variable search_done_;
  std::set<Key> searches_in_flight_;
  std::set<MultiKey> imbalanced_in_flight_;
  std::map<Key, TunedPlan> plan_cache_;
  std::map<MultiKey, TunedMultiRankPlan> imbalanced_cache_;
  // primitive -> index over the cached plans of that primitive.
  std::map<int, std::vector<IndexEntry>> nearest_index_;
  std::atomic<size_t> search_count_ = 0;
};

}  // namespace flo

#endif  // SRC_CORE_TUNER_H_
