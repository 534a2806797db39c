#include "src/core/tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "src/core/partition_search.h"
#include "src/gemm/gemm_model.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace flo {
namespace {

// Output element size in bytes (fp16/bf16).
constexpr int kElementSize = 2;
// Node budget for the branch-and-bound search (group extensions); on
// exhaustion the best plan found so far is kept. OverlapPlanner::
// CanonicalKey mixes both values: a change here must change it too.
constexpr int kSearchMaxNodes = 1 << 24;

}  // namespace

struct Tuner::OfflineStage {
  std::mutex mu;
  std::unordered_map<GemmShape, GemmConfig, GemmShapeHash> gemm_cache;
  std::map<int, Curve> curve_cache;
};

Tuner::Tuner(ClusterSpec cluster, TunerConfig config)
    : cluster_(std::move(cluster)),
      config_(config),
      cost_model_(cluster_.link, cluster_.gpu_count),
      stage_(std::make_shared<OfflineStage>()) {
  FLO_CHECK_GE(config_.s1, 1);
  FLO_CHECK_GE(config_.sp, 1);
}

void Tuner::ShareOfflineStage(const Tuner& owner) {
  FLO_CHECK(cluster_ == owner.cluster_)
      << "tuners sharing an offline stage need equal ClusterSpecs: " << cluster_.Describe()
      << " vs " << owner.cluster_.Describe();
  stage_ = owner.stage_;
}

// The stage's artifacts depend only on the ClusterSpec, which every
// tuner sharing the stage has equal (ShareOfflineStage), so whichever
// tuner derives one derives it for all.
const GemmConfig& Tuner::GemmConfigFor(const GemmShape& shape) {
  std::lock_guard<std::mutex> lock(stage_->mu);
  auto it = stage_->gemm_cache.find(shape);
  if (it == stage_->gemm_cache.end()) {
    GemmModel model(cluster_.gpu);
    it = stage_->gemm_cache.emplace(shape, model.Configure(shape)).first;
  }
  return it->second;
}

const Curve& Tuner::LatencyCurveFor(CommPrimitive primitive) {
  const int key = static_cast<int>(primitive);
  std::lock_guard<std::mutex> lock(stage_->mu);
  auto it = stage_->curve_cache.find(key);
  if (it == stage_->curve_cache.end()) {
    // Dense log-spaced sampling from 64 KiB to 4 GiB covers every group
    // size the engine can produce; 64 points per decade keeps the
    // interpolation error well under the jitter floor even across the
    // bandwidth cliff's curvature.
    Curve curve = cost_model_.SampleLatencyCurve(primitive, 64.0 * 1024,
                                                 4.0 * 1024 * 1024 * 1024, 64);
    it = stage_->curve_cache.emplace(key, std::move(curve)).first;
  }
  return it->second;
}

PredictorSetup Tuner::MakeSetup(const GemmShape& shape, CommPrimitive primitive) {
  PredictorSetup setup;
  setup.gemm = GemmConfigFor(shape);
  setup.gpu = cluster_.gpu;
  setup.primitive = primitive;
  setup.latency_curve = LatencyCurveFor(primitive);
  setup.comm_sm_count = CommSmCount();
  setup.element_size = kElementSize;
  return setup;
}

const TunedPlan& Tuner::Tune(const GemmShape& shape, CommPrimitive primitive) {
  const Key key{shape.m, shape.n, shape.k, static_cast<int>(primitive)};
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = plan_cache_.find(key);
      if (it != plan_cache_.end()) {
        return it->second;
      }
      if (searches_in_flight_.insert(key).second) {
        break;  // this thread owns the search for `key`
      }
      // Another thread is searching this key: wait for it rather than
      // duplicating the work (keeps search_count deterministic under any
      // thread count).
      search_done_.wait(lock);
    }
  }
  TunedPlan plan;
  try {
    plan = Search(shape, primitive);
  } catch (...) {
    // Release the single-flight claim, or every later Tune of this key
    // would wait forever on a search that no longer exists.
    std::lock_guard<std::mutex> lock(mu_);
    searches_in_flight_.erase(key);
    search_done_.notify_all();
    throw;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // No overwrite: if a concurrent ImportPlans installed this key first,
  // keep its node — waiters may already hold a reference to it.
  const TunedPlan& cached = StorePlanLocked(key, std::move(plan), /*overwrite=*/false);
  searches_in_flight_.erase(key);
  search_done_.notify_all();
  return cached;
}

bool Tuner::Contains(const GemmShape& shape, CommPrimitive primitive) const {
  const Key key{shape.m, shape.n, shape.k, static_cast<int>(primitive)};
  std::lock_guard<std::mutex> lock(mu_);
  return plan_cache_.count(key) != 0;
}

std::vector<GemmShape> Tuner::CanonicalShapeMultiset(std::vector<GemmShape> shapes) {
  std::sort(shapes.begin(), shapes.end(), [](const GemmShape& a, const GemmShape& b) {
    return std::tuple(a.m, a.n, a.k) < std::tuple(b.m, b.n, b.k);
  });
  return shapes;
}

Tuner::MultiKey Tuner::CanonicalMultiKey(const std::vector<GemmShape>& shapes,
                                         CommPrimitive primitive) {
  MultiKey key;
  key.first.reserve(shapes.size());
  for (const GemmShape& shape : CanonicalShapeMultiset(shapes)) {
    key.first.push_back({shape.m, shape.n, shape.k});
  }
  key.second = static_cast<int>(primitive);
  return key;
}

const TunedMultiRankPlan& Tuner::TuneImbalanced(const std::vector<GemmShape>& shapes,
                                                CommPrimitive primitive) {
  FLO_CHECK(!shapes.empty());
  const MultiKey key = CanonicalMultiKey(shapes, primitive);
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = imbalanced_cache_.find(key);
      if (it != imbalanced_cache_.end()) {
        return it->second;
      }
      if (imbalanced_in_flight_.insert(key).second) {
        break;  // this thread owns the search for `key`
      }
      search_done_.wait(lock);
    }
  }
  TunedMultiRankPlan plan;
  try {
    plan = SearchImbalanced(key, primitive);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    imbalanced_in_flight_.erase(key);
    search_done_.notify_all();
    throw;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const TunedMultiRankPlan& cached =
      imbalanced_cache_.try_emplace(key, std::move(plan)).first->second;
  imbalanced_in_flight_.erase(key);
  search_done_.notify_all();
  return cached;
}

bool Tuner::ContainsImbalanced(const std::vector<GemmShape>& shapes,
                               CommPrimitive primitive) const {
  const MultiKey key = CanonicalMultiKey(shapes, primitive);
  std::lock_guard<std::mutex> lock(mu_);
  return imbalanced_cache_.count(key) != 0;
}

size_t Tuner::imbalanced_cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return imbalanced_cache_.size();
}

TunedMultiRankPlan Tuner::SearchImbalanced(const MultiKey& key, CommPrimitive primitive) {
  search_count_.fetch_add(1, std::memory_order_relaxed);
  // Duplicate ranks contribute identical accumulators under every
  // cross-rank max, so the search runs over the deduplicated (sorted)
  // shape set — bit-identical to replaying the full multiset.
  std::vector<PredictorSetup> setups;
  std::vector<double> non_overlap;
  for (size_t i = 0; i < key.first.size(); ++i) {
    if (i > 0 && key.first[i] == key.first[i - 1]) {
      continue;
    }
    const GemmShape shape{key.first[i][0], key.first[i][1], key.first[i][2]};
    setups.push_back(MakeSetup(shape, primitive));
    non_overlap.push_back(PredictNonOverlapLatency(setups.back()));
  }
  const MultiRankLatencyTable tables = BuildMultiRankLatencyTable(setups);

  PartitionSearchOptions options;
  options.s1 = config_.s1;
  options.sp = config_.sp;
  options.bounded = !(config_.exhaustive && tables.base_waves <= 20);
  options.max_nodes = kSearchMaxNodes;

  // Seed the incumbent with the deepest rank's single-rank plan: the
  // heaviest rank dominates the rendezvous, so its solo optimum is a
  // strong starting bound. Searched directly on that rank's table — no
  // Tune() call, so an imbalanced key costs exactly one counted search.
  static thread_local PartitionSearcher rank_searcher;
  static thread_local MultiRankPartitionSearcher searcher;
  const GroupLatencyTable* deepest = &tables.ranks[0];
  for (const GroupLatencyTable& table : tables.ranks) {
    if (table.waves > deepest->waves) {
      deepest = &table;
    }
  }
  const WavePartition seed = rank_searcher.Search(*deepest, options).partition;
  const MultiRankSearchResult result = searcher.Search(tables, options, &seed);
  if (result.budget_exhausted) {
    FLO_LOG(kWarning) << "multi-rank branch-and-bound hit the " << kSearchMaxNodes
                      << "-node budget at " << tables.base_waves
                      << " base waves; best-so-far plan kept";
  }
  TunedMultiRankPlan plan;
  plan.base = result.base;
  plan.base_waves = tables.base_waves;
  plan.predicted_us = result.predicted_us;
  plan.predicted_non_overlap_us = *std::max_element(non_overlap.begin(), non_overlap.end());
  plan.candidates_evaluated = static_cast<int>(
      std::min<size_t>(result.candidates_evaluated, std::numeric_limits<int>::max()));
  plan.search_nodes = result.nodes_visited;
  return plan;
}

size_t Tuner::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_cache_.size();
}

void Tuner::ExportMetrics(MetricsRegistry* registry) const {
  registry->Set(registry->Gauge("tuner.searches_total"), static_cast<double>(search_count()));
  registry->Set(registry->Gauge("tuner.plans_cached"), static_cast<double>(cache_size()));
}

const TunedPlan& Tuner::StorePlanLocked(const Key& key, TunedPlan plan, bool overwrite) {
  auto [it, inserted] = plan_cache_.try_emplace(key, std::move(plan));
  if (inserted) {
    nearest_index_[std::get<3>(key)].push_back(
        IndexEntry{std::log2(static_cast<double>(std::get<0>(key))),
                   std::log2(static_cast<double>(std::get<1>(key))),
                   std::log2(static_cast<double>(std::get<2>(key))), key, &it->second});
  } else if (overwrite) {
    // Mutates the node in place (index pointers stay valid). Only the
    // warm-start path asks for this; see the ImportPlans contract.
    it->second = std::move(plan);
  }
  return it->second;
}

TunedPlan Tuner::Search(const GemmShape& shape, CommPrimitive primitive) {
  search_count_.fetch_add(1, std::memory_order_relaxed);
  const PredictorSetup setup = MakeSetup(shape, primitive);
  const int waves = setup.EffectiveWaveCount();
  TunedPlan plan = SearchBranchAndBound(setup, waves);
  FLO_LOG(kDebug) << "tuned " << shape.ToString() << " + " << CommPrimitiveName(primitive)
                  << ": partition " << plan.partition.ToString() << ", predicted "
                  << plan.predicted_us << " us over " << plan.candidates_evaluated
                  << " candidates (" << plan.search_nodes << " nodes)";
  return plan;
}

TunedPlan Tuner::SearchBranchAndBound(const PredictorSetup& setup, int waves) const {
  const GroupLatencyTable table = BuildGroupLatencyTable(setup);
  PartitionSearchOptions options;
  options.s1 = config_.s1;
  options.sp = config_.sp;
  // The exhaustive config searches the full 2^(T-1) space for modest T
  // (the space EnumerateAllPartitions lists).
  options.bounded = !(config_.exhaustive && waves <= 20);
  options.max_nodes = kSearchMaxNodes;
  // One workspace per thread: the pool's parallel cold searches each reuse
  // their own preallocated buffers across searches.
  static thread_local PartitionSearcher searcher;
  const PartitionSearchResult result = searcher.Search(table, options);
  if (result.budget_exhausted) {
    FLO_LOG(kWarning) << "branch-and-bound search hit the " << kSearchMaxNodes
                      << "-node budget at " << waves << " waves; best-so-far plan kept";
  }
  TunedPlan plan;
  plan.gemm = setup.gemm;
  plan.effective_waves = waves;
  plan.partition = result.partition;
  plan.predicted_us = result.predicted_us;
  plan.predicted_non_overlap_us = PredictNonOverlapLatency(setup);
  plan.candidates_evaluated = static_cast<int>(
      std::min<size_t>(result.candidates_evaluated, std::numeric_limits<int>::max()));
  plan.search_nodes = result.nodes_visited;
  return plan;
}

std::vector<StoredPlan> Tuner::ExportPlans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StoredPlan> plans;
  plans.reserve(plan_cache_.size());
  for (const auto& [key, plan] : plan_cache_) {
    StoredPlan stored;
    stored.shape = GemmShape{std::get<0>(key), std::get<1>(key), std::get<2>(key)};
    stored.primitive = static_cast<CommPrimitive>(std::get<3>(key));
    stored.partition = plan.partition;
    stored.predicted_us = plan.predicted_us;
    stored.predicted_non_overlap_us = plan.predicted_non_overlap_us;
    plans.push_back(std::move(stored));
  }
  return plans;
}

int Tuner::ImportPlans(const std::vector<StoredPlan>& plans) {
  int accepted = 0;
  for (const auto& stored : plans) {
    PredictorSetup setup = MakeSetup(stored.shape, stored.primitive);
    const int waves = setup.EffectiveWaveCount();
    TunedPlan plan;
    plan.gemm = setup.gemm;
    plan.effective_waves = waves;
    if (stored.partition.TotalWaves() == waves) {
      plan.partition = stored.partition;
    } else if (stored.partition.group_count() <= waves) {
      // The plan came from a different hardware generation or SM budget:
      // rescale rather than discard.
      plan.partition = ScalePartitionExact(stored.partition, waves);
    } else {
      continue;
    }
    plan.predicted_us = PredictOverlapLatency(setup, plan.partition).latency_us;
    plan.predicted_non_overlap_us = PredictNonOverlapLatency(setup);
    plan.candidates_evaluated = 1;
    const Key key{stored.shape.m, stored.shape.n, stored.shape.k,
                  static_cast<int>(stored.primitive)};
    std::lock_guard<std::mutex> lock(mu_);
    StorePlanLocked(key, std::move(plan), /*overwrite=*/true);
    ++accepted;
  }
  return accepted;
}

TunedPlan Tuner::TuneNearest(const GemmShape& shape, CommPrimitive primitive) {
  // Only consider cached plans for the same primitive, via the
  // per-primitive index (log-extents precomputed at insert time).
  WavePartition nearest_partition;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto index_it = nearest_index_.find(static_cast<int>(primitive));
    if (index_it != nearest_index_.end() && !index_it->second.empty()) {
      const double qm = std::log2(static_cast<double>(shape.m));
      const double qn = std::log2(static_cast<double>(shape.n));
      const double qk = std::log2(static_cast<double>(shape.k));
      double best_distance = std::numeric_limits<double>::infinity();
      const IndexEntry* nearest = nullptr;
      for (const IndexEntry& entry : index_it->second) {
        const double dm = qm - entry.log_m;
        const double dn = qn - entry.log_n;
        const double dk = qk - entry.log_k;
        const double distance = dm * dm + dn * dn + dk * dk;
        // Key tie-break: index order is pool-completion order under
        // parallel tuning, so distance alone would be nondeterministic
        // for equidistant neighbours.
        if (distance < best_distance ||
            (distance == best_distance && nearest != nullptr && entry.key < nearest->key)) {
          best_distance = distance;
          nearest = &entry;
        }
      }
      nearest_partition = nearest->plan->partition;
      found = true;
    }
  }
  if (!found) {
    return Tune(shape, primitive);
  }
  // Rescale the neighbour's partition to this shape's wave count and
  // re-predict (cheap: a single candidate).
  PredictorSetup setup = MakeSetup(shape, primitive);
  TunedPlan plan;
  plan.gemm = setup.gemm;
  plan.effective_waves = setup.EffectiveWaveCount();
  plan.partition = ScalePartition(nearest_partition, plan.effective_waves);
  plan.predicted_us = PredictOverlapLatency(setup, plan.partition).latency_us;
  plan.predicted_non_overlap_us = PredictNonOverlapLatency(setup);
  plan.candidates_evaluated = 1;
  return plan;
}

}  // namespace flo
