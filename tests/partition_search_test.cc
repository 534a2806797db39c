#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/overlap_engine.h"
#include "src/core/partition_search.h"
#include "src/core/predictor.h"
#include "src/core/tuner.h"
#include "src/core/wave_partition.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_loop.h"
#include "src/util/rng.h"

namespace flo {
namespace {

constexpr CommPrimitive kAllPrimitives[] = {
    CommPrimitive::kAllReduce,
    CommPrimitive::kReduceScatter,
    CommPrimitive::kAllGather,
    CommPrimitive::kAllToAll,
};

// A synthetic setup with an exact effective wave count: `waves - 1` full
// waves plus a tail wave whose tile count is derived from `tail_seed`.
// `wave_time_us` steers the compute/communication balance (small =>
// comm-bound, large => compute-bound with its large tie plateaus).
PredictorSetup MakeSyntheticSetup(int waves, int tail_seed, double wave_time_us,
                                  CommPrimitive primitive) {
  const ClusterSpec cluster = MakeA800Cluster(4);
  Tuner tuner(cluster);
  PredictorSetup setup;
  setup.gpu = cluster.gpu;
  setup.primitive = primitive;
  setup.latency_curve = tuner.LatencyCurveFor(primitive);
  setup.comm_sm_count = cluster.link.comm_sm_count;
  setup.element_size = 2;
  const int width = std::max(1, setup.gpu.sm_count - setup.comm_sm_count);
  const int tail_tiles = 1 + tail_seed % width;
  setup.gemm.tile = TileShape{128, 128};
  setup.gemm.tile_count = (waves - 1) * width + tail_tiles;
  setup.gemm.wave_time_us = wave_time_us;
  setup.gemm.duration_us =
      waves * wave_time_us + setup.gpu.kernel_launch_overhead_us;
  EXPECT_EQ(setup.EffectiveWaveCount(), waves);
  return setup;
}

struct ExhaustiveBest {
  WavePartition partition;
  double latency_us = std::numeric_limits<double>::infinity();
};

// The reference the branch-and-bound must match bit-for-bit: score every
// member of the full 2^(T-1) space with the legacy evaluator, breaking
// latency ties toward the lexicographically smallest group-size vector.
ExhaustiveBest ScoreExhaustively(const PredictorSetup& setup, int waves) {
  ExhaustiveBest best;
  for (const WavePartition& candidate : EnumerateAllPartitions(waves)) {
    const double latency = PredictOverlapLatency(setup, candidate).latency_us;
    if (latency < best.latency_us ||
        (latency == best.latency_us &&
         std::lexicographical_compare(candidate.group_sizes.begin(),
                                      candidate.group_sizes.end(),
                                      best.partition.group_sizes.begin(),
                                      best.partition.group_sizes.end()))) {
      best.partition = candidate;
      best.latency_us = latency;
    }
  }
  return best;
}

TEST(GroupLatencyTableTest, MatchesLegacyEvaluatorBitExactly) {
  for (const CommPrimitive primitive : kAllPrimitives) {
    const PredictorSetup setup = MakeSyntheticSetup(14, 30, 4.0, primitive);
    const GroupLatencyTable table = BuildGroupLatencyTable(setup);
    // Every partition of the full space: table-driven replay must equal
    // the legacy evaluator bit for bit, single-group special case
    // included.
    for (const WavePartition& candidate : EnumerateAllPartitions(14)) {
      ASSERT_EQ(PredictLatencyWithTable(table, candidate),
                PredictOverlapLatency(setup, candidate).latency_us)
          << candidate.ToString() << " " << CommPrimitiveName(primitive);
    }
  }
}

// Acceptance gate: the fused branch-and-bound returns the same best
// partition and the bit-identical predicted latency as exhaustively
// scoring EnumerateAllPartitions — for every wave count <= 20 on
// All-Reduce and for all four primitives on the smaller counts.
TEST(PartitionSearchTest, MatchesExhaustiveEnumerationBitExactly) {
  PartitionSearcher searcher;
  PartitionSearchOptions options;
  options.bounded = false;
  const double wave_times[] = {0.6, 5.0, 60.0};
  for (const CommPrimitive primitive : kAllPrimitives) {
    const int max_waves = primitive == CommPrimitive::kAllReduce ? 20 : 16;
    for (int waves = 1; waves <= max_waves; ++waves) {
      const double wave_time = wave_times[waves % 3];
      const PredictorSetup setup =
          MakeSyntheticSetup(waves, waves * 37, wave_time, primitive);
      const ExhaustiveBest expected = ScoreExhaustively(setup, waves);
      const GroupLatencyTable table = BuildGroupLatencyTable(setup);
      const PartitionSearchResult result = searcher.Search(table, options);
      ASSERT_EQ(result.predicted_us, expected.latency_us)
          << "waves=" << waves << " primitive=" << CommPrimitiveName(primitive);
      ASSERT_EQ(result.partition.group_sizes, expected.partition.group_sizes)
          << "waves=" << waves << " primitive=" << CommPrimitiveName(primitive)
          << " got " << result.partition.ToString() << " want "
          << expected.partition.ToString();
      EXPECT_FALSE(result.budget_exhausted);
    }
  }
}

// The bounded space the tuner searches by default, as a candidate list:
// the single-group fallback and the equal-sized safety families, plus
// every composition whose first group is at most s1 waves and whose last
// group is at most sp waves (a single group belongs to it when T <= s1).
std::vector<WavePartition> BoundedSpace(int waves, int s1, int sp) {
  std::vector<WavePartition> space;
  space.push_back(WavePartition{{waves}});
  for (int body = 1; body < waves; ++body) {
    WavePartition family;
    for (int left = waves; left > 0; left -= std::min(body, left)) {
      family.group_sizes.push_back(std::min(body, left));
    }
    space.push_back(family);
  }
  for (const WavePartition& candidate : EnumerateAllPartitions(waves)) {
    const std::vector<int>& sizes = candidate.group_sizes;
    if (sizes.front() <= s1 && (sizes.size() == 1 || sizes.back() <= sp)) {
      space.push_back(candidate);
    }
  }
  return space;
}

// Lexicographic tie rule over any candidate list.
void ConsiderForBest(const WavePartition& candidate, double latency, WavePartition* best,
                     double* best_us) {
  if (latency < *best_us ||
      (latency == *best_us &&
       std::lexicographical_compare(candidate.group_sizes.begin(), candidate.group_sizes.end(),
                                    best->group_sizes.begin(), best->group_sizes.end()))) {
    *best = candidate;
    *best_us = latency;
  }
}

// Acceptance gate for the default (bounded) search, whose pruning uses
// the sp-capped comm chain: bit-identical to brute force over the bounded
// space plus the safety seeds, for every T <= 18, all four primitives and
// compute- to comm-bound wave times, at the tuner's (s1, sp) = (2, 4) and
// at a tighter cap. The table-driven scorer stands in for the legacy
// evaluator (GroupLatencyTableTest pins the two bit for bit).
TEST(PartitionSearchTest, BoundedSearchMatchesBruteForceOverTheBoundedSpace) {
  PartitionSearcher searcher;
  const double wave_times[] = {0.6, 5.0, 60.0};
  const std::pair<int, int> caps[] = {{2, 4}, {3, 2}};
  for (const CommPrimitive primitive : kAllPrimitives) {
    for (int waves = 1; waves <= 18; ++waves) {
      for (const auto& [s1, sp] : caps) {
        const PredictorSetup setup = MakeSyntheticSetup(
            waves, waves * 29 + s1, wave_times[(waves + sp) % 3], primitive);
        const GroupLatencyTable table = BuildGroupLatencyTable(setup);
        WavePartition expected;
        double expected_us = std::numeric_limits<double>::infinity();
        for (const WavePartition& candidate : BoundedSpace(waves, s1, sp)) {
          ConsiderForBest(candidate, PredictLatencyWithTable(table, candidate), &expected,
                          &expected_us);
        }
        PartitionSearchOptions options;
        options.s1 = s1;
        options.sp = sp;
        const PartitionSearchResult result = searcher.Search(table, options);
        ASSERT_EQ(result.predicted_us, expected_us)
            << "waves=" << waves << " s1=" << s1 << " sp=" << sp
            << " primitive=" << CommPrimitiveName(primitive);
        ASSERT_EQ(result.partition.group_sizes, expected.group_sizes)
            << "waves=" << waves << " s1=" << s1 << " sp=" << sp
            << " primitive=" << CommPrimitiveName(primitive) << " got "
            << result.partition.ToString() << " want " << expected.ToString();
      }
    }
  }
}

TEST(PartitionSearchTest, PrunesFarFewerNodesThanTheFullSpace) {
  PartitionSearcher searcher;
  PartitionSearchOptions options;
  options.bounded = false;
  const PredictorSetup setup =
      MakeSyntheticSetup(20, 40, 5.0, CommPrimitive::kAllReduce);
  const GroupLatencyTable table = BuildGroupLatencyTable(setup);
  const PartitionSearchResult result = searcher.Search(table, options);
  // The full tree has ~2^20 extensions; the bound + dominance cuts must
  // remove the overwhelming majority while staying exact.
  EXPECT_LT(result.nodes_visited, (1u << 20) / 8);
}

TEST(PartitionSearchTest, BudgetExhaustionKeepsASeededValidPlan) {
  PartitionSearcher searcher;
  PartitionSearchOptions options;
  options.max_nodes = 1;
  const PredictorSetup setup =
      MakeSyntheticSetup(12, 17, 5.0, CommPrimitive::kAllReduce);
  const GroupLatencyTable table = BuildGroupLatencyTable(setup);
  const PartitionSearchResult result = searcher.Search(table, options);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_TRUE(result.partition.Valid(12));
  EXPECT_GT(result.predicted_us, 0.0);
  EXPECT_LE(result.predicted_us, table.single_group_us);
}

TEST(PartitionSearchTest, BoundedSearchNeverLosesToLegacyPrunedEnumeration) {
  // The B&B's bounded space is a superset of the (possibly truncated)
  // EnumeratePruned candidate set, so its best prediction can only be
  // equal or better than scoring every candidate — on every primitive and
  // across shapes.
  for (const CommPrimitive primitive : kAllPrimitives) {
    for (int64_t m : {1024, 4096, 16384}) {
      const GemmShape shape{m, 8192, 8192};
      Tuner tuner(Make4090Cluster(4));
      const PredictorSetup setup = tuner.MakeSetup(shape, primitive);
      const TunerConfig& config = tuner.config();
      double enumerated = std::numeric_limits<double>::infinity();
      for (const WavePartition& candidate :
           EnumeratePruned(setup.EffectiveWaveCount(), config.s1, config.sp)) {
        enumerated = std::min(enumerated, PredictOverlapLatency(setup, candidate).latency_us);
      }
      const TunedPlan& plan = tuner.Tune(shape, primitive);
      EXPECT_LE(plan.predicted_us, enumerated)
          << shape.ToString() << " " << CommPrimitiveName(primitive);
      EXPECT_TRUE(plan.partition.Valid(plan.effective_waves));
    }
  }
}

// --- Multi-rank (imbalanced All-to-All) -------------------------------------

// A per-rank synthetic setup sharing one sampled curve (ranks of one
// rendezvous live on the same cluster and primitive).
PredictorSetup MakeRankSetup(const ClusterSpec& cluster, const Curve& curve, int waves,
                             int tail_seed, double wave_time_us, CommPrimitive primitive) {
  PredictorSetup setup;
  setup.gpu = cluster.gpu;
  setup.primitive = primitive;
  setup.latency_curve = curve;
  setup.comm_sm_count = cluster.link.comm_sm_count;
  setup.element_size = 2;
  const int width = std::max(1, setup.gpu.sm_count - setup.comm_sm_count);
  const int tail_tiles = 1 + tail_seed % width;
  setup.gemm.tile = TileShape{128, 128};
  setup.gemm.tile_count = (waves - 1) * width + tail_tiles;
  setup.gemm.wave_time_us = wave_time_us;
  setup.gemm.duration_us = waves * wave_time_us + setup.gpu.kernel_launch_overhead_us;
  EXPECT_EQ(setup.EffectiveWaveCount(), waves);
  return setup;
}

struct MultiRankBest {
  WavePartition base;
  double latency_us = std::numeric_limits<double>::infinity();
  size_t replays = 0;
};

// The rendezvous-replay reference the fused multi-rank search must match
// bit for bit: project every member of the full 2^(T-1) base space onto
// each rank, score the projectable ones with the full multi-rank timeline
// replay, break latency ties toward the lexicographically smallest base.
MultiRankBest ScoreExhaustivelyMultiRank(const std::vector<PredictorSetup>& setups,
                                         int base_waves) {
  MultiRankBest best;
  for (const WavePartition& base : EnumerateAllPartitions(base_waves)) {
    std::vector<WavePartition> projected;
    projected.reserve(setups.size());
    bool feasible = true;
    for (const PredictorSetup& setup : setups) {
      std::optional<WavePartition> partition =
          ProjectPartition(base, base_waves, setup.EffectiveWaveCount());
      if (!partition.has_value()) {
        feasible = false;
        break;
      }
      projected.push_back(*std::move(partition));
    }
    if (!feasible) {
      continue;
    }
    ++best.replays;
    const double latency = PredictOverlapLatencyMultiRank(setups, projected).latency_us;
    if (latency < best.latency_us ||
        (latency == best.latency_us &&
         std::lexicographical_compare(base.group_sizes.begin(), base.group_sizes.end(),
                                      best.base.group_sizes.begin(),
                                      best.base.group_sizes.end()))) {
      best.base = base;
      best.latency_us = latency;
    }
  }
  return best;
}

// Acceptance gate (ISSUE 5): the fused multi-rank branch-and-bound returns
// the same best base composition and the bit-identical predicted latency
// as exhaustively scoring the rendezvous replay — every base wave count
// <= 12 x {2, 4, 8} ranks x all four primitives.
TEST(MultiRankPartitionSearchTest, MatchesExhaustiveRendezvousReplayBitExactly) {
  const ClusterSpec cluster = MakeA800Cluster(4);
  Tuner tuner(cluster);
  MultiRankPartitionSearcher searcher;
  PartitionSearchOptions options;
  options.bounded = false;
  const double wave_times[] = {0.8, 6.0, 45.0};
  for (const CommPrimitive primitive : kAllPrimitives) {
    const Curve& curve = tuner.LatencyCurveFor(primitive);
    for (const int ranks : {2, 4, 8}) {
      for (int base_waves = 1; base_waves <= 12; ++base_waves) {
        std::vector<PredictorSetup> setups;
        for (int r = 0; r < ranks; ++r) {
          // Rank 0 is the deepest; lighter ranks shed waves and flip
          // between compute- and comm-bound regimes.
          const int waves = std::max(1, base_waves - r);
          setups.push_back(MakeRankSetup(cluster, curve, waves, base_waves * 37 + r * 11,
                                         wave_times[(base_waves + r) % 3], primitive));
        }
        const MultiRankBest expected = ScoreExhaustivelyMultiRank(setups, base_waves);
        const MultiRankLatencyTable tables = BuildMultiRankLatencyTable(setups);
        ASSERT_EQ(tables.base_waves, base_waves);
        const MultiRankSearchResult result = searcher.Search(tables, options);
        ASSERT_EQ(result.predicted_us, expected.latency_us)
            << "base_waves=" << base_waves << " ranks=" << ranks
            << " primitive=" << CommPrimitiveName(primitive);
        ASSERT_EQ(result.base.group_sizes, expected.base.group_sizes)
            << "base_waves=" << base_waves << " ranks=" << ranks
            << " primitive=" << CommPrimitiveName(primitive) << " got "
            << result.base.ToString() << " want " << expected.base.ToString();
        EXPECT_FALSE(result.budget_exhausted);
      }
    }
  }
}

// Bounded-space counterpart of the gate above for the joint search, seeded
// like Tuner::TuneImbalanced with the deepest rank's single-rank plan: brute
// force scores every projectable member of the bounded space, the safety
// seeds and that seed with the rendezvous replay.
TEST(MultiRankPartitionSearchTest, BoundedSearchMatchesBruteForceOverTheBoundedSpace) {
  const ClusterSpec cluster = MakeA800Cluster(4);
  Tuner tuner(cluster);
  MultiRankPartitionSearcher searcher;
  PartitionSearcher rank_searcher;
  const PartitionSearchOptions options;
  const double wave_times[] = {0.8, 6.0, 45.0};
  for (const CommPrimitive primitive : kAllPrimitives) {
    const Curve& curve = tuner.LatencyCurveFor(primitive);
    for (const int ranks : {2, 4}) {
      for (int base_waves = 1; base_waves <= 12; ++base_waves) {
        std::vector<PredictorSetup> setups;
        for (int r = 0; r < ranks; ++r) {
          const int waves = std::max(1, base_waves - 2 * r);
          setups.push_back(MakeRankSetup(cluster, curve, waves, base_waves * 23 + r * 7,
                                         wave_times[(base_waves + r) % 3], primitive));
        }
        const MultiRankLatencyTable tables = BuildMultiRankLatencyTable(setups);
        const WavePartition seed = rank_searcher.Search(tables.ranks[0], options).partition;
        std::vector<WavePartition> space = BoundedSpace(base_waves, options.s1, options.sp);
        space.push_back(seed);
        WavePartition expected;
        double expected_us = std::numeric_limits<double>::infinity();
        for (const WavePartition& base : space) {
          std::vector<WavePartition> projected;
          for (const PredictorSetup& setup : setups) {
            std::optional<WavePartition> partition =
                ProjectPartition(base, base_waves, setup.EffectiveWaveCount());
            if (!partition.has_value()) {
              break;
            }
            projected.push_back(*std::move(partition));
          }
          if (projected.size() == setups.size()) {
            ConsiderForBest(base, PredictOverlapLatencyMultiRank(setups, projected).latency_us,
                            &expected, &expected_us);
          }
        }
        const MultiRankSearchResult result = searcher.Search(tables, options, &seed);
        ASSERT_EQ(result.predicted_us, expected_us)
            << "base_waves=" << base_waves << " ranks=" << ranks
            << " primitive=" << CommPrimitiveName(primitive);
        ASSERT_EQ(result.base.group_sizes, expected.group_sizes)
            << "base_waves=" << base_waves << " ranks=" << ranks
            << " primitive=" << CommPrimitiveName(primitive) << " got "
            << result.base.ToString() << " want " << expected.ToString();
      }
    }
  }
}

TEST(MultiRankPartitionSearchTest, RandomizedImbalancedShapeSetsMatchTheReplay) {
  const ClusterSpec cluster = MakeA800Cluster(4);
  Tuner tuner(cluster);
  MultiRankPartitionSearcher searcher;
  PartitionSearchOptions options;
  options.bounded = false;
  Rng rng(20260726);
  for (int trial = 0; trial < 12; ++trial) {
    const CommPrimitive primitive = kAllPrimitives[trial % 4];
    const Curve& curve = tuner.LatencyCurveFor(primitive);
    const int ranks = 2 + static_cast<int>(rng.NextBelow(5));
    const int base_waves = 4 + static_cast<int>(rng.NextBelow(9));  // 4..12
    std::vector<PredictorSetup> setups;
    for (int r = 0; r < ranks; ++r) {
      // One rank pinned at the base depth; the rest draw uniformly.
      const int waves =
          r == 0 ? base_waves : 1 + static_cast<int>(rng.NextBelow(base_waves));
      setups.push_back(MakeRankSetup(cluster, curve, waves,
                                     static_cast<int>(rng.NextBelow(1000)),
                                     rng.NextDouble(0.5, 50.0), primitive));
    }
    const MultiRankBest expected = ScoreExhaustivelyMultiRank(setups, base_waves);
    const MultiRankSearchResult result =
        searcher.Search(BuildMultiRankLatencyTable(setups), options);
    ASSERT_EQ(result.predicted_us, expected.latency_us) << "trial " << trial;
    ASSERT_EQ(result.base.group_sizes, expected.base.group_sizes)
        << "trial " << trial << " got " << result.base.ToString() << " want "
        << expected.base.ToString();
  }
}

TEST(MultiRankPartitionSearchTest, ReuseAcrossShrinkingRankCountsStaysExact) {
  // Regression (heap-buffer-overflow, caught under ASan): the dominance
  // buffers are retained across searches and their strides differ (prevs:
  // R ints, vals: R+1 doubles), so a searcher reused for FEWER ranks than
  // a prior search must re-guard each buffer by its own stride. The old
  // guard checked only prevs, and this seeded many-rank -> few-rank
  // sequence reaches the window where prevs capacity suffices while a
  // vals entry lands past its allocation (trial 2: a 6-rank base-22
  // search followed by a 2-rank base-24 search).
  const ClusterSpec cluster = MakeA800Cluster(4);
  Tuner tuner(cluster);
  const Curve& curve = tuner.LatencyCurveFor(CommPrimitive::kAllToAll);
  PartitionSearchOptions options;
  options.bounded = false;
  Rng rng(7);
  for (int trial = 0; trial < 3; ++trial) {
    MultiRankPartitionSearcher reused;
    for (int phase = 0; phase < 2; ++phase) {
      const int base = 10 + static_cast<int>(rng.NextBelow(15));
      const int ranks = phase == 0 ? 4 + static_cast<int>(rng.NextBelow(5))
                                   : 2 + static_cast<int>(rng.NextBelow(2));
      std::vector<PredictorSetup> setups;
      for (int r = 0; r < ranks; ++r) {
        const int waves = r == 0 ? base : 1 + static_cast<int>(rng.NextBelow(base));
        setups.push_back(MakeRankSetup(cluster, curve, waves,
                                       static_cast<int>(rng.NextBelow(1000)),
                                       rng.NextDouble(0.3, 80.0),
                                       CommPrimitive::kAllToAll));
      }
      const MultiRankLatencyTable tables = BuildMultiRankLatencyTable(setups);
      const MultiRankSearchResult result = reused.Search(tables, options);
      // A fresh searcher is the ground truth: buffer reuse must never
      // change the winner (corrupted dominance entries would fabricate
      // dominating prefixes and prune valid ones).
      MultiRankPartitionSearcher fresh;
      const MultiRankSearchResult expected = fresh.Search(tables, options);
      ASSERT_EQ(result.predicted_us, expected.predicted_us)
          << "trial " << trial << " phase " << phase;
      ASSERT_EQ(result.base.group_sizes, expected.base.group_sizes)
          << "trial " << trial << " phase " << phase;
    }
  }
}

TEST(MultiRankPartitionSearchTest, SeedOnlyTightensTheIncumbentNeverTheResult) {
  // Searching with and without the heaviest-rank seed must return the
  // identical winner (the seed is in-space); the seeded run can only visit
  // fewer nodes.
  const ClusterSpec cluster = MakeA800Cluster(4);
  Tuner tuner(cluster);
  const Curve& curve = tuner.LatencyCurveFor(CommPrimitive::kAllToAll);
  std::vector<PredictorSetup> setups;
  for (int r = 0; r < 4; ++r) {
    setups.push_back(MakeRankSetup(cluster, curve, 12 - 2 * r, 17 + r, 4.0 + 3.0 * r,
                                   CommPrimitive::kAllToAll));
  }
  const MultiRankLatencyTable tables = BuildMultiRankLatencyTable(setups);
  PartitionSearchOptions options;
  options.bounded = false;
  MultiRankPartitionSearcher searcher;
  const MultiRankSearchResult unseeded = searcher.Search(tables, options);
  PartitionSearcher rank_searcher;
  const WavePartition seed = rank_searcher.Search(tables.ranks[0], options).partition;
  const MultiRankSearchResult seeded = searcher.Search(tables, options, &seed);
  EXPECT_EQ(seeded.predicted_us, unseeded.predicted_us);
  EXPECT_EQ(seeded.base.group_sizes, unseeded.base.group_sizes);
  EXPECT_LE(seeded.nodes_visited, unseeded.nodes_visited);
}

TEST(MultiRankTuningTest, TuneImbalancedIsSingleFlightedAndDeterministic) {
  const std::vector<GemmShape> shapes{
      GemmShape{8192, 4096, 2048}, GemmShape{6144, 4096, 2048},
      GemmShape{4096, 4096, 2048}, GemmShape{2048, 4096, 2048}};
  Tuner serial(MakeA800Cluster(4));
  const TunedMultiRankPlan plan = serial.TuneImbalanced(shapes, CommPrimitive::kAllToAll);
  EXPECT_EQ(serial.search_count(), 1u);
  EXPECT_TRUE(serial.ContainsImbalanced(shapes, CommPrimitive::kAllToAll));

  Tuner shared(MakeA800Cluster(4));
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&shared, &shapes] {
      shared.TuneImbalanced(shapes, CommPrimitive::kAllToAll);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(shared.search_count(), 1u) << "concurrent same-key tunes must single-flight";
  const TunedMultiRankPlan& concurrent =
      shared.TuneImbalanced(shapes, CommPrimitive::kAllToAll);
  EXPECT_EQ(concurrent.base.group_sizes, plan.base.group_sizes);
  EXPECT_EQ(concurrent.predicted_us, plan.predicted_us);

  // Rank order is execution detail: a permuted multiset is the same key.
  std::vector<GemmShape> permuted{shapes[2], shapes[0], shapes[3], shapes[1]};
  EXPECT_TRUE(shared.ContainsImbalanced(permuted, CommPrimitive::kAllToAll));
  shared.TuneImbalanced(permuted, CommPrimitive::kAllToAll);
  EXPECT_EQ(shared.search_count(), 1u);
}

std::vector<ScenarioSpec> DeterminismSpecs() {
  std::vector<ScenarioSpec> specs;
  for (int64_t m : {1024, 2048, 3072, 4096, 6144, 8192}) {
    specs.push_back(ScenarioSpec::Overlap(GemmShape{m, 8192, 4096},
                                          CommPrimitive::kAllReduce));
    specs.push_back(ScenarioSpec::Overlap(GemmShape{m, 4096, 8192},
                                          CommPrimitive::kReduceScatter));
  }
  return specs;
}

TEST(ParallelTuningTest, ConcurrentTunesMatchSerialAndSearchEachKeyOnce) {
  const std::vector<ScenarioSpec> specs = DeterminismSpecs();
  Tuner serial(MakeA800Cluster(4));
  for (const ScenarioSpec& spec : specs) {
    serial.Tune(spec.shapes[0], spec.primitive);
  }
  // Four threads walk the same keys from different starting points, so
  // most keys are requested by two threads at once.
  Tuner shared(MakeA800Cluster(4));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&shared, &specs, t] {
      for (size_t i = 0; i < specs.size(); ++i) {
        const ScenarioSpec& spec = specs[(i + 3 * t) % specs.size()];
        shared.Tune(spec.shapes[0], spec.primitive);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // Single-flight keeps the search count exact — one search per distinct
  // (shape, primitive) — and the cached plans equal the serial ones.
  EXPECT_EQ(shared.search_count(), specs.size());
  EXPECT_EQ(serial.search_count(), specs.size());
  EXPECT_EQ(shared.ExportPlans(), serial.ExportPlans());
}

TEST(ParallelTuningTest, ServeLoopPlansAreIdenticalAcrossTunerLanes) {
  const std::vector<ScenarioSpec> specs = DeterminismSpecs();
  const auto arrivals = PoissonArrivals(/*mean_interarrival_us=*/300.0, /*count=*/48,
                                        /*seed=*/7);
  const std::vector<ServeRequest> trace = MakeRequestStream("tenant", specs, arrivals, 0);

  ServeConfig single_lane;
  ServeConfig quad_lane;
  quad_lane.tuner_lanes = 4;

  OverlapEngine engine_single(MakeA800Cluster(4), {}, EngineOptions{.jitter = false});
  OverlapEngine engine_quad(MakeA800Cluster(4), {}, EngineOptions{.jitter = false});
  ServeLoop loop_single(&engine_single, single_lane);
  ServeLoop loop_quad(&engine_quad, quad_lane);
  const ServeReport report_single = loop_single.Run(trace);
  const ServeReport report_quad = loop_quad.Run(trace);

  EXPECT_EQ(report_single.stats.count(), report_quad.stats.count());
  // Identical plans regardless of lane count; only the timeline may move.
  EXPECT_EQ(engine_single.tuner().ExportPlans(), engine_quad.tuner().ExportPlans());
  EXPECT_EQ(engine_single.tuner().search_count(), engine_quad.tuner().search_count());
  // With every key distinct and cold, extra lanes overlap more tuning, so
  // total tuner-lane busy time is identical while makespan cannot explode.
  EXPECT_EQ(report_single.cold_batches, report_quad.cold_batches);
}

}  // namespace
}  // namespace flo
