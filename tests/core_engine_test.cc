#include <gtest/gtest.h>

#include <memory>

#include "src/core/overlap_engine.h"

namespace flo {
namespace {

EngineOptions NoJitter() {
  EngineOptions options;
  options.jitter = false;
  return options;
}

TEST(OverlapEngineTest, RunsAndProducesOrderedGroupTraces) {
  OverlapEngine engine(Make4090Cluster(4), {}, NoJitter());
  const OverlapRun run = engine.Execute(ScenarioSpec::Overlap(GemmShape{4096, 8192, 8192},
                                           CommPrimitive::kAllReduce));
  EXPECT_GT(run.total_us, 0.0);
  EXPECT_GE(run.total_us, run.gemm_end_us);
  ASSERT_FALSE(run.groups.empty());
  for (size_t g = 0; g < run.groups.size(); ++g) {
    const GroupTrace& trace = run.groups[g];
    EXPECT_GT(trace.tiles, 0);
    EXPECT_GT(trace.bytes, 0.0);
    // Comm starts only after the signal; groups run in order.
    EXPECT_GE(trace.comm_start, trace.signal_time);
    EXPECT_GT(trace.comm_end, trace.comm_start);
    if (g > 0) {
      EXPECT_GE(trace.comm_start, run.groups[g - 1].comm_end);
      EXPECT_GE(trace.signal_time, run.groups[g - 1].signal_time);
    }
  }
}

TEST(OverlapEngineTest, OverlapBeatsNonOverlapOnBalancedShapes) {
  OverlapEngine engine(Make4090Cluster(4), {}, NoJitter());
  const GemmShape shape{4096, 8192, 8192};
  const double overlap = engine.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
  const double sequential = engine.Execute(ScenarioSpec::NonOverlap(shape, CommPrimitive::kAllReduce)).total_us;
  EXPECT_LT(overlap, sequential);
  // Paper range: up to 1.65x on 4090s; sanity-check we're in a plausible
  // band rather than wildly off.
  const double speedup = sequential / overlap;
  EXPECT_GT(speedup, 1.05);
  EXPECT_LT(speedup, 1.9);
}

TEST(OverlapEngineTest, NeverBeatsTheTheoreticalBound) {
  OverlapEngine engine(Make4090Cluster(4), {}, NoJitter());
  for (int64_t k : {2048, 4096, 8192, 16384}) {
    const GemmShape shape{4096, 8192, k};
    const double actual = engine.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
    const double bound = engine.TheoreticalBest(shape, CommPrimitive::kAllReduce);
    EXPECT_GE(actual, 0.98 * bound) << "k=" << k;
  }
}

TEST(OverlapEngineTest, ForcedPartitionIsHonored) {
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const GemmShape shape{4096, 8192, 4096};
  PredictorSetup setup = engine.tuner().MakeSetup(shape, CommPrimitive::kReduceScatter);
  const WavePartition forced = WavePartition::EqualSized(setup.EffectiveWaveCount(), 2);
  const OverlapRun run =
      engine.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kReduceScatter, &forced));
  EXPECT_EQ(run.partition.group_sizes, forced.group_sizes);
  EXPECT_EQ(run.groups.size(), static_cast<size_t>(forced.group_count()));
}

TEST(OverlapEngineTest, DeterministicAcrossRuns) {
  OverlapEngine a(Make4090Cluster(4));
  OverlapEngine b(Make4090Cluster(4));
  const GemmShape shape{2048, 8192, 8192};
  const double run_a = a.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
  const double run_b = b.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
  EXPECT_DOUBLE_EQ(run_a, run_b);
}

TEST(OverlapEngineTest, JitterOnlyEverSlowsThingsDown) {
  EngineOptions with_jitter;
  OverlapEngine jittered(Make4090Cluster(4), {}, with_jitter);
  OverlapEngine clean(Make4090Cluster(4), {}, NoJitter());
  const GemmShape shape{4096, 8192, 8192};
  EXPECT_GE(jittered.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us,
            clean.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us);
}

TEST(OverlapEngineTest, PredictionIsCloseToSimulatedActual) {
  // The core of the paper's Fig. 15 claim: single-digit average error.
  OverlapEngine engine(Make4090Cluster(4));
  const GemmShape shape{4096, 8192, 8192};
  const OverlapRun run = engine.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce));
  ASSERT_GT(run.predicted_us, 0.0);
  const double error = std::abs(run.total_us - run.predicted_us) / run.total_us;
  EXPECT_LT(error, 0.15);
}

TEST(OverlapEngineTest, ImbalancedRunNeverLosesToSequential) {
  // Deeply compute-bound imbalanced shapes may predict no overlap win; the
  // multi-rank gating then falls back to the sequential plan, so the run
  // can tie but never lose.
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const std::vector<GemmShape> shapes{
      GemmShape{2048, 4096, 7168}, GemmShape{3072, 4096, 7168},
      GemmShape{4096, 4096, 7168}, GemmShape{5120, 4096, 7168}};
  const OverlapRun run = engine.Execute(ScenarioSpec::Imbalanced(shapes, CommPrimitive::kAllToAll));
  EXPECT_GT(run.total_us, 0.0);
  const double sequential =
      engine.Execute(ScenarioSpec::NonOverlapImbalanced(shapes, CommPrimitive::kAllToAll)).total_us;
  EXPECT_LE(run.total_us, sequential * 1.0001);
}

TEST(OverlapEngineTest, ImbalancedRunWinsOnCommHeavyShapes) {
  // With a fatter output (N) and shallow K the A2A dominates and the
  // imbalanced overlap must show a real gain.
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const std::vector<GemmShape> shapes{
      GemmShape{8192, 8192, 1024}, GemmShape{10240, 8192, 1024},
      GemmShape{12288, 8192, 1024}, GemmShape{16384, 8192, 1024}};
  const OverlapRun run = engine.Execute(ScenarioSpec::Imbalanced(shapes, CommPrimitive::kAllToAll));
  const double sequential =
      engine.Execute(ScenarioSpec::NonOverlapImbalanced(shapes, CommPrimitive::kAllToAll)).total_us;
  EXPECT_LT(run.total_us, sequential);
  EXPECT_GT(run.groups.size(), 1u) << "the tuned plan should actually overlap here";
}

TEST(OverlapEngineTest, MemoHitKeepsTimingsButDropsTracesAndTimelines) {
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const ScenarioSpec spec =
      ScenarioSpec::Overlap(GemmShape{4096, 8192, 8192}, CommPrimitive::kAllReduce);
  const OverlapRun miss = engine.ExecuteMemoized(spec);
  EXPECT_FALSE(miss.groups.empty());
  EXPECT_FALSE(miss.comm_timeline.empty());
  const OverlapRun hit = engine.ExecuteMemoized(spec);
  EXPECT_EQ(hit.total_us, miss.total_us);
  EXPECT_EQ(hit.gemm_end_us, miss.gemm_end_us);
  EXPECT_TRUE(hit.groups.empty());
  EXPECT_TRUE(hit.gemm_timeline.empty());
  EXPECT_TRUE(hit.comm_timeline.empty());
}

TEST(OverlapEngineTest, SharedRunMemoReplaysAKeyOnceAcrossEngines) {
  const ScenarioSpec spec =
      ScenarioSpec::Overlap(GemmShape{4096, 8192, 8192}, CommPrimitive::kAllReduce);
  const auto memo = std::make_shared<RunMemo>();
  OverlapEngine first(MakeA800Cluster(4), {}, NoJitter());
  OverlapEngine second(MakeA800Cluster(4), {}, NoJitter());
  first.UseSharedRunMemo(memo);
  second.UseSharedRunMemo(memo);
  const OverlapRun replayed = first.ExecuteMemoized(spec);
  EXPECT_GT(first.executor().replay_events(), 0u);
  EXPECT_EQ(memo->size(), 1u);
  // The second engine's first run of the key is a memo hit: no replay, the
  // same timings, and its own store's lookup (a miss, built inline).
  const OverlapRun reused = second.ExecuteMemoized(spec);
  EXPECT_EQ(second.executor().replay_events(), 0u);
  EXPECT_TRUE(reused.groups.empty());
  EXPECT_EQ(reused.total_us, replayed.total_us);
  EXPECT_FALSE(reused.plan_cache_hit);
  EXPECT_EQ(second.planner().stats().cache_misses, 1u);
  EXPECT_EQ(second.run_memo_size(), 1u);
  // A store swap detaches the engine from the shared memo, not wipes it.
  second.UseSharedPlanStore(std::make_shared<PlanStore>());
  EXPECT_EQ(second.run_memo_size(), 0u);
  EXPECT_EQ(first.run_memo_size(), 1u);
  second.ExecuteMemoized(spec);
  EXPECT_GT(second.executor().replay_events(), 0u);
  EXPECT_EQ(second.run_memo_size(), 1u);
  EXPECT_EQ(memo->size(), 1u);
}

TEST(OverlapEngineTest, ImbalancedForcedSingleGroupCoversEveryTile) {
  // A degraded serving batch runs the safety plan, forced SingleGroup(1),
  // on whatever spec it carries. An imbalanced spec restates that base
  // over the heaviest rank's waves, so the one group holds every tile.
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const std::vector<GemmShape> shapes{
      GemmShape{2048, 4096, 1024}, GemmShape{3072, 4096, 1024},
      GemmShape{4096, 4096, 1024}, GemmShape{6144, 4096, 1024}};
  const WavePartition safety = WavePartition::SingleGroup(1);
  const OverlapRun run =
      engine.Execute(ScenarioSpec::Imbalanced(shapes, CommPrimitive::kAllToAll, &safety));
  ASSERT_EQ(run.groups.size(), 1u);
  EXPECT_EQ(run.partition.group_count(), 1);
  EXPECT_EQ(run.groups[0].tiles, engine.tuner().GemmConfigFor(shapes[0]).tile_count);
  // One group means no overlap: the collective follows the slowest GEMM.
  EXPECT_GE(run.groups[0].comm_start, run.gemm_end_us);
}

TEST(OverlapEngineTest, ImbalancedSlowestRankDominates) {
  OverlapEngine engine(MakeA800Cluster(2), {}, NoJitter());
  const std::vector<GemmShape> shapes{GemmShape{1024, 4096, 7168},
                                      GemmShape{8192, 4096, 7168}};
  const OverlapRun imbalanced = engine.Execute(ScenarioSpec::Imbalanced(shapes, CommPrimitive::kAllToAll));
  const OverlapRun heavy_only = engine.Execute(ScenarioSpec::Overlap(GemmShape{8192, 4096, 7168},
                                                  CommPrimitive::kAllToAll));
  EXPECT_GE(imbalanced.total_us, 0.9 * heavy_only.total_us);
}

TEST(OverlapEngineTest, GemmKeepsRunningWhileCommIsInFlight) {
  // Interference-free computation: the GEMM end time must be earlier than
  // the last group's comm end (comm tail), and at least one group's comm
  // must start before the GEMM ends (true overlap).
  OverlapEngine engine(Make4090Cluster(4), {}, NoJitter());
  const OverlapRun run = engine.Execute(ScenarioSpec::Overlap(GemmShape{4096, 8192, 8192},
                                           CommPrimitive::kAllReduce));
  EXPECT_LT(run.gemm_end_us, run.groups.back().comm_end);
  if (run.groups.size() > 1) {
    EXPECT_LT(run.groups.front().comm_start, run.gemm_end_us);
  }
}

class EnginePrimitiveTest : public ::testing::TestWithParam<CommPrimitive> {};

TEST_P(EnginePrimitiveTest, AllPrimitivesRunThroughTheSameEngine) {
  // Communication agnosticism: nothing in the engine is specialized per
  // primitive beyond the cost lookup.
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const GemmShape shape{4096, 8192, 4096};
  const OverlapRun run = engine.Execute(ScenarioSpec::Overlap(shape, GetParam()));
  EXPECT_GT(run.total_us, 0.0);
  EXPECT_LE(run.total_us, engine.Execute(ScenarioSpec::NonOverlap(shape, GetParam())).total_us * 1.02);
}

INSTANTIATE_TEST_SUITE_P(Primitives, EnginePrimitiveTest,
                         ::testing::Values(CommPrimitive::kAllReduce,
                                           CommPrimitive::kReduceScatter,
                                           CommPrimitive::kAllToAll,
                                           CommPrimitive::kAllGather));

}  // namespace
}  // namespace flo
