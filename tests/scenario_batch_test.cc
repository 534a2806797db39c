// Batch execution and plan caching: a sweep runs many ScenarioSpecs
// through one shared executor, memoizing ExecutionPlans in the PlanStore
// keyed by the planner's canonical scenario hash. A warm sweep must be
// served entirely from the cache — zero tuner searches in-band, exactly
// the paper's "prepare once, serve many" deployment contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>

#include "src/core/overlap_engine.h"
#include "src/models/shapes.h"

namespace flo {
namespace {

EngineOptions NoJitter() {
  EngineOptions options;
  options.jitter = false;
  return options;
}

// A sweep: each spec through Execute, in order.
std::vector<OverlapRun> ExecuteEach(OverlapEngine& engine, std::span<const ScenarioSpec> specs) {
  std::vector<OverlapRun> runs;
  for (const ScenarioSpec& spec : specs) {
    runs.push_back(engine.Execute(spec));
  }
  return runs;
}

// The Fig. 11 typical-shape set, as overlap + non-overlap scenario pairs.
std::vector<ScenarioSpec> Fig11Specs() {
  std::vector<ScenarioSpec> specs;
  for (const auto& shape : TypicalRsShapes()) {
    specs.push_back(ScenarioSpec::Overlap(shape, CommPrimitive::kReduceScatter));
    specs.push_back(ScenarioSpec::NonOverlap(shape, CommPrimitive::kReduceScatter));
  }
  return specs;
}

TEST(RunBatchTest, WarmSweepPerformsZeroTunerSearches) {
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const std::vector<ScenarioSpec> specs = Fig11Specs();

  const std::vector<OverlapRun> cold = ExecuteEach(engine, specs);
  const size_t cold_searches = engine.tuner().search_count();
  EXPECT_GT(cold_searches, 0u);
  EXPECT_EQ(engine.planner().stats().cache_misses, specs.size());
  EXPECT_EQ(engine.plan_store().size(), specs.size());

  engine.planner().ResetStats();
  const std::vector<OverlapRun> warm = ExecuteEach(engine, specs);
  EXPECT_EQ(engine.tuner().search_count(), cold_searches)
      << "warm sweep must not search";
  EXPECT_EQ(engine.planner().stats().cache_hits, specs.size());
  EXPECT_EQ(engine.planner().stats().cache_misses, 0u);

  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_DOUBLE_EQ(cold[i].total_us, warm[i].total_us) << "spec " << i;
    // Per-spec cache behaviour is reported in the result struct itself.
    EXPECT_FALSE(cold[i].plan_cache_hit) << "spec " << i;
    EXPECT_TRUE(warm[i].plan_cache_hit) << "spec " << i;
  }
}

TEST(RunBatchTest, MixedScenarioKindsShareOneBatch) {
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const GemmShape shape{4096, 8192, 4096};
  const std::vector<GemmShape> imbalanced{
      GemmShape{8192, 8192, 1024}, GemmShape{10240, 8192, 1024},
      GemmShape{12288, 8192, 1024}, GemmShape{16384, 8192, 1024}};
  const std::vector<ScenarioSpec> specs{
      ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce),
      ScenarioSpec::NonOverlap(shape, CommPrimitive::kAllReduce),
      ScenarioSpec::Misconfigured(shape, CommPrimitive::kAllReduce, 12),
      ScenarioSpec::Imbalanced(imbalanced, CommPrimitive::kAllToAll),
      ScenarioSpec::NonOverlapImbalanced(imbalanced, CommPrimitive::kAllToAll),
  };
  const std::vector<OverlapRun> runs = ExecuteEach(engine, specs);
  ASSERT_EQ(runs.size(), specs.size());
  for (const OverlapRun& run : runs) {
    EXPECT_GT(run.total_us, 0.0);
  }
  // Overlap beats its baseline; misconfiguration never beats the tuned run.
  EXPECT_LT(runs[0].total_us, runs[1].total_us);
  EXPECT_GE(runs[2].total_us, runs[0].total_us);
  EXPECT_LT(runs[3].total_us, runs[4].total_us);
}

TEST(PretuneImbalancedTest, SpecsSharingAHeaviestRankDoNotCollide) {
  // Regression: TuningRequest used to reduce an imbalanced spec to its
  // heaviest rank, so these two specs named one search and the second was
  // mis-warmed (its plan still searched in-band). Keyed by the canonical
  // rank-shape multiset they are distinct searches.
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const GemmShape heavy{16384, 8192, 1024};
  const GemmShape light{2048, 8192, 1024};
  const std::vector<ScenarioSpec> specs{
      ScenarioSpec::Imbalanced({heavy, light, light, light}, CommPrimitive::kAllToAll),
      ScenarioSpec::Imbalanced({heavy, GemmShape{8192, 8192, 1024},
                                GemmShape{8192, 8192, 1024}, GemmShape{8192, 8192, 1024}},
                               CommPrimitive::kAllToAll),
  };
  const auto first = engine.planner().TuningRequest(specs[0]);
  const auto second = engine.planner().TuningRequest(specs[1]);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*first, *second) << "distinct light ranks must be distinct searches";
  // Rank order never splits the key.
  const ScenarioSpec reordered =
      ScenarioSpec::Imbalanced({light, heavy, light, light}, CommPrimitive::kAllToAll);
  EXPECT_EQ(engine.planner().TuningRequest(reordered), first);

  // A sweep runs each multiset's search once.
  ExecuteEach(engine, specs);
  EXPECT_EQ(engine.tuner().search_count(), 2u);
  engine.Execute(reordered);
  EXPECT_EQ(engine.tuner().search_count(), 2u);
}

TEST(PlanCacheKeyTest, DistinctScenariosGetDistinctKeys) {
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  OverlapPlanner& planner = engine.planner();
  const GemmShape shape{4096, 8192, 4096};
  const ScenarioSpec overlap = ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce);
  const ScenarioSpec non_overlap = ScenarioSpec::NonOverlap(shape, CommPrimitive::kAllReduce);
  const ScenarioSpec misconfigured =
      ScenarioSpec::Misconfigured(shape, CommPrimitive::kAllReduce, 8);
  const ScenarioSpec other_primitive =
      ScenarioSpec::Overlap(shape, CommPrimitive::kReduceScatter);
  EXPECT_NE(planner.CanonicalKey(overlap), planner.CanonicalKey(non_overlap));
  EXPECT_NE(planner.CanonicalKey(overlap), planner.CanonicalKey(misconfigured));
  EXPECT_NE(planner.CanonicalKey(overlap), planner.CanonicalKey(other_primitive));
  // Execution-only options do not change the plan key: one plan serves
  // every EngineOptions mix.
  ScenarioSpec polled = overlap;
  EngineOptions options = NoJitter();
  options.signal_poll_interval_us = 25.0;
  polled.options = options;
  EXPECT_EQ(planner.CanonicalKey(overlap), planner.CanonicalKey(polled));
}

// Stored and shipped plans are looked up by these bytes, so a refactor of
// the planner or the tuner config must keep every key value.
TEST(PlanCacheKeyTest, KeyValuesArePinned) {
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const OverlapPlanner& planner = engine.planner();
  const GemmShape shape{4096, 8192, 4096};
  const std::vector<GemmShape> imbalanced{
      GemmShape{2048, 4096, 7168}, GemmShape{3072, 4096, 7168},
      GemmShape{4096, 4096, 7168}, GemmShape{5120, 4096, 7168}};
  EXPECT_EQ(planner.CanonicalKey(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)),
            0xe4160c9e7df982cfull);
  EXPECT_EQ(planner.CanonicalKey(ScenarioSpec::NonOverlap(shape, CommPrimitive::kAllReduce)),
            0xc0587a8b9f7b1d74ull);
  EXPECT_EQ(planner.CanonicalKey(ScenarioSpec::Imbalanced(imbalanced, CommPrimitive::kAllToAll)),
            0xe548cbac6ae1ae9bull);
}

TEST(PlanCacheKeyTest, ClusterIdentityIsPartOfTheKey) {
  OverlapEngine a800(MakeA800Cluster(4), {}, NoJitter());
  OverlapEngine rtx(Make4090Cluster(4), {}, NoJitter());
  const ScenarioSpec spec =
      ScenarioSpec::Overlap(GemmShape{4096, 8192, 4096}, CommPrimitive::kAllReduce);
  EXPECT_NE(a800.planner().CanonicalKey(spec), rtx.planner().CanonicalKey(spec));
}

TEST(PlanStoreExecutionPlanTest, RoundTripKeyedByScenarioHash) {
  OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
  const GemmShape shape{4096, 8192, 4096};
  const std::vector<GemmShape> imbalanced{
      GemmShape{2048, 4096, 7168}, GemmShape{3072, 4096, 7168},
      GemmShape{4096, 4096, 7168}, GemmShape{5120, 4096, 7168}};
  engine.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce));
  engine.Execute(ScenarioSpec::NonOverlap(shape, CommPrimitive::kAllReduce));
  engine.Execute(ScenarioSpec::Misconfigured(shape, CommPrimitive::kAllReduce, 8));
  engine.Execute(ScenarioSpec::Imbalanced(imbalanced, CommPrimitive::kAllToAll));
  ASSERT_EQ(engine.plan_store().size(), 4u);

  const std::string text = engine.plan_store().Serialize();
  const auto parsed = PlanStore::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), engine.plan_store().size());
  for (const auto& [key, entry] : engine.plan_store().plans()) {
    const PlanStore::Handle restored = parsed->Find(key);
    ASSERT_NE(restored, nullptr) << "key " << key << " missing after round trip";
    EXPECT_EQ(*restored, *entry.plan);
  }
}

TEST(PlanStoreExecutionPlanTest, WarmStartFromDiskSkipsSearches) {
  const std::string path = ::testing::TempDir() + "/flo_execution_plans.txt";
  const ScenarioSpec spec =
      ScenarioSpec::Overlap(GemmShape{4096, 8192, 4096}, CommPrimitive::kAllReduce);
  OverlapRun cold_run;
  {
    OverlapEngine engine(MakeA800Cluster(4), {}, NoJitter());
    cold_run = engine.Execute(spec);
    ASSERT_TRUE(engine.plan_store().SaveToFile(path));
  }
  OverlapEngine warm(MakeA800Cluster(4), {}, NoJitter());
  const auto loaded = PlanStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.has_value());
  warm.plan_store() = *loaded;
  const OverlapRun warm_run = warm.Execute(spec);
  EXPECT_EQ(warm.tuner().search_count(), 0u) << "plan came from disk, not search";
  EXPECT_EQ(warm.planner().stats().cache_hits, 1u);
  EXPECT_DOUBLE_EQ(warm_run.total_us, cold_run.total_us);
  std::remove(path.c_str());
}

TEST(PlanStoreExecutionPlanTest, MalformedRecordsRejected) {
  EXPECT_FALSE(PlanStore::Parse("plan zzzz Overlap AllReduce 1,2 1.0 2.0\n").has_value());
  EXPECT_FALSE(PlanStore::Parse("tiles 1,2\n").has_value());
  EXPECT_FALSE(
      PlanStore::Parse("plan 0000000000000001 Overlap AllReduce 1,2 1.0 2.0\n").has_value());
  EXPECT_FALSE(
      PlanStore::Parse("plan 0000000000000001 Overlap Broadcast 1,2 1.0 2.0\nend\n")
          .has_value());
  EXPECT_TRUE(PlanStore::Parse("# just a comment\n").has_value());
}

}  // namespace
}  // namespace flo
