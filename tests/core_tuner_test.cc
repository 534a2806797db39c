#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/tuner.h"

namespace flo {
namespace {

std::string HexDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

TEST(TunerTest, OfflineArtifactsAreCached) {
  Tuner tuner(MakeA800Cluster(4));
  const GemmShape shape{4096, 8192, 4096};
  const GemmConfig& a = tuner.GemmConfigFor(shape);
  const GemmConfig& b = tuner.GemmConfigFor(shape);
  EXPECT_EQ(&a, &b) << "same shape must hit the cache";
  const Curve& c1 = tuner.LatencyCurveFor(CommPrimitive::kAllReduce);
  const Curve& c2 = tuner.LatencyCurveFor(CommPrimitive::kAllReduce);
  EXPECT_EQ(&c1, &c2);
}

TEST(TunerTest, SharedOfflineStageHoldsEachArtifactOnce) {
  Tuner owner(MakeA800Cluster(4));
  Tuner sharer(MakeA800Cluster(4));
  sharer.ShareOfflineStage(owner);
  const GemmShape shape{4096, 8192, 4096};
  EXPECT_EQ(&sharer.GemmConfigFor(shape), &owner.GemmConfigFor(shape));
  EXPECT_EQ(&sharer.LatencyCurveFor(CommPrimitive::kAllReduce),
            &owner.LatencyCurveFor(CommPrimitive::kAllReduce));
  // The plan caches stay per tuner.
  sharer.Tune(shape, CommPrimitive::kAllReduce);
  EXPECT_EQ(sharer.cache_size(), 1u);
  EXPECT_EQ(owner.cache_size(), 0u);
}

TEST(TunerDeathTest, SharingAStageAcrossClusterSpecsAborts) {
  Tuner owner(MakeA800Cluster(4));
  Tuner other_gpu(Make4090Cluster(4));
  Tuner other_count(MakeA800Cluster(8));
  EXPECT_DEATH(other_gpu.ShareOfflineStage(owner), "equal ClusterSpecs");
  EXPECT_DEATH(other_count.ShareOfflineStage(owner), "equal ClusterSpecs");
}

// A setup's curve is a copy of the stage's curve that shares its samples;
// it must evaluate bit-identically to a freshly sampled curve at the
// samples, between them and outside the sampled range.
TEST(TunerTest, CopiedCurveEvaluatesBitIdentically) {
  const ClusterSpec cluster = MakeA800Cluster(4);
  Tuner tuner(cluster);
  const Curve copy =
      tuner.MakeSetup(GemmShape{4096, 8192, 4096}, CommPrimitive::kAllReduce).latency_curve;
  EXPECT_EQ(&copy.points(), &tuner.LatencyCurveFor(CommPrimitive::kAllReduce).points())
      << "a setup must share the stage's samples, not copy them";
  const Curve fresh = CommCostModel(cluster.link, cluster.gpu_count)
                          .SampleLatencyCurve(CommPrimitive::kAllReduce, 64.0 * 1024,
                                              4.0 * 1024 * 1024 * 1024, 64);
  ASSERT_EQ(copy.points(), fresh.points());
  std::vector<double> queries = {copy.min_x() / 2, copy.max_x() * 2};
  const auto& samples = copy.points();
  for (size_t i = 0; i < samples.size(); ++i) {
    queries.push_back(samples[i].first);
    if (i + 1 < samples.size()) {
      queries.push_back((samples[i].first + samples[i + 1].first) / 2);
    }
  }
  size_t copy_hint = 0;
  size_t fresh_hint = 0;
  for (const double x : queries) {
    SCOPED_TRACE(HexDouble(x));
    EXPECT_EQ(HexDouble(copy.Eval(x)), HexDouble(fresh.Eval(x)));
    EXPECT_EQ(HexDouble(copy.Eval(x, &copy_hint)), HexDouble(fresh.Eval(x, &fresh_hint)));
  }
}

// Two tuners on one stage tune distinct keys from two threads while a
// third thread reads GEMM configurations: the stage's own lock must keep
// this race-free (the TSan job runs this binary).
TEST(TunerTest, SharedStageIsThreadSafe) {
  Tuner owner(MakeA800Cluster(4));
  Tuner sharer(MakeA800Cluster(4));
  sharer.ShareOfflineStage(owner);
  const std::vector<GemmShape> shapes = {
      {2048, 8192, 4096}, {4096, 8192, 4096}, {8192, 8192, 4096}, {3072, 8192, 4096}};
  auto tune = [&shapes](Tuner* tuner, CommPrimitive primitive) {
    for (const GemmShape& shape : shapes) {
      tuner->Tune(shape, primitive);
    }
  };
  std::thread a(tune, &owner, CommPrimitive::kAllReduce);
  std::thread b(tune, &sharer, CommPrimitive::kReduceScatter);
  std::thread c([&owner, &shapes] {
    for (int round = 0; round < 4; ++round) {
      for (const GemmShape& shape : shapes) {
        owner.GemmConfigFor(shape);
      }
    }
  });
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(owner.cache_size(), shapes.size());
  EXPECT_EQ(sharer.cache_size(), shapes.size());
  Tuner solo(MakeA800Cluster(4));
  for (const GemmShape& shape : shapes) {
    EXPECT_EQ(&owner.GemmConfigFor(shape), &sharer.GemmConfigFor(shape));
    EXPECT_EQ(sharer.Tune(shape, CommPrimitive::kReduceScatter).partition,
              solo.Tune(shape, CommPrimitive::kReduceScatter).partition);
  }
}

TEST(TunerTest, TunedPartitionCoversEffectiveWaves) {
  Tuner tuner(Make4090Cluster(4));
  const TunedPlan& plan = tuner.Tune(GemmShape{4096, 8192, 8192},
                                     CommPrimitive::kAllReduce);
  EXPECT_TRUE(plan.partition.Valid(plan.effective_waves));
  EXPECT_GT(plan.candidates_evaluated, 1);
  EXPECT_GT(plan.predicted_us, 0.0);
}

TEST(TunerTest, TunedPlanBeatsSingleGroupAndPerWave) {
  Tuner tuner(Make4090Cluster(4));
  const GemmShape shape{4096, 8192, 8192};
  const TunedPlan& plan = tuner.Tune(shape, CommPrimitive::kAllReduce);
  PredictorSetup setup = tuner.MakeSetup(shape, CommPrimitive::kAllReduce);
  const double single =
      PredictOverlapLatency(setup, WavePartition::SingleGroup(plan.effective_waves)).latency_us;
  const double per_wave =
      PredictOverlapLatency(setup, WavePartition::PerWave(plan.effective_waves)).latency_us;
  EXPECT_LE(plan.predicted_us, single);
  EXPECT_LE(plan.predicted_us, per_wave);
}

TEST(TunerTest, PrunedSearchIsNearOptimalOnSmallSpaces) {
  // Paper claim (Sec. 6.5 / AE C2): pruned predictive search reaches >99%
  // of the exhaustive optimum.
  TunerConfig pruned_config;
  TunerConfig exhaustive_config;
  exhaustive_config.exhaustive = true;
  const GemmShape shape{2048, 8192, 8192};
  for (auto make_cluster : {Make4090Cluster, MakeA800Cluster}) {
    Tuner pruned(make_cluster(4), pruned_config);
    Tuner exhaustive(make_cluster(4), exhaustive_config);
    const TunedPlan& p = pruned.Tune(shape, CommPrimitive::kAllReduce);
    const TunedPlan& e = exhaustive.Tune(shape, CommPrimitive::kAllReduce);
    if (p.effective_waves <= 20) {
      EXPECT_LE(p.predicted_us, e.predicted_us / 0.99)
          << "pruned search must be within 1% of exhaustive";
    }
  }
}

TEST(TunerTest, PlanCacheGrowsOncePerShape) {
  Tuner tuner(MakeA800Cluster(4));
  EXPECT_EQ(tuner.cache_size(), 0u);
  tuner.Tune(GemmShape{2048, 8192, 4096}, CommPrimitive::kAllReduce);
  EXPECT_EQ(tuner.cache_size(), 1u);
  tuner.Tune(GemmShape{2048, 8192, 4096}, CommPrimitive::kAllReduce);
  EXPECT_EQ(tuner.cache_size(), 1u);
  tuner.Tune(GemmShape{2048, 8192, 4096}, CommPrimitive::kReduceScatter);
  EXPECT_EQ(tuner.cache_size(), 2u);
}

TEST(TunerTest, NearestNeighbourServesUnseenShapes) {
  Tuner tuner(MakeA800Cluster(4));
  // Pre-search representative sizes (the paper's strategy for dynamic
  // workloads).
  tuner.Tune(GemmShape{2048, 8192, 4096}, CommPrimitive::kAllReduce);
  tuner.Tune(GemmShape{8192, 8192, 4096}, CommPrimitive::kAllReduce);
  const size_t cached = tuner.cache_size();
  const TunedPlan plan =
      tuner.TuneNearest(GemmShape{2304, 8192, 4096}, CommPrimitive::kAllReduce);
  EXPECT_EQ(tuner.cache_size(), cached) << "nearest-neighbour must not search";
  EXPECT_TRUE(plan.partition.Valid(plan.effective_waves));
  EXPECT_EQ(plan.candidates_evaluated, 1);
  // The matched plan should not be catastrophically worse than a real
  // search on the same shape.
  Tuner fresh(MakeA800Cluster(4));
  const TunedPlan& searched =
      fresh.Tune(GemmShape{2304, 8192, 4096}, CommPrimitive::kAllReduce);
  EXPECT_LT(plan.predicted_us, 1.25 * searched.predicted_us);
}

TEST(TunerTest, NearestNeighbourFallsBackToSearchOnEmptyCache) {
  Tuner tuner(MakeA800Cluster(4));
  const TunedPlan plan =
      tuner.TuneNearest(GemmShape{4096, 8192, 4096}, CommPrimitive::kAllReduce);
  EXPECT_GT(plan.candidates_evaluated, 1);
}

TEST(TunerTest, FirstAndLastGroupBoundsHold) {
  Tuner tuner(Make4090Cluster(4));
  for (int64_t m : {1024, 2048, 4096, 8192}) {
    const TunedPlan& plan = tuner.Tune(GemmShape{m, 8192, 8192},
                                       CommPrimitive::kAllReduce);
    const auto& sizes = plan.partition.group_sizes;
    const bool is_single = plan.partition.group_count() == 1;
    const bool is_equal_sized =
        sizes == WavePartition::EqualSized(plan.partition.TotalWaves(), sizes.front())
                     .group_sizes;
    if (is_single || is_equal_sized) {
      continue;  // safety families outside the (s1, sp) bounds
    }
    EXPECT_LE(sizes.front(), tuner.config().s1) << "m=" << m;
    EXPECT_LE(sizes.back(), tuner.config().sp) << "m=" << m;
  }
}

}  // namespace
}  // namespace flo
