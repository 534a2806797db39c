#include <gtest/gtest.h>

#include <vector>

#include "src/comm/cost_model.h"
#include "src/comm/ring_transport.h"
#include "src/core/schedule_executor.h"
#include "src/hw/cluster.h"

namespace flo {
namespace {

TEST(RingStepCountTest, MatchesRingAlgebra) {
  EXPECT_EQ(RingStepCount(CommPrimitive::kAllReduce, 4), 6);
  EXPECT_EQ(RingStepCount(CommPrimitive::kReduceScatter, 4), 3);
  EXPECT_EQ(RingStepCount(CommPrimitive::kAllGather, 8), 7);
  EXPECT_EQ(RingStepCount(CommPrimitive::kAllToAll, 2), 1);
}

TEST(RingStepTimeTest, ScalesWithChunkSize) {
  const InterconnectSpec link = MakeNvlinkA800();
  const double msg = 64.0 * 1024 * 1024;
  EXPECT_LT(RingStepTime(link, msg, msg / 8), RingStepTime(link, msg, msg / 2));
  EXPECT_GE(RingStepTime(link, msg, 1024.0), link.base_latency_us);
}

// Replays a one-group plan moving `bytes` per rank through the stepwise
// ring transport and returns the group's trace.
GroupTrace ReplayRingGroup(const ClusterSpec& cluster, CommPrimitive primitive, double bytes) {
  GemmConfig config;
  config.tile_count = 2 * cluster.gpu.sm_count;
  config.wave_time_us = 10.0;
  ExecutionPlan plan;
  plan.primitive = primitive;
  plan.partition = WavePartition::SingleGroup(2);
  plan.group_tiles.assign(cluster.gpu_count, {config.tile_count});
  plan.segments = {CommSegment{0, bytes, 0.0}};
  ScheduleExecutor executor(cluster);
  const OverlapRun run = executor.ExecuteOverlap(
      plan, std::vector<GemmConfig>(cluster.gpu_count, config),
      EngineOptions{.jitter = false, .detailed_comm = true}, 1);
  return run.groups.at(0);
}

class RingVsAnalyticTest
    : public ::testing::TestWithParam<std::tuple<CommPrimitive, int, double>> {};

TEST_P(RingVsAnalyticTest, StepwiseSumMatchesClosedForm) {
  // The mechanistic transport must reproduce the analytic cost model the
  // tuner interpolates — otherwise the predictor would be validated
  // against a different machine than the one it predicts.
  const auto [primitive, gpus, mib] = GetParam();
  const ClusterSpec cluster = Make4090Cluster(gpus);
  const InterconnectSpec& link = cluster.link;
  const double bytes = mib * 1024 * 1024;

  const GroupTrace group = ReplayRingGroup(cluster, primitive, bytes);
  const double stepwise = group.comm_end - group.comm_start;

  // The replayed span is exactly the call overhead plus every ring step.
  const int steps = RingStepCount(primitive, gpus);
  const double chunk = WireFactor(primitive, gpus) * bytes / steps;
  double expected = link.call_overhead_us;
  for (int step = 0; step < steps; ++step) {
    expected += RingStepTime(link, bytes, chunk);
  }
  EXPECT_NEAR(stepwise, expected, 1e-9 * expected);

  CommCostModel model(link, gpus);
  const double analytic = model.LatencyUs(primitive, bytes);
  EXPECT_NEAR(stepwise, analytic, 0.02 * analytic)
      << CommPrimitiveName(primitive) << " " << gpus << " GPUs " << mib << " MiB";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RingVsAnalyticTest,
    ::testing::Combine(::testing::Values(CommPrimitive::kAllReduce,
                                         CommPrimitive::kReduceScatter,
                                         CommPrimitive::kAllGather,
                                         CommPrimitive::kAllToAll),
                       ::testing::Values(2, 4, 8), ::testing::Values(1.0, 16.0, 256.0)));

}  // namespace
}  // namespace flo
