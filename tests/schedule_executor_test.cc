// ScheduleExecutor replay semantics: the collective rendezvous and the SM
// footprint a resident collective takes from the GEMM's waves.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/overlap_engine.h"
#include "src/core/schedule_executor.h"

namespace flo {
namespace {

TEST(ScheduleExecutorTest, CollectiveWaitsForEveryRanksSignal) {
  // Imbalanced expert loads: the heavy ranks signal later, and no group's
  // collective may start before its last rank's signal, nor before the
  // previous group's collective ends (one comm stream per rank).
  OverlapEngine engine(MakeA800Cluster(4), {}, EngineOptions{.jitter = false});
  const std::vector<GemmShape> shapes{
      GemmShape{8192, 8192, 1024}, GemmShape{10240, 8192, 1024}, GemmShape{12288, 8192, 1024},
      GemmShape{16384, 8192, 1024}};
  const OverlapRun run = engine.Execute(ScenarioSpec::Imbalanced(shapes, CommPrimitive::kAllToAll));
  ASSERT_GT(run.groups.size(), 1u);
  for (size_t g = 0; g < run.groups.size(); ++g) {
    const GroupTrace& group = run.groups[g];
    EXPECT_GT(group.signal_time, 0.0);
    EXPECT_GE(group.comm_start, group.signal_time) << "group " << g;
    EXPECT_GT(group.comm_end, group.comm_start) << "group " << g;
    if (g > 0) {
      EXPECT_GE(group.comm_start, run.groups[g - 1].comm_end) << "group " << g;
    }
  }
}

TEST(ScheduleExecutorTest, RendezvousStartsWhenTheSlowestRankSignals) {
  // Two ranks, one group per wave; rank 1's waves take three times as
  // long, so every collective starts exactly at rank 1's signal.
  const ClusterSpec cluster = MakeA800Cluster(2);
  const int width = cluster.gpu.sm_count - cluster.link.comm_sm_count;
  GemmConfig fast;
  fast.tile_count = 2 * width;
  fast.wave_time_us = 10.0;
  GemmConfig slow = fast;
  slow.wave_time_us = 30.0;
  ExecutionPlan plan;
  plan.partition = WavePartition::PerWave(2);
  plan.group_tiles.assign(2, {width, width});
  plan.segments = {CommSegment{0, 1e6, 5.0}, CommSegment{1, 1e6, 5.0}};
  ScheduleExecutor executor(cluster);
  const OverlapRun run =
      executor.ExecuteOverlap(plan, {fast, slow}, EngineOptions{.jitter = false}, 1);
  const double launch = cluster.gpu.kernel_launch_overhead_us;
  ASSERT_EQ(run.groups.size(), 2u);
  EXPECT_DOUBLE_EQ(run.groups[0].signal_time, launch + 30.0);
  EXPECT_DOUBLE_EQ(run.groups[0].comm_start, launch + 30.0);
  EXPECT_DOUBLE_EQ(run.groups[0].comm_end, launch + 35.0);
  EXPECT_DOUBLE_EQ(run.groups[1].comm_start, launch + 60.0);
  EXPECT_DOUBLE_EQ(run.total_us, launch + 65.0);
}

// Three full-width waves' worth of tiles on two ranks; group 0 is the first
// wave. Returns the GEMM end time when group 0's collective takes
// `collective_us` and holds its SMs only while resident.
double GemmEndWithTransientCollective(bool detailed_comm, double collective_us, double bytes) {
  const ClusterSpec cluster = MakeA800Cluster(2);
  const int sms = cluster.gpu.sm_count;
  GemmConfig config;
  config.tile_count = 3 * sms;
  config.wave_time_us = 200.0;
  ExecutionPlan plan;
  plan.partition = WavePartition{{1, 2}};
  plan.group_tiles.assign(2, {sms, 2 * sms});
  plan.segments = {CommSegment{0, bytes, collective_us}, CommSegment{1, bytes, collective_us}};
  ScheduleExecutor executor(cluster);
  EngineOptions options{.jitter = false, .persistent_comm_sms = false};
  options.detailed_comm = detailed_comm;
  return executor.ExecuteOverlap(plan, {config, config}, options, 1).gemm_end_us;
}

TEST(ScheduleExecutorTest, WaveStartingUnderAResidentCollectiveRunsNarrower) {
  // Group 0 signals when wave 1 lands; wave 2 starts at that instant,
  // before the collective takes its SMs, so it runs full width. Wave 3
  // starts while a long collective is resident: it is comm_sm_count tiles
  // narrower, and a fourth wave picks up the rest. A short collective has
  // released its SMs by then, and the GEMM finishes in three waves.
  const ClusterSpec cluster = MakeA800Cluster(2);
  const double launch = cluster.gpu.kernel_launch_overhead_us;
  const double mib = 1024.0 * 1024.0;
  EXPECT_DOUBLE_EQ(GemmEndWithTransientCollective(false, 5000.0, mib), launch + 800.0);
  EXPECT_DOUBLE_EQ(GemmEndWithTransientCollective(false, 20.0, mib), launch + 600.0);
  // The stepwise ring transport holds the same footprint: a 1 GiB ring
  // outlasts wave 2, a 1 KiB one does not.
  EXPECT_DOUBLE_EQ(GemmEndWithTransientCollective(true, 0.0, 1024.0 * mib), launch + 800.0);
  EXPECT_DOUBLE_EQ(GemmEndWithTransientCollective(true, 0.0, 1024.0), launch + 600.0);
}

}  // namespace
}  // namespace flo
