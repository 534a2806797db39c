// ScheduleExecutor replay semantics: the collective rendezvous, the SM
// footprint a resident collective takes from the GEMM's waves, and signals
// from a wave that completes several groups at once.
#include <gtest/gtest.h>

#include <string>
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

// Two identical ranks, two full-width waves (100 us each), 5 us
// collectives; every rank counts toward `group_tiles`.
OverlapRun RunMultiGroupWaves(const std::vector<int>& group_tiles, double poll_us) {
  const ClusterSpec cluster = MakeA800Cluster(2);
  const int width = cluster.gpu.sm_count - cluster.link.comm_sm_count;
  GemmConfig config;
  config.tile_count = 2 * width;
  config.wave_time_us = 100.0;
  ExecutionPlan plan;
  plan.partition = WavePartition{std::vector<int>(group_tiles.size(), 1)};
  plan.group_tiles.assign(2, group_tiles);
  for (int g = 0; g < static_cast<int>(group_tiles.size()); ++g) {
    plan.segments.push_back(CommSegment{g, 1e6, 5.0});
  }
  EngineOptions options{.jitter = false};
  options.signal_poll_interval_us = poll_us;
  ScheduleExecutor executor(cluster);
  return executor.ExecuteOverlap(plan, {config, config}, options, 1);
}

// Pins each group's signal and collective times, and checks that rank 0's
// comm stream ran signal_0, comm_0, signal_1, ... back to back in group
// order.
void ExpectGroupTimes(const OverlapRun& run, const std::vector<double>& signal,
                      const std::vector<double>& comm_start) {
  ASSERT_EQ(run.groups.size(), signal.size());
  for (size_t g = 0; g < signal.size(); ++g) {
    EXPECT_DOUBLE_EQ(run.groups[g].signal_time, signal[g]) << "group " << g;
    EXPECT_DOUBLE_EQ(run.groups[g].comm_start, comm_start[g]) << "group " << g;
    EXPECT_DOUBLE_EQ(run.groups[g].comm_end, comm_start[g] + 5.0) << "group " << g;
  }
  const std::vector<TaskSpan>& stages = run.comm_timeline.spans();
  ASSERT_EQ(stages.size(), 2 * signal.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    const std::string expected = (i % 2 == 0 ? "signal_g" : "comm_g") + std::to_string(i / 2);
    EXPECT_EQ(stages[i].name, expected);
    if (i > 0) {
      EXPECT_DOUBLE_EQ(stages[i].start, stages[i - 1].end) << stages[i].name;
    }
  }
  EXPECT_DOUBLE_EQ(run.total_us, comm_start.back() + 5.0);
}

TEST(ScheduleExecutorTest, WaveCompletingThreeGroupsSignalsTheArmedOneFirst) {
  // Wave 1 (lands at 105) completes groups 0-2 while signal_0 waits on the
  // table; wave 2 (lands at 205) completes group 3. Groups 1 and 2 are
  // already complete when their signal stages start, so each signals as
  // soon as the previous collective ends.
  const ClusterSpec cluster = MakeA800Cluster(2);
  const int width = cluster.gpu.sm_count - cluster.link.comm_sm_count;
  const int quarter = width / 4;
  const std::vector<int> tiles{quarter, quarter, width - 2 * quarter, width};
  const double launch = cluster.gpu.kernel_launch_overhead_us;
  ASSERT_EQ(launch, 5.0);
  // No polling: every signal releases its collective at once.
  ExpectGroupTimes(RunMultiGroupWaves(tiles, 0.0), {105.0, 110.0, 115.0, 205.0},
                   {105.0, 110.0, 115.0, 205.0});
  // Polling every 4 us: the signal time is still when the group completes
  // or its stage starts, but the collective waits for the next boundary.
  ExpectGroupTimes(RunMultiGroupWaves(tiles, 4.0), {105.0, 113.0, 121.0, 205.0},
                   {108.0, 116.0, 124.0, 208.0});
}

TEST(ScheduleExecutorTest, WaveFinishingACarriedGroupSignalsItThenFillsTheNext) {
  // Wave 1 completes group 0 and half of group 1; wave 2 finishes group 1
  // (signal_1 armed since group 0's collective ended at 110) and then
  // groups 2 and 3 in the same landing.
  const ClusterSpec cluster = MakeA800Cluster(2);
  const int width = cluster.gpu.sm_count - cluster.link.comm_sm_count;
  const int half = width / 2;
  const std::vector<int> tiles{half, width, 1, width - half - 1};
  ExpectGroupTimes(RunMultiGroupWaves(tiles, 0.0), {105.0, 205.0, 210.0, 215.0},
                   {105.0, 205.0, 210.0, 215.0});
  ExpectGroupTimes(RunMultiGroupWaves(tiles, 4.0), {105.0, 205.0, 213.0, 221.0},
                   {108.0, 208.0, 216.0, 224.0});
}

}  // namespace
}  // namespace flo
