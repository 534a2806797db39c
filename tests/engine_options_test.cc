// Engine options added for the paper's deployment scenarios: mechanistic
// comm, signal polling, reserved SMs (Sec. 4.2.3), misconfigured waves.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/overlap_engine.h"

namespace flo {
namespace {

TEST(DetailedCommTest, RingPathMatchesClosedFormPath) {
  EngineOptions closed;
  closed.jitter = false;
  EngineOptions detailed = closed;
  detailed.detailed_comm = true;
  OverlapEngine closed_engine(Make4090Cluster(4), {}, closed);
  OverlapEngine detailed_engine(Make4090Cluster(4), {}, detailed);
  const GemmShape shape{4096, 8192, 8192};
  const double closed_total =
      closed_engine.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
  const double detailed_total =
      detailed_engine.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
  EXPECT_NEAR(detailed_total, closed_total, 0.05 * closed_total);
}

TEST(DetailedCommTest, GroupTracesStillOrdered) {
  EngineOptions options;
  options.jitter = false;
  options.detailed_comm = true;
  OverlapEngine engine(MakeA800Cluster(4), {}, options);
  const OverlapRun run = engine.Execute(ScenarioSpec::Overlap(GemmShape{8192, 8192, 4096},
                                           CommPrimitive::kReduceScatter));
  for (size_t g = 1; g < run.groups.size(); ++g) {
    EXPECT_GE(run.groups[g].comm_start, run.groups[g - 1].comm_end);
  }
}

TEST(SignalPollTest, PollingDelaysButNeverReorders) {
  EngineOptions no_poll;
  no_poll.jitter = false;
  EngineOptions with_poll = no_poll;
  with_poll.signal_poll_interval_us = 25.0;
  OverlapEngine baseline(Make4090Cluster(4), {}, no_poll);
  OverlapEngine polled(Make4090Cluster(4), {}, with_poll);
  const GemmShape shape{4096, 8192, 8192};
  const OverlapRun fast = baseline.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce));
  const OverlapRun slow = polled.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce));
  EXPECT_GE(slow.total_us, fast.total_us);
  // The poll can add at most one interval per group to the critical path.
  EXPECT_LE(slow.total_us,
            fast.total_us + 25.0 * static_cast<double>(slow.groups.size()) + 1.0);
  for (size_t g = 1; g < slow.groups.size(); ++g) {
    EXPECT_GE(slow.groups[g].comm_start, slow.groups[g - 1].comm_end);
  }
}

TEST(SignalPollTest, CommStartsOnPollBoundaries) {
  EngineOptions options;
  options.jitter = false;
  options.signal_poll_interval_us = 40.0;
  OverlapEngine engine(Make4090Cluster(2), {}, options);
  const OverlapRun run = engine.Execute(ScenarioSpec::Overlap(GemmShape{2048, 8192, 8192},
                                           CommPrimitive::kAllReduce));
  for (const auto& group : run.groups) {
    // Start is either a poll boundary or gated by the previous comm end.
    const double remainder = std::fmod(group.comm_start, 40.0);
    const bool on_boundary = remainder < 1e-6 || remainder > 40.0 - 1e-6;
    bool gated = false;
    for (const auto& other : run.groups) {
      if (&other != &group && std::abs(other.comm_end - group.comm_start) < 1e-6) {
        gated = true;
      }
    }
    EXPECT_TRUE(on_boundary || gated) << "group " << group.group << " starts at "
                                      << group.comm_start;
  }
}

TEST(ReservedSmTest, ReservationSlowsBothPathsConsistently) {
  EngineOptions base;
  base.jitter = false;
  EngineOptions reserved = base;
  reserved.reserved_sms = 32;
  OverlapEngine baseline(Make4090Cluster(4), {}, base);
  OverlapEngine constrained(Make4090Cluster(4), {}, reserved);
  const GemmShape shape{4096, 8192, 16384};
  const double base_overlap = baseline.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
  const double constrained_overlap =
      constrained.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
  EXPECT_GT(constrained_overlap, base_overlap);
  const double base_seq = baseline.Execute(ScenarioSpec::NonOverlap(shape, CommPrimitive::kAllReduce)).total_us;
  const double constrained_seq = constrained.Execute(ScenarioSpec::NonOverlap(shape, CommPrimitive::kAllReduce)).total_us;
  EXPECT_GT(constrained_seq, base_seq);
  // Overlap still pays off under co-location.
  EXPECT_LT(constrained_overlap, constrained_seq);
}

TEST(MisconfiguredWaveTest, DegradesPerformance) {
  // Paper Fig. 14: a misconfigured wave size introduces unavoidable
  // communication delays for finished tiles.
  EngineOptions options;
  options.jitter = false;
  OverlapEngine engine(Make4090Cluster(2), {}, options);
  const GemmShape shape{4096, 8192, 8192};
  const double tuned = engine.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
  const double misconfigured =
      engine.Execute(ScenarioSpec::Misconfigured(shape, CommPrimitive::kAllReduce, 20)).total_us;
  EXPECT_GE(misconfigured, tuned);
  // Zero extra tiles is a no-op.
  const double zero =
      engine.Execute(ScenarioSpec::Misconfigured(shape, CommPrimitive::kAllReduce, 0)).total_us;
  EXPECT_DOUBLE_EQ(zero, tuned);
}

TEST(TimelineExportTest, RunCarriesRankZeroTimelines) {
  EngineOptions options;
  options.jitter = false;
  OverlapEngine engine(Make4090Cluster(2), {}, options);
  const OverlapRun run = engine.Execute(ScenarioSpec::Overlap(GemmShape{2048, 8192, 8192},
                                           CommPrimitive::kAllReduce));
  EXPECT_FALSE(run.gemm_timeline.empty());
  EXPECT_FALSE(run.comm_timeline.empty());
  EXPECT_NE(run.gemm_timeline.FindFirst("gemm"), nullptr);
  EXPECT_NE(run.comm_timeline.FindFirst("comm_g0"), nullptr);
  EXPECT_NE(run.comm_timeline.FindFirst("signal"), nullptr);
  // The comm stream drains last (tail communication).
  EXPECT_GE(run.comm_timeline.EndTime(), run.gemm_timeline.EndTime());
}

// --- EngineOptions through the ScenarioSpec pipeline ---
// Per-scenario option overrides ride on the spec itself; the plan-cache
// key excludes execution-only knobs, so one cached plan serves every mix.

TEST(ScenarioOptionsTest, PollOverrideDelaysGroupReleaseAndSharesThePlan) {
  EngineOptions base;
  base.jitter = false;
  OverlapEngine engine(Make4090Cluster(4), {}, base);
  const GemmShape shape{4096, 8192, 8192};
  const ScenarioSpec fast = ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce);
  ScenarioSpec polled = fast;
  EngineOptions poll_options = base;
  poll_options.signal_poll_interval_us = 25.0;
  polled.options = poll_options;

  const OverlapRun fast_run = engine.Execute(fast);
  const size_t searches = engine.tuner().search_count();
  const OverlapRun slow_run = engine.Execute(polled);
  // Same canonical key: the polled scenario reused the cached plan.
  EXPECT_EQ(engine.tuner().search_count(), searches);
  EXPECT_EQ(engine.plan_store().size(), 1u);
  EXPECT_GE(slow_run.total_us, fast_run.total_us);
  // The poll can add at most one interval per group to the critical path.
  EXPECT_LE(slow_run.total_us,
            fast_run.total_us + 25.0 * static_cast<double>(slow_run.groups.size()) + 1.0);
  for (size_t g = 1; g < slow_run.groups.size(); ++g) {
    EXPECT_GE(slow_run.groups[g].comm_start, slow_run.groups[g - 1].comm_end);
  }
}

TEST(ScenarioOptionsTest, ReservedSmsOverrideShrinksWaveWidth) {
  EngineOptions base;
  base.jitter = false;
  OverlapEngine engine(Make4090Cluster(4), {}, base);
  const GemmShape shape{4096, 8192, 16384};
  const ScenarioSpec free_spec = ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce);
  ScenarioSpec constrained = free_spec;
  EngineOptions reserved = base;
  reserved.reserved_sms = 32;
  constrained.options = reserved;
  // Fewer SMs per wave -> more waves -> a strictly slower run, on both the
  // overlapped and the sequential path.
  EXPECT_GT(engine.Execute(constrained).total_us, engine.Execute(free_spec).total_us);
  ScenarioSpec seq = ScenarioSpec::NonOverlap(shape, CommPrimitive::kAllReduce);
  ScenarioSpec seq_constrained = seq;
  seq_constrained.options = reserved;
  EXPECT_GT(engine.Execute(seq_constrained).total_us, engine.Execute(seq).total_us);
}

}  // namespace
}  // namespace flo
