// Executes an ExecutionPlan on the simulated cluster.
//
// The execution layer of the ScenarioSpec -> OverlapPlanner ->
// ScheduleExecutor pipeline. The replay is one flat state machine on the
// repo's single event engine, EventLoop, with typed records and no
// closures. Each rank runs two cursors, mirroring the paper's two-stream
// implementation (Sec. 5):
//
//   * a wave cursor — the GEMM wave loop, whose width is whatever SM
//     budget the resident collectives leave over;
//   * a comm-stage cursor — signal_0, collective_0, signal_1, ... A signal
//     stage ends when the rank's counting table completes the group,
//     released on a poll boundary when polling is modelled. A landing wave
//     counts its tiles with one CountingTable::RecordTiles call per group
//     it touches (all its tiles land at one instant), so replay cost grows
//     with waves and groups, not tiles. A collective stage is this rank's
//     arrival at the group's rendezvous; the transfer starts once every
//     rank has arrived, closed form or ring step by ring step.
//
// The executor owns the simulated devices and the event loop and reuses
// both across runs, so a batch sweep shares one cluster's SM-pool state
// instead of rebuilding devices per scenario. Every run drains the loop.
#ifndef SRC_CORE_SCHEDULE_EXECUTOR_H_
#define SRC_CORE_SCHEDULE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "src/core/counting_table.h"
#include "src/core/engine_options.h"
#include "src/core/execution_plan.h"
#include "src/gemm/gemm_model.h"
#include "src/hw/cluster.h"
#include "src/sim/event_loop.h"
#include "src/sim/timeline.h"
#include "src/util/rng.h"

namespace flo {

struct GroupTrace {
  int group = 0;
  int tiles = 0;
  double bytes = 0.0;
  SimTime signal_time = 0.0;
  SimTime comm_start = 0.0;
  SimTime comm_end = 0.0;
};

struct OverlapRun {
  SimTime total_us = 0.0;
  SimTime gemm_end_us = 0.0;
  WavePartition partition;
  std::vector<GroupTrace> groups;
  double predicted_us = 0.0;
  // Whether the plan came from the PlanStore (set by OverlapEngine, not
  // the executor): per-spec cache visibility for sweeps and serving loops.
  bool plan_cache_hit = false;
  // Rank-0 stream timelines, for trace export (src/sim/trace_export.h).
  Timeline gemm_timeline;
  Timeline comm_timeline;
};

class ScheduleExecutor {
 public:
  explicit ScheduleExecutor(ClusterSpec spec);
  // The loop's handler points back at this executor.
  ScheduleExecutor(const ScheduleExecutor&) = delete;
  ScheduleExecutor& operator=(const ScheduleExecutor&) = delete;

  const ClusterSpec& cluster() const { return spec_; }
  // Events every replay so far has dispatched; 0 until one runs (the
  // closed-form sequential path dispatches none).
  uint64_t replay_events() const { return loop_.dispatched(); }

  // Stable per-case seed so every binary prints identical numbers on
  // re-run (jitter is derived from it).
  uint64_t CaseSeed(const GemmShape& shape, CommPrimitive primitive,
                    const WavePartition& partition, uint64_t seed_salt) const;

  // Timed overlapped execution of `plan`. `rank_configs` are the tuned
  // GEMM configurations, one per rank, aligned with plan.group_tiles.
  OverlapRun ExecuteOverlap(const ExecutionPlan& plan,
                            const std::vector<GemmConfig>& rank_configs,
                            const EngineOptions& options, uint64_t case_seed);

  // Sequential baseline: every rank's GEMM runs unconstrained (minus any
  // reserved SMs), then the plan's single collective segment moves the full
  // payload once the slowest rank arrives. Closed form — no event loop.
  SimTime ExecuteSequential(const ExecutionPlan& plan,
                            const std::vector<GemmConfig>& rank_configs,
                            const EngineOptions& options, uint64_t case_seed);

 private:
  // Replay event kinds, carried in EventRecord::slot.
  enum class Kind : uint32_t {
    kCommStage,      // a rank's comm-stage cursor reaches its next stage
    kGemmLaunch,     // a rank's GEMM kernel starts; launch overhead follows
    kWaveStart,      // a rank's first wave after the launch overhead
    kWaveEnd,        // a rank's in-flight wave lands its tiles
    kPollRelease,    // a polling signal kernel observes its group
    kCollectiveEnd,  // a closed-form collective completes
    kRingStep,       // a ring collective reaches step boundary `ring_step`
  };

  struct RankState {
    const GemmConfig* config = nullptr;
    int tiles_done = 0;
    int tile_group = 0;  // group the next finished tile counts toward
    int wave_tiles = 0;  // tiles of the wave in flight
    int stage = 0;       // comm-stage cursor: 2g = signal_g, 2g+1 = collective_g
    bool signal_armed = false;  // the current signal stage waits on the table
    SimTime stage_start = 0.0;
    SimTime gemm_done = 0.0;
  };
  struct GroupState {
    int arrived = 0;
    bool completed = false;
    SimTime duration = 0.0;  // closed form: jittered latency
    SimTime step_us = 0.0;   // ring: one step's time
    int steps = 0;           // ring: step count
  };

  // Jitter multipliers in [1, 1+amp); 1.0 when jitter is disabled.
  static double JitterFactor(Rng* rng, bool enabled, double amplitude);

  void Push(SimTime time, Kind kind, int index, int ring_step = 0);
  void Dispatch(const EventRecord& record, SimTime now);
  void StartStage(int rank, SimTime now);
  void Signal(int rank, int group, SimTime now);
  void FinishStage(int rank, SimTime now);
  void NextWave(int rank, SimTime now);
  void LandWave(int rank, SimTime now);
  void Arrive(int group, SimTime now);
  void RingStep(int group, int step, SimTime now);
  void CompleteCollective(int group, SimTime now);

  ClusterSpec spec_;
  Cluster devices_;
  EventLoop loop_;
  uint32_t handler_ = 0;

  // State of the run in progress, reused across runs.
  const EngineOptions* options_ = nullptr;
  Rng* rng_ = nullptr;
  OverlapRun* run_ = nullptr;
  int per_collective_sms_ = 0;
  std::vector<RankState> ranks_;
  std::vector<CountingTable> tables_;  // one per rank
  std::vector<GroupState> groups_;
};

}  // namespace flo

#endif  // SRC_CORE_SCHEDULE_EXECUTOR_H_
