#include "src/core/schedule_executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "src/comm/ring_transport.h"
#include "src/util/check.h"

namespace flo {
namespace {

// Jitter amplitudes: a jittered wave or collective runs up to this
// fraction slower than nominal.
constexpr double kWaveJitter = 0.02;
constexpr double kCommJitter = 0.05;

}  // namespace

ScheduleExecutor::ScheduleExecutor(ClusterSpec spec) : spec_(spec), devices_(spec_) {
  handler_ = loop_.RegisterHandler(
      [this](const EventRecord& record, SimTime now) { Dispatch(record, now); });
}

double ScheduleExecutor::JitterFactor(Rng* rng, bool enabled, double amplitude) {
  if (!enabled || rng == nullptr) {
    return 1.0;
  }
  // Real kernels only ever run at or below nominal speed: jitter stretches
  // durations, never shrinks them.
  return 1.0 + rng->NextDouble() * amplitude;
}

uint64_t ScheduleExecutor::CaseSeed(const GemmShape& shape, CommPrimitive primitive,
                                    const WavePartition& partition, uint64_t seed_salt) const {
  StableHash hash;
  hash.Mix(shape.m).Mix(shape.n).Mix(shape.k);
  hash.Mix(static_cast<int>(primitive));
  hash.Mix(spec_.gpu_count);
  hash.Mix(spec_.gpu.name.c_str());
  for (int size : partition.group_sizes) {
    hash.Mix(size);
  }
  hash.Mix(seed_salt);
  return hash.value();
}

SimTime ScheduleExecutor::ExecuteSequential(const ExecutionPlan& plan,
                                            const std::vector<GemmConfig>& rank_configs,
                                            const EngineOptions& options, uint64_t case_seed) {
  FLO_CHECK_EQ(rank_configs.size(), static_cast<size_t>(spec_.gpu_count));
  FLO_CHECK(!plan.segments.empty());
  Rng rng(case_seed);
  // Sequential: every rank's GEMM runs unconstrained; the collective starts
  // when the slowest rank's GEMM finishes and moves the full payload.
  double gemm_us = 0.0;
  for (const GemmConfig& config : rank_configs) {
    double duration = config.duration_us;
    if (options.reserved_sms > 0) {
      // Co-located work shrinks the wave width even without overlap.
      const int width = std::max(1, spec_.gpu.sm_count - options.reserved_sms);
      const int waves = (config.tile_count + width - 1) / width;
      duration = waves * config.wave_time_us + spec_.gpu.kernel_launch_overhead_us;
    }
    gemm_us = std::max(gemm_us,
                       duration * JitterFactor(&rng, options.jitter, kWaveJitter));
  }
  const double worst_comm = plan.segments[0].latency_us;
  return gemm_us + worst_comm * JitterFactor(&rng, options.jitter, kCommJitter);
}

void ScheduleExecutor::Push(SimTime time, Kind kind, int index, int ring_step) {
  EventRecord record;
  record.handler = handler_;
  record.slot = static_cast<uint32_t>(kind);
  // Rank or group in the low half, ring step boundary in the high half.
  record.key = (static_cast<uint64_t>(ring_step) << 32) | static_cast<uint32_t>(index);
  loop_.Push(time, record);
}

void ScheduleExecutor::Dispatch(const EventRecord& record, SimTime now) {
  const int index = static_cast<int>(record.key & 0xffffffffu);
  switch (static_cast<Kind>(record.slot)) {
    case Kind::kCommStage:
      StartStage(index, now);
      return;
    case Kind::kGemmLaunch:
      // Kernel launch overhead precedes the first wave.
      Push(now + spec_.gpu.kernel_launch_overhead_us, Kind::kWaveStart, index);
      return;
    case Kind::kWaveStart:
      NextWave(index, now);
      return;
    case Kind::kWaveEnd:
      LandWave(index, now);
      return;
    case Kind::kPollRelease:
      FinishStage(index, now);
      return;
    case Kind::kCollectiveEnd:
      CompleteCollective(index, now);
      return;
    case Kind::kRingStep:
      RingStep(index, static_cast<int>(record.key >> 32), now);
      return;
  }
}

void ScheduleExecutor::StartStage(int rank, SimTime now) {
  RankState& state = ranks_[rank];
  const int group = state.stage / 2;
  if (state.stage % 2 == 1) {
    Arrive(group, now);
  } else if (tables_[rank].GroupComplete(group)) {
    Signal(rank, group, now);
  } else {
    state.signal_armed = true;
  }
}

void ScheduleExecutor::Signal(int rank, int group, SimTime now) {
  ranks_[rank].signal_armed = false;
  // The signal time the paper cares about is when the *last* rank's tiles
  // land; later ranks overwrite earlier ones.
  GroupTrace& trace = run_->groups[group];
  trace.signal_time = std::max(trace.signal_time, now);
  const double poll = options_->signal_poll_interval_us;
  if (poll > 0.0) {
    // The polling kernel only observes the table on its next query;
    // release on the poll boundary.
    const double remainder = std::fmod(now, poll);
    const double wait = remainder == 0.0 ? 0.0 : poll - remainder;
    Push(now + wait, Kind::kPollRelease, rank);
  } else {
    FinishStage(rank, now);
  }
}

void ScheduleExecutor::FinishStage(int rank, SimTime now) {
  RankState& state = ranks_[rank];
  if (rank == 0) {
    const char* kind = state.stage % 2 == 0 ? "signal_g" : "comm_g";
    run_->comm_timeline.Add(kind + std::to_string(state.stage / 2), state.stage_start, now);
  }
  if (++state.stage < 2 * static_cast<int>(groups_.size())) {
    state.stage_start = now;
    Push(now, Kind::kCommStage, rank);
  }
}

void ScheduleExecutor::NextWave(int rank, SimTime now) {
  // Wave loop with dynamic width = free SMs at wave start.
  RankState& state = ranks_[rank];
  if (state.tiles_done >= state.config->tile_count) {
    state.gemm_done = now;
    if (rank == 0) {
      run_->gemm_timeline.Add("gemm", 0.0, now);
    }
    return;
  }
  const int width = devices_.device(rank).ComputeSms();
  state.wave_tiles = std::min(width, state.config->tile_count - state.tiles_done);
  const double duration = state.config->wave_time_us *
                          JitterFactor(rng_, options_->jitter, kWaveJitter);
  Push(now + duration, Kind::kWaveEnd, rank);
}

void ScheduleExecutor::LandWave(int rank, SimTime now) {
  RankState& state = ranks_[rank];
  CountingTable& table = tables_[rank];
  // Tiles fill the groups in order, and the whole wave lands at `now`: one
  // update per group it touches. RecordTiles' true is the signal, and only
  // a signal stage already waiting on the group consumes it.
  for (int left = state.wave_tiles; left > 0;) {
    const int group = state.tile_group;
    const int tiles = std::min(left, table.target(group) - table.count(group));
    left -= tiles;
    if (table.RecordTiles(group, tiles)) {
      ++state.tile_group;
      if (state.signal_armed && state.stage == 2 * group) {
        Signal(rank, group, now);
      }
    }
  }
  state.tiles_done += state.wave_tiles;
  NextWave(rank, now);
}

void ScheduleExecutor::Arrive(int group, SimTime now) {
  GroupState& collective = groups_[group];
  if (++collective.arrived < spec_.gpu_count) {
    return;
  }
  // Last rank arrived: the transfer begins now on all devices.
  run_->groups[group].comm_start = now;
  for (int r = 0; r < spec_.gpu_count; ++r) {
    devices_.device(r).AcquireSms(per_collective_sms_);
  }
  if (options_->detailed_comm) {
    // Host-side setup before the first chunk moves.
    Push(now + spec_.link.call_overhead_us, Kind::kRingStep, group, 0);
  } else {
    Push(now + collective.duration, Kind::kCollectiveEnd, group);
  }
}

void ScheduleExecutor::RingStep(int group, int step, SimTime now) {
  if (step >= groups_[group].steps) {
    CompleteCollective(group, now);
    return;
  }
  Push(now + groups_[group].step_us, Kind::kRingStep, group, step + 1);
}

void ScheduleExecutor::CompleteCollective(int group, SimTime now) {
  groups_[group].completed = true;
  run_->groups[group].comm_end = now;
  for (int r = 0; r < spec_.gpu_count; ++r) {
    devices_.device(r).ReleaseSms(per_collective_sms_);
  }
  for (int r = 0; r < spec_.gpu_count; ++r) {
    FinishStage(r, now);
  }
}

OverlapRun ScheduleExecutor::ExecuteOverlap(const ExecutionPlan& plan,
                                            const std::vector<GemmConfig>& rank_configs,
                                            const EngineOptions& options, uint64_t case_seed) {
  const int n = spec_.gpu_count;
  FLO_CHECK_EQ(plan.rank_count(), n);
  FLO_CHECK_EQ(rank_configs.size(), static_cast<size_t>(n));
  const int group_count = plan.group_count();
  FLO_CHECK_GT(group_count, 0);
  for (const auto& tiles : plan.group_tiles) {
    FLO_CHECK_EQ(static_cast<int>(tiles.size()), group_count);
  }
  FLO_CHECK_EQ(static_cast<int>(plan.segments.size()), group_count);
  FLO_CHECK(loop_.empty());

  Rng rng(case_seed);
  if (options.reserved_sms > 0) {
    for (int r = 0; r < n; ++r) {
      devices_.device(r).AcquireSms(options.reserved_sms);
    }
  }
  // With persistent channels the signal/comm kernels occupy their SMs for
  // the entire overlapped region, matching the predictor's wave-count
  // adjustment; the per-collective acquisition is then disabled. A single
  // group means no concurrency at all — the "don't overlap" fallback —
  // so nothing is reserved and the run degenerates to sequential
  // execution.
  const bool persistent = options.persistent_comm_sms && group_count > 1;
  if (persistent) {
    for (int r = 0; r < n; ++r) {
      devices_.device(r).AcquireSms(spec_.link.comm_sm_count);
    }
  }

  OverlapRun run;
  run.partition = plan.partition;
  run.groups.resize(group_count);
  options_ = &options;
  rng_ = &rng;
  run_ = &run;
  per_collective_sms_ = persistent ? 0 : spec_.link.comm_sm_count;

  ranks_.assign(n, RankState{});
  tables_.clear();
  for (int r = 0; r < n; ++r) {
    const std::vector<int>& targets = plan.group_tiles[r];
    FLO_CHECK_EQ(std::accumulate(targets.begin(), targets.end(), 0), rank_configs[r].tile_count)
        << "plan's counting targets must cover rank " << r << "'s tiles exactly";
    ranks_[r].config = &rank_configs[r];
    tables_.emplace_back(targets);
  }
  groups_.assign(group_count, GroupState{});
  for (int g = 0; g < group_count; ++g) {
    const CommSegment& segment = plan.segments[g];
    run.groups[g].group = g;
    run.groups[g].tiles = plan.group_tiles[0][g];
    run.groups[g].bytes = segment.max_bytes;
    GroupState& collective = groups_[g];
    if (options.detailed_comm) {
      // The classic ring moves the whole wire volume in `steps` equal
      // rotations.
      FLO_CHECK_GT(segment.max_bytes, 0.0);
      collective.steps = RingStepCount(plan.primitive, n);
      const double chunk = WireFactor(plan.primitive, n) * segment.max_bytes / collective.steps;
      collective.step_us = RingStepTime(spec_.link, segment.max_bytes, chunk);
    } else {
      collective.duration =
          segment.latency_us * JitterFactor(&rng, options.jitter, kCommJitter);
      FLO_CHECK_GE(collective.duration, 0.0);
    }
  }

  // Both cursors of every rank start at t=0: comm cursors first, then the
  // GEMM kernels.
  for (int r = 0; r < n; ++r) {
    Push(0.0, Kind::kCommStage, r);
  }
  for (int r = 0; r < n; ++r) {
    Push(0.0, Kind::kGemmLaunch, r);
  }
  loop_.RunToCompletion();

  SimTime gemm_end = 0.0;
  for (int r = 0; r < n; ++r) {
    const RankState& state = ranks_[r];
    FLO_CHECK_EQ(state.tiles_done, state.config->tile_count)
        << "rank " << r << " GEMM never finished";
    FLO_CHECK_EQ(state.stage, 2 * group_count) << "rank " << r << " comm stream stalled";
    FLO_CHECK(tables_[r].AllComplete());
    gemm_end = std::max(gemm_end, state.gemm_done);
  }
  for (int g = 0; g < group_count; ++g) {
    FLO_CHECK(groups_[g].completed) << "group " << g << " collective never ran";
  }
  // Every rank's comm stream ends with the last group's collective.
  run.total_us = std::max(gemm_end, run.groups.back().comm_end);
  run.gemm_end_us = gemm_end;
  // The executor's devices persist across runs: return every acquired SM
  // so the next scenario in a batch starts from a clean pool.
  if (options.reserved_sms > 0) {
    for (int r = 0; r < n; ++r) {
      devices_.device(r).ReleaseSms(options.reserved_sms);
    }
  }
  if (persistent) {
    for (int r = 0; r < n; ++r) {
      devices_.device(r).ReleaseSms(spec_.link.comm_sm_count);
    }
  }
  options_ = nullptr;
  rng_ = nullptr;
  run_ = nullptr;
  return run;
}

}  // namespace flo
