// Planner performance benchmark: branch-and-bound tuner search vs a
// bench-local enumerate-then-evaluate baseline (EnumeratePruned, then
// PredictOverlapLatency per candidate), plus cold/warm Execute sweeps.
//
// Shapes are chosen to land at 30+ effective waves on the 8x A800 cluster —
// the regime where the baseline materializes the full 65536-candidate
// pruned space per search. The binary overrides global operator new to
// count heap allocations, demonstrating that the steady-state B&B search
// loop allocates nothing per candidate.
//
// Usage: bench_planner [--smoke] [--history <file>]   (--smoke shrinks
// repetitions for CI). Writes BENCH_planner.json (machine-readable, one
// object) to the cwd; --history appends the same JSON as one compact line
// to the given trajectory file (CI appends to bench/history/ so the perf
// trajectory accumulates in-tree instead of one artifact per run). Exits
// nonzero when the >= 10x cold-search speedup gate fails.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <utility>
#include <string>
#include <vector>

#include "bench/trajectory.h"
#include "src/core/flashoverlap.h"
#include "src/util/table.h"

// --- Allocation instrumentation (whole binary) ---
namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flo {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SearchStats {
  double seconds = 0.0;
  size_t searches = 0;
  size_t work_units = 0;  // candidates (enumeration) or B&B nodes
  size_t allocations = 0;
  int min_waves = 0;
};

// Times cold searches: a fresh tuner per repetition so every search misses
// every cache. The first (untimed) round warms the searcher workspace and
// the malloc arena so the timed rounds measure steady state. `search`
// runs one search and returns its work units and effective wave count.
template <typename SearchFn>
SearchStats TimeColdSearches(const ClusterSpec& cluster, const std::vector<GemmShape>& shapes,
                             int repetitions, SearchFn search) {
  SearchStats stats;
  stats.min_waves = 1 << 30;
  {
    Tuner warmup(cluster);
    for (const GemmShape& shape : shapes) {
      search(warmup, shape);
    }
  }
  for (int rep = 0; rep < repetitions; ++rep) {
    Tuner tuner(cluster);
    // Pre-resolve the offline artifacts (GEMM configs, latency curve):
    // they are deployment-time work, not part of the per-size search.
    for (const GemmShape& shape : shapes) {
      tuner.GemmConfigFor(shape);
    }
    tuner.LatencyCurveFor(CommPrimitive::kAllReduce);
    const size_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    const Clock::time_point start = Clock::now();
    for (const GemmShape& shape : shapes) {
      const auto [work_units, waves] = search(tuner, shape);
      stats.work_units += work_units;
      stats.min_waves = std::min(stats.min_waves, waves);
    }
    stats.seconds += SecondsSince(start);
    stats.allocations += g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    stats.searches += shapes.size();
  }
  return stats;
}

// The tuner's branch-and-bound search, through the cached Tune entry point.
std::pair<size_t, int> BranchAndBoundSearch(Tuner& tuner, const GemmShape& shape) {
  const TunedPlan& plan = tuner.Tune(shape, CommPrimitive::kAllReduce);
  return {plan.search_nodes, plan.effective_waves};
}

// The enumerate-then-evaluate pipeline the branch-and-bound replaced:
// materialize the pruned space (capped at 65536 candidates) and score every
// candidate with PredictOverlapLatency's heap-allocating group sweep.
std::pair<size_t, int> EnumerateThenEvaluate(Tuner& tuner, const GemmShape& shape) {
  const PredictorSetup setup = tuner.MakeSetup(shape, CommPrimitive::kAllReduce);
  const int waves = setup.EffectiveWaveCount();
  const std::vector<WavePartition> candidates =
      EnumeratePruned(waves, tuner.config().s1, tuner.config().sp);
  double best_us = std::numeric_limits<double>::infinity();
  for (const WavePartition& candidate : candidates) {
    best_us = std::min(best_us, PredictOverlapLatency(setup, candidate).latency_us);
  }
  return {candidates.size(), waves};
}

// --- Multi-rank (imbalanced All-to-All) section -----------------------------

struct MultiRankStats {
  double seconds = 0.0;
  size_t searches = 0;
  // Full-timeline rendezvous replays (PredictOverlapLatencyMultiRank
  // calls) — the work the fused search eliminates.
  size_t replays = 0;
  size_t work_units = 0;  // candidates scored (replay path) or B&B nodes
  double best_us = 0.0;
  int base_waves = 0;
};

// The pre-fusion joint search, mirroring the forced imbalanced path's
// coarsening: enumerate the bounded candidate space at the lightest rank's
// resolution (so every candidate restates onto every rank), then score
// each candidate with one full rendezvous replay.
MultiRankStats TimeReplayJointSearch(const ClusterSpec& cluster,
                                     const std::vector<GemmShape>& shapes,
                                     int repetitions) {
  MultiRankStats stats;
  Tuner tuner(cluster);
  std::vector<PredictorSetup> setups;
  int min_waves = 1 << 30;
  for (const GemmShape& shape : shapes) {
    setups.push_back(tuner.MakeSetup(shape, CommPrimitive::kAllToAll));
    stats.base_waves = std::max(stats.base_waves, setups.back().EffectiveWaveCount());
    min_waves = std::min(min_waves, setups.back().EffectiveWaveCount());
  }
  const std::vector<WavePartition> candidates = EnumeratePruned(min_waves, 2, 4, 65536);
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < repetitions; ++rep) {
    WavePartition best;
    double best_us = std::numeric_limits<double>::infinity();
    std::vector<WavePartition> projected(setups.size());
    for (const WavePartition& candidate : candidates) {
      bool feasible = true;
      for (size_t r = 0; r < setups.size(); ++r) {
        auto partition =
            ProjectPartition(candidate, min_waves, setups[r].EffectiveWaveCount());
        if (!partition.has_value()) {
          feasible = false;
          break;
        }
        projected[r] = *std::move(partition);
      }
      if (!feasible) {
        continue;
      }
      ++stats.replays;
      ++stats.work_units;
      const double latency = PredictOverlapLatencyMultiRank(setups, projected).latency_us;
      if (latency < best_us) {
        best_us = latency;
        best = candidate;
      }
    }
    // The single-group fallback is in the pruned set (EnumeratePruned's
    // first insurance seed), so `best_us` already covers "don't overlap".
    stats.best_us = best_us;
    ++stats.searches;
  }
  stats.seconds = SecondsSince(start);
  return stats;
}

// The fused path: Tuner::TuneImbalanced, cold per repetition (fresh tuner,
// offline artifacts pre-resolved). Zero full-timeline replays by
// construction — every node is table arithmetic.
MultiRankStats TimeFusedImbalanced(const ClusterSpec& cluster,
                                   const std::vector<GemmShape>& shapes,
                                   int repetitions) {
  MultiRankStats stats;
  {
    Tuner warmup(cluster);
    warmup.TuneImbalanced(shapes, CommPrimitive::kAllToAll);
  }
  for (int rep = 0; rep < repetitions; ++rep) {
    Tuner tuner(cluster);
    for (const GemmShape& shape : shapes) {
      tuner.GemmConfigFor(shape);
    }
    tuner.LatencyCurveFor(CommPrimitive::kAllToAll);
    const Clock::time_point start = Clock::now();
    const TunedMultiRankPlan& plan = tuner.TuneImbalanced(shapes, CommPrimitive::kAllToAll);
    stats.seconds += SecondsSince(start);
    stats.work_units += plan.search_nodes;
    stats.best_us = plan.predicted_us;
    stats.base_waves = plan.base_waves;
    ++stats.searches;
  }
  return stats;
}

std::vector<ScenarioSpec> SweepSpecs(const std::vector<GemmShape>& shapes) {
  std::vector<ScenarioSpec> specs;
  for (const GemmShape& shape : shapes) {
    specs.push_back(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce));
    specs.push_back(ScenarioSpec::Overlap(shape, CommPrimitive::kReduceScatter));
  }
  return specs;
}

// One sweep: each spec through Execute. The JSON keeps its runbatch_*
// field names so trajectory points stay comparable.
double TimeSweep(OverlapEngine* engine, const std::vector<ScenarioSpec>& specs) {
  const Clock::time_point start = Clock::now();
  for (const ScenarioSpec& spec : specs) {
    engine->Execute(spec);
  }
  return SecondsSince(start);
}

bool Run(bool smoke, const std::string& history_path) {
  const ClusterSpec cluster = MakeA800Cluster(8);
  // 30+ effective waves each (256x128 tiles, width = 104 usable SMs): the
  // regime where enumeration reaches its full candidate cap per search.
  // The gate below verifies the wave count at runtime.
  const std::vector<GemmShape> shapes = {
      {12544, 8192, 8192}, {13056, 8192, 8192}, {13568, 8192, 8192}, {14080, 8192, 8192}};
  const int repetitions = smoke ? 1 : 5;

  const TunerConfig bnb_config;

  std::printf("Cold Tuner::Search, %zu shapes x %d repetitions, 8x A800 AllReduce\n",
              shapes.size(), repetitions);
  const SearchStats baseline =
      TimeColdSearches(cluster, shapes, repetitions, EnumerateThenEvaluate);
  const SearchStats bnb = TimeColdSearches(cluster, shapes, repetitions, BranchAndBoundSearch);

  const double baseline_per_search_us = baseline.seconds * 1e6 / baseline.searches;
  const double bnb_per_search_us = bnb.seconds * 1e6 / bnb.searches;
  const double speedup = baseline_per_search_us / bnb_per_search_us;
  const double bnb_allocs_per_node =
      static_cast<double>(bnb.allocations) / static_cast<double>(bnb.work_units);

  Table table({"path", "us/search", "searches/s", "work-units/s", "allocs/search",
               "allocs/candidate"});
  table.AddRow({"enumerate+evaluate", FormatDouble(baseline_per_search_us, 1),
                FormatDouble(baseline.searches / baseline.seconds, 1),
                FormatDouble(baseline.work_units / baseline.seconds, 0),
                FormatDouble(static_cast<double>(baseline.allocations) / baseline.searches, 1),
                FormatDouble(static_cast<double>(baseline.allocations) / baseline.work_units, 2)});
  table.AddRow({"branch-and-bound", FormatDouble(bnb_per_search_us, 1),
                FormatDouble(bnb.searches / bnb.seconds, 1),
                FormatDouble(bnb.work_units / bnb.seconds, 0),
                FormatDouble(static_cast<double>(bnb.allocations) / bnb.searches, 1),
                FormatDouble(bnb_allocs_per_node, 4)});
  std::printf("%sspeedup: %.1fx at >=%d effective waves\n\n", table.Render().c_str(), speedup,
              std::min(baseline.min_waves, bnb.min_waves));

  // Multi-rank: the fused imbalanced branch-and-bound vs the joint search
  // that scores the bounded candidate space with full rendezvous replays.
  // 4 ranks, heaviest at 30+ effective waves.
  const std::vector<GemmShape> imbalanced_shapes = {{14080, 8192, 8192},
                                                    {10240, 8192, 8192},
                                                    {6656, 8192, 8192},
                                                    {4608, 8192, 8192}};
  std::printf("Multi-rank imbalanced tuning, %zu ranks x %d repetitions, AllToAll\n",
              imbalanced_shapes.size(), repetitions);
  const MultiRankStats replay =
      TimeReplayJointSearch(cluster, imbalanced_shapes, repetitions);
  const MultiRankStats fused = TimeFusedImbalanced(cluster, imbalanced_shapes, repetitions);
  const double replay_search_us = replay.seconds * 1e6 / replay.searches;
  const double fused_search_us = fused.seconds * 1e6 / fused.searches;
  const double mr_speedup = replay_search_us / fused_search_us;
  const size_t replay_replays_per_search = replay.replays / replay.searches;
  Table mr_table({"path", "us/search", "replays/search", "work-units/search"});
  mr_table.AddRow({"rendezvous replay", FormatDouble(replay_search_us, 1),
                   FormatDouble(static_cast<double>(replay_replays_per_search), 0),
                   FormatDouble(static_cast<double>(replay.work_units) / replay.searches, 0)});
  mr_table.AddRow({"fused multi-rank B&B", FormatDouble(fused_search_us, 1), "0",
                   FormatDouble(static_cast<double>(fused.work_units) / fused.searches, 0)});
  std::printf(
      "%sreplay elimination: %zu -> 0 per search at %d base waves (%.1fx wall-clock); "
      "plan quality: fused %.1f us vs coarse-replay %.1f us\n"
      "(the replay path scores the coarse space at %.2f us/candidate; the fused "
      "B&B walks the full fine-resolution bounded space at %.3f us/node)\n\n",
      mr_table.Render().c_str(), replay_replays_per_search, fused.base_waves, mr_speedup,
      fused.best_us, replay.best_us,
      replay.seconds * 1e6 / static_cast<double>(replay.replays),
      fused.seconds * 1e6 / static_cast<double>(fused.work_units));

  // Cold vs warm batch sweeps through the full planner pipeline.
  const std::vector<ScenarioSpec> specs = SweepSpecs(shapes);
  OverlapEngine cold_engine(cluster, bnb_config, EngineOptions{.jitter = false});
  const double cold_us = TimeSweep(&cold_engine, specs) * 1e6;
  const size_t searches_after_cold = cold_engine.tuner().search_count();
  const double warm_us = TimeSweep(&cold_engine, specs) * 1e6;
  // A warm sweep must not search at all; the JSON records the proof.
  const size_t warm_searches = cold_engine.tuner().search_count() - searches_after_cold;
  std::printf("Sweep over %zu specs: cold %.0f us, warm %.0f us (%zu warm searches)\n",
              specs.size(), cold_us, warm_us, warm_searches);

  char line[2048];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\": \"planner\", \"smoke\": %s, \"effective_waves_min\": %d, "
      "\"searches_per_path\": %zu, \"legacy_search_us\": %.3f, "
      "\"legacy_candidates_per_sec\": %.0f, \"legacy_allocs_per_candidate\": %.4f, "
      "\"bnb_search_us\": %.3f, \"bnb_searches_per_sec\": %.1f, \"bnb_nodes_per_sec\": %.0f, "
      "\"bnb_allocs_per_node\": %.6f, \"speedup_vs_legacy\": %.2f, "
      "\"runbatch_cold_us\": %.1f, \"runbatch_warm_us\": %.1f, \"runbatch_specs\": %zu, "
      "\"warm_sweep_searches\": %zu, "
      "\"mr_ranks\": %zu, \"mr_base_waves\": %d, \"mr_replay_search_us\": %.3f, "
      "\"mr_fused_search_us\": %.3f, \"mr_speedup\": %.2f, "
      "\"mr_replays_per_search\": %zu, \"mr_fused_replays\": 0, "
      "\"mr_fused_nodes_per_search\": %zu, \"mr_replay_best_us\": %.4f, "
      "\"mr_fused_best_us\": %.4f}",
      smoke ? "true" : "false", std::min(baseline.min_waves, bnb.min_waves), baseline.searches,
      baseline_per_search_us, baseline.work_units / baseline.seconds,
      static_cast<double>(baseline.allocations) / baseline.work_units, bnb_per_search_us,
      bnb.searches / bnb.seconds, bnb.work_units / bnb.seconds, bnb_allocs_per_node, speedup,
      cold_us, warm_us, specs.size(), warm_searches,
      imbalanced_shapes.size(), fused.base_waves, replay_search_us, fused_search_us,
      mr_speedup, replay_replays_per_search, fused.work_units / fused.searches,
      replay.best_us, fused.best_us);
  FILE* json = std::fopen("BENCH_planner.json", "w");
  if (json == nullptr) {
    std::printf("FAILED to open BENCH_planner.json\n");
    return false;
  }
  std::fprintf(json, "%s\n", line);
  std::fclose(json);
  std::printf("series written to BENCH_planner.json\n");
  if (!AppendTrajectoryPoint(history_path, line)) {
    return false;
  }

  bool ok = true;
  if (std::min(baseline.min_waves, bnb.min_waves) < 30) {
    std::printf("FAIL: benchmark shapes below 30 effective waves\n");
    ok = false;
  }
  if (speedup < 10.0) {
    std::printf("FAIL: cold-search speedup %.1fx misses the 10x gate\n", speedup);
    ok = false;
  }
  // Allocation-freedom: the B&B's per-search allocations are a small
  // constant (setup copies, the latency table, the returned plan) that
  // does not grow with the candidate count — i.e. zero allocations per
  // candidate in the steady-state loop.
  const double bnb_allocs_per_search = static_cast<double>(bnb.allocations) / bnb.searches;
  if (bnb_allocs_per_search > 32.0) {
    std::printf("FAIL: B&B allocates %.1f per search (want a small constant)\n",
                bnb_allocs_per_search);
    ok = false;
  }
  // Multi-rank gates: the benchmark regime (4 ranks, 20+ base waves), the
  // >= 50x replay elimination (the fused search performs zero full-timeline
  // replays; the replay path pays one per scored candidate), and the fused
  // optimum not losing to the coarse replay-scored set. The last is not a
  // superset guarantee — an up-projected coarse candidate can leave the
  // fused bounded space (its first group can exceed s1 after rounding) —
  // but the fused search's fine-resolution safety families, heaviest-rank
  // incumbent, and far larger bounded space win on every regime measured;
  // a trip of this gate means real search-quality regression, not noise
  // (plan values are deterministic).
  if (fused.base_waves < 20 || imbalanced_shapes.size() < 4) {
    std::printf("FAIL: multi-rank benchmark below 20 base waves / 4 ranks\n");
    ok = false;
  }
  if (replay_replays_per_search < 50) {
    std::printf("FAIL: replay baseline performs %zu full-timeline replays per search "
                "(need >= 50 for the 50x elimination gate)\n",
                replay_replays_per_search);
    ok = false;
  }
  if (fused.best_us > replay.best_us * (1.0 + 1e-6)) {
    std::printf("FAIL: fused multi-rank best %.4f us loses to the replay-scored %.4f us\n",
                fused.best_us, replay.best_us);
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace flo

int main(int argc, char** argv) {
  const flo::BenchArgs args = flo::ParseBenchArgs(argc, argv);
  return flo::Run(args.smoke, args.history) ? 0 : 1;
}
