// plan_sweep: the planner user's cold path. A closed loop plans and
// executes a seed-drawn spec grid (Llama3-70B inference and training,
// imbalanced Mixtral All-to-All, Step-Video, and the four primitives at
// several M), each pass from fresh planner state: new engines, so every
// spec pays its tuner search (branch-and-bound, or the joint multi-rank
// search for imbalanced All-to-All) and its operator replay.
//
// Set-up is the offline stage: GEMM profiling and collective latency
// curves for every spec, plus the sequential baselines they price.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/flashoverlap.h"
#include "src/models/e2e.h"
#include "src/models/workloads.h"
#include "src/util/stats.h"
#include "workloads.h"

namespace flobench {
namespace {

struct GridSpec {
  flo::ScenarioSpec spec;
  // Index into Grid::clusters.
  int cluster = 0;
};

struct Grid {
  std::vector<flo::ClusterSpec> clusters;
  flo::EngineOptions options;
  std::vector<GridSpec> specs;
};

// One engine per Grid::clusters entry.
using Engines = std::vector<std::unique_ptr<flo::OverlapEngine>>;

// The grid is fixed, so every seed asks for the same planning work; the
// seed draws the order specs arrive in and the simulated devices' jitter
// (EngineOptions::seed_salt), which moves every simulated time.
Grid MakeGrid(uint64_t seed) {
  Grid grid;
  grid.clusters = {flo::MakeA800Cluster(8), flo::MakeA800Cluster(4)};
  grid.options.seed_salt = seed;
  auto add = [&grid](flo::ScenarioSpec spec, int cluster) {
    grid.specs.push_back({std::move(spec), cluster});
  };
  // Llama3-70B (TP=8): inference ops end in AllReduce, training ops in
  // ReduceScatter, at three prefill chunk sizes.
  for (const flo::CommPrimitive primitive :
       {flo::CommPrimitive::kAllReduce, flo::CommPrimitive::kReduceScatter}) {
    for (const int64_t tokens : {4096, 8192, 16384}) {
      for (const int64_t k : {1024, 3584}) {
        add(flo::ScenarioSpec::Overlap(flo::GemmShape{tokens, 8192, k}, primitive), 0);
      }
    }
  }
  // Mixtral-8x7B expert All-to-All under routing skew (EP=4 x TP=2).
  for (const int64_t tokens : {8192, 16384}) {
    for (const double imbalance : {1.2, 1.4}) {
      add(flo::ScenarioSpec::Imbalanced(
              flo::ImbalancedShapes(flo::GemmShape{tokens, 4096, 7168}, 8, imbalance),
              flo::CommPrimitive::kAllToAll),
          0);
    }
  }
  // Step-Video-T2V DiT (TP=4).
  for (const int64_t tokens : {16896, 33792}) {
    for (const int64_t k : {1536, 6144}) {
      add(flo::ScenarioSpec::Overlap(flo::GemmShape{tokens, 6144, k},
                                     flo::CommPrimitive::kAllReduce),
          1);
    }
  }
  // The four primitives at three M each.
  for (const flo::CommPrimitive primitive :
       {flo::CommPrimitive::kAllReduce, flo::CommPrimitive::kReduceScatter,
        flo::CommPrimitive::kAllGather, flo::CommPrimitive::kAllToAll}) {
    for (const int64_t m : {2048, 4096, 8192}) {
      add(flo::ScenarioSpec::Overlap(flo::GemmShape{m, 8192, 4096}, primitive), 0);
    }
  }
  flo::Rng rng(seed * 0x9e3779b97f4a7c15ull + 37);
  for (size_t i = grid.specs.size() - 1; i > 0; --i) {
    std::swap(grid.specs[i], grid.specs[rng.NextBelow(i + 1)]);
  }
  return grid;
}

Engines FreshEngines(const Grid& grid) {
  Engines engines;
  for (const flo::ClusterSpec& cluster : grid.clusters) {
    engines.push_back(std::make_unique<flo::OverlapEngine>(cluster, flo::TunerConfig{},
                                                           grid.options));
  }
  return engines;
}

// Offline stage: GEMM configurations and collective latency curves for
// every spec, and the sequential baseline of each. Returns the baselines.
// It is sub-millisecond, so Measure repeats it before every pass; `host`
// receives its time.
std::vector<double> SetUp(const Grid& grid, HostSamples* host) {
  const Stopwatch watch;
  Engines engines = FreshEngines(grid);
  std::vector<double> sequential_us;
  for (const GridSpec& entry : grid.specs) {
    flo::OverlapEngine& engine = *engines[static_cast<size_t>(entry.cluster)];
    const int gpus = grid.clusters[static_cast<size_t>(entry.cluster)].gpu_count;
    for (const flo::GemmShape& shape : entry.spec.RankShapes(gpus)) {
      engine.tuner().GemmConfigFor(shape);
    }
    engine.tuner().LatencyCurveFor(entry.spec.primitive);
    sequential_us.push_back(engine.Execute(SequentialOf(entry.spec)).total_us);
  }
  host->AddSetUp(watch.CpuS(), watch.WallS());
  return sequential_us;
}

struct SweepPass {
  // Process CPU time of the pass.
  double cpu_s = 0.0;
  std::vector<double> host_us;
  std::vector<double> overlap_us;
  uint64_t digest = 0;
  size_t completed = 0;
  // Traced passes: per-call span times of the tuner and the executor.
  std::vector<double> tune_us;
  std::vector<double> tune_nodes;
  std::vector<double> tune_mr_us;
  std::vector<double> exec_us;
};

// One closed-loop pass from fresh planner state. With a span log, each
// spec's tuner search and its execution are timed as separate calls.
// `engines` receives the pass's (now warm) engines; `host`, when given,
// the pass's time.
SweepPass RunPass(const Grid& grid, SpanLog* log, Engines* engines,
                  HostSamples* host = nullptr) {
  SweepPass pass;
  Digest digest;
  const Stopwatch watch;
  {
    ScopedSpan pass_span(log, "plan_sweep pass", "bench");
    *engines = FreshEngines(grid);
    for (const GridSpec& entry : grid.specs) {
      flo::OverlapEngine& engine = *(*engines)[static_cast<size_t>(entry.cluster)];
      const int64_t spec_start = NowNs();
      flo::OverlapRun run;
      if (log != nullptr) {
        const ColdSpec cold = PlanAndExecute(&engine, entry.spec, log);
        if (cold.searched) {
          (cold.multi_rank ? pass.tune_mr_us : pass.tune_us).push_back(cold.tune_us);
          pass.tune_nodes.push_back(cold.search_nodes);
        }
        pass.exec_us.push_back(cold.exec_us);
        run = cold.run;
      } else {
        run = engine.Execute(entry.spec);
      }
      pass.host_us.push_back(static_cast<double>(NowNs() - spec_start) / 1e3);
      pass.overlap_us.push_back(run.total_us);
      pass.completed += std::isfinite(run.total_us) && run.total_us > 0.0 ? 1 : 0;
      digest.Mix(run.total_us);
      digest.Mix(run.predicted_us);
      for (const int group : run.partition.group_sizes) {
        digest.Mix(static_cast<uint64_t>(group));
      }
    }
  }
  pass.cpu_s = watch.CpuS();
  if (host != nullptr) {
    host->AddPass(static_cast<double>(pass.completed), pass.cpu_s, watch.WallS());
  }
  pass.digest = digest.value();
  return pass;
}

// Geometric mean over specs of sequential / overlapped simulated time.
double OverlapSpeedup(const std::vector<double>& sequential_us,
                      const std::vector<double>& overlap_us) {
  std::vector<double> ratios;
  for (size_t i = 0; i < overlap_us.size(); ++i) {
    ratios.push_back(sequential_us[i] / overlap_us[i]);
  }
  return flo::GeoMean(ratios);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : flo::Summarize(values).mean;
}

void CheckPass(const SweepPass& pass, const SweepPass& reference, const char* label,
               Result* result) {
  const std::string tag = std::string("plan_sweep ") + label + ": ";
  result->Check(pass.completed == pass.overlap_us.size(), tag + "a spec failed to execute");
  result->Check(pass.digest == reference.digest,
                tag + "simulated results differ from the first pass");
}

Result Measure(const Args& args, const Grid& grid) {
  Result result;
  HostSamples host;
  const std::vector<double> sequential_us = SetUp(grid, &host);
  std::optional<SweepPass> reference;
  std::vector<double> host_us;
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  int64_t passes = 0;
  int64_t rss_kb = 0;
  while (passes < kRssPasses || NowNs() < deadline) {
    host.Step();
    // One more set-up sample per pass, so the samples span the run.
    result.Check(SetUp(grid, &host) == sequential_us, "plan_sweep: sequential baselines changed");
    Engines engines;
    const SweepPass pass = RunPass(grid, nullptr, &engines, &host);
    if (!reference.has_value()) {
      reference = pass;
    }
    CheckPass(pass, *reference, "pass", &result);
    host_us.insert(host_us.end(), pass.host_us.begin(), pass.host_us.end());
    result.attempted += grid.specs.size();
    result.failed += grid.specs.size() - pass.completed;
    if (++passes == kRssPasses) {
      rss_kb = PeakRssKb();
    }
  }
  const SweepPass& ref = *reference;
  result.Add("throughput_per_s", host.Throughput(), "1/s");
  result.Add("setup_s", host.SetUpS(), "s");
  result.Add("peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB");
  result.Add("completed_frac",
             static_cast<double>(ref.completed) / static_cast<double>(grid.specs.size()), "frac");
  const double speedup = OverlapSpeedup(sequential_us, ref.overlap_us);
  result.Add("sim_p50_ms", flo::Percentile(ref.overlap_us, 50.0) / 1e3, "sim_ms");
  result.Add("sim_p99_ms", flo::Percentile(ref.overlap_us, 99.0) / 1e3, "sim_ms");
  result.Add("overlap_speedup", speedup, "x");

  Report("plan_sweep: %zu specs/pass, %lld passes in %.1f s", grid.specs.size(),
         static_cast<long long>(passes), args.seconds);
  host.Report("specs");
  Report("  host_us_p50 %.1f us, host_us_p99 %.1f us per spec (%zu samples)",
         flo::Percentile(host_us, 50.0), flo::Percentile(host_us, 99.0), host_us.size());
  Report("  sim overlapped time per spec: p50 %.3f ms, p99 %.3f ms (%zu samples); "
         "overlap_speedup %.6f (geomean sequential / overlapped)",
         flo::Percentile(ref.overlap_us, 50.0) / 1e3, flo::Percentile(ref.overlap_us, 99.0) / 1e3,
         ref.overlap_us.size(), speedup);
  return result;
}

Result Trace(const Args& args, const Grid& grid) {
  Result result;
  std::optional<SweepPass> reference;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> tune_us;
  std::vector<double> tune_nodes;
  std::vector<double> tune_mr_us;
  std::vector<double> exec_us;
  auto log = std::make_unique<SpanLog>();
  Engines warm_engines;
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 0.6e9);
  int rounds = 0;
  while (rounds < 2 || NowNs() < deadline) {
    warm_engines.clear();
    const SweepPass untraced = RunPass(grid, nullptr, &warm_engines);
    if (!reference.has_value()) {
      reference = untraced;
    }
    CheckPass(untraced, *reference, "untraced pass", &result);
    untraced_s.push_back(untraced.cpu_s);
    log = std::make_unique<SpanLog>();
    warm_engines.clear();
    const SweepPass traced = RunPass(grid, log.get(), &warm_engines);
    CheckPass(traced, *reference, "traced pass", &result);
    traced_s.push_back(traced.cpu_s);
    tune_us.insert(tune_us.end(), traced.tune_us.begin(), traced.tune_us.end());
    tune_nodes.insert(tune_nodes.end(), traced.tune_nodes.begin(), traced.tune_nodes.end());
    tune_mr_us.insert(tune_mr_us.end(), traced.tune_mr_us.begin(), traced.tune_mr_us.end());
    exec_us.insert(exec_us.end(), traced.exec_us.begin(), traced.exec_us.end());
    result.attempted += 2 * grid.specs.size();
    result.failed += 2 * (grid.specs.size() - untraced.completed);
    ++rounds;
  }

  // core probes on the last traced pass's warm engines.
  const int64_t samples = 4096;
  auto entry_at = [&](int64_t i) -> const GridSpec& {
    return grid.specs[static_cast<size_t>(i) % grid.specs.size()];
  };
  auto engine_at = [&](int64_t i) -> flo::OverlapEngine& {
    return *warm_engines[static_cast<size_t>(entry_at(i).cluster)];
  };
  std::vector<uint64_t> keys;
  for (int64_t i = 0; i < samples; ++i) {
    keys.push_back(engine_at(i).planner().CanonicalKey(entry_at(i).spec));
  }
  const double key_ns = Probe(log.get(), "OverlapPlanner::CanonicalKey", "core", samples,
                              [&](int64_t i) {
                                Sink(engine_at(i).planner().CanonicalKey(entry_at(i).spec));
                              });
  const flo::PlanStore& store = warm_engines[0]->plan_store();
  const double find_ns = Probe(log.get(), "PlanStore::Find", "core", samples, [&](int64_t i) {
    Sink(store.Find(keys[static_cast<size_t>(i)]) != nullptr ? 1 : 0);
  });
  const double findcopy_ns =
      Probe(log.get(), "PlanStore::FindCopy", "core", samples, [&](int64_t i) {
        Sink(store.FindCopy(keys[static_cast<size_t>(i)]).has_value() ? 1 : 0);
      });
  for (int64_t i = 0; i < static_cast<int64_t>(grid.specs.size()); ++i) {
    engine_at(i).ExecuteMemoized(entry_at(i).spec);
  }
  const double memo_ns =
      Probe(log.get(), "OverlapEngine::ExecuteMemoized", "core", samples, [&](int64_t i) {
        Sink(static_cast<uint64_t>(engine_at(i).ExecuteMemoized(entry_at(i).spec).total_us));
      });
  const std::string trace_path = args.out_dir + "/plan_sweep_trace.json";
  result.Check(log->WriteChromeTrace(trace_path), "could not write " + trace_path);

  const double untraced_med = flo::Percentile(untraced_s, 50.0);
  // Layers plan_sweep bypasses (the fleet, serving, event core,
  // scheduler, faults, observability plane) read zero.
  result.Add("cluster.host_ns_per_req", 0.0, "ns");
  result.Add("cluster.arrival_gap_ns_p50", 0.0, "ns");
  result.Add("cluster.arrival_gap_ns_p99", 0.0, "ns");
  result.Add("cluster.snapshot_ns", 0.0, "ns");
  result.Add("cluster.place_ns", 0.0, "ns");
  result.Add("core.key_ns", key_ns, "ns");
  result.Add("core.store_find_ns", find_ns, "ns");
  result.Add("core.store_findcopy_ns", findcopy_ns, "ns");
  result.Add("core.exec_memo_ns", memo_ns, "ns");
  result.Add("serve.queue_ns_per_req", 0.0, "ns");
  result.Add("sim.event_ns", 0.0, "ns");
  result.Add("sim.events_per_req", 0.0, "count");
  result.Add("core.exec_replay_us", Mean(exec_us), "us");
  result.Add("core.tune_us", Mean(tune_us), "us");
  result.Add("core.tune_nodes", Mean(tune_nodes), "count");
  result.Add("core.tune_mr_us", Mean(tune_mr_us), "us");
  result.Add("sched.pick_ns", 0.0, "ns");
  result.Add("sched.preempts_per_req", 0.0, "count");
  result.Add("sched.backfills", 0.0, "count");
  result.Add("sched.head_delays", 0.0, "count");
  result.Add("fault.requeued_per_req", 0.0, "count");
  result.Add("core.store_evictions", 0.0, "count");
  size_t searches = 0;
  for (const auto& engine : warm_engines) {
    searches += engine->tuner().search_count();
  }
  result.Add("core.searches_per_key",
             static_cast<double>(searches) / static_cast<double>(grid.specs.size()), "count");
  result.Add("cluster.spawns", 0.0, "count");
  result.Add("cluster.drains", 0.0, "count");
  result.Add("cluster.prespawns", 0.0, "count");
  result.Add("cluster.import_us_per_plan", 0.0, "us");
  result.Add("serve.rss_kb_per_req", 0.0, "KiB");
  result.Add("obs.overhead_pct", 0.0, "%");
  result.Add("obs.spans_dropped_frac", 0.0, "frac");
  result.Add("trace_overhead_pct",
             100.0 * (flo::Percentile(traced_s, 50.0) / untraced_med - 1.0), "%");

  Report("plan_sweep traced: %d rounds of untraced / traced passes, trace at %s", rounds,
         trace_path.c_str());
  for (const auto& [layer, self_ns] : log->SelfNsByLayer()) {
    Report("  span self time %-8s %12.3f ms", layer.c_str(), static_cast<double>(self_ns) / 1e6);
  }
  return result;
}

}  // namespace

Result RunPlanSweep(const Args& args) {
  const Grid grid = MakeGrid(args.seed);
  return args.trace ? Trace(args, grid) : Measure(args, grid);
}

}  // namespace flobench
