// Shared plumbing for the repository benchmark: the run's arguments and
// result, host clocks, the calibrated host-time samples, peak-RSS reads,
// the in-memory span log the traced passes record into, and the timed
// cold plan-and-execute of one spec.
//
// Spans are recorded only around the benchmark's own calls into the
// library's public functions (serve, cluster, core, sim, sched, fault,
// obs); nothing inside the library is instrumented. A span's self time is
// its duration minus the time its direct children cover.
#ifndef FLOBENCH_BENCH_UTIL_H_
#define FLOBENCH_BENCH_UTIL_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/flashoverlap.h"

namespace flobench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory the traced run writes its Chrome trace into.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // End-to-end metrics (untraced run) or per-layer metrics (traced run),
  // in print order.
  std::vector<Metric> metrics;

  bool correct() const { return failures.empty(); }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process (every thread), in ns.
inline int64_t CpuNs() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

// Process CPU time and wall time since construction.
class Stopwatch {
 public:
  double CpuS() const { return static_cast<double>(CpuNs() - cpu_ns_) / 1e9; }
  double WallS() const { return static_cast<double>(NowNs() - wall_ns_) / 1e9; }

 private:
  int64_t wall_ns_ = NowNs();
  int64_t cpu_ns_ = CpuNs();
};

// The host-time samples of an untraced run, and the two host-time
// end-to-end metrics made from them: throughput_per_s and setup_s.
//
// The host is a few CPUs of a shared machine, and its speed moves by up
// to 2x, in spells from a fraction of a second to minutes, with the load
// of programs outside the container. Three things keep that out of the
// metrics:
//  - Samples are process CPU time, so time other programs hold this
//    one's CPU does not count.
//  - Before every pass, Step() times a fixed calibration kernel (hash
//    table build and probes, a sort: the branchy, allocating integer
//    work the library does) on the CPU clock, and the samples up to the
//    next Step() are scaled by kNominalKernelNs / that time, i.e. to the
//    host speed at which the kernel takes kNominalKernelNs. What the CPU
//    clock still picks up (a busy sibling hyperthread, cache pressure,
//    clock frequency) slows the kernel and the pass alike.
//  - Step() also moves the thread (and the threads it starts later) to
//    the next of the process's CPUs once a second, so a run samples every
//    CPU rather than the spells of the one it started on.
// The metrics are medians over the run's scaled samples.
class HostSamples {
 public:
  // Kernel time that defines the reference host speed: about the kernel's
  // median on the 4-vCPU Intel Xeon VM this benchmark was built on.
  static constexpr double kNominalKernelNs = 1.4e6;

  // Calibrates once, so set-ups before the first Step() are scaled.
  HostSamples();
  // Moves to the next CPU when one is due, then times the calibration
  // kernel.
  void Step();
  // One pass that completed `items` in `cpu_s` CPU and `wall_s` wall
  // seconds.
  void AddPass(double items, double cpu_s, double wall_s);
  void AddSetUp(double cpu_s, double wall_s);

  // Median over passes of scaled items per CPU second.
  double Throughput() const;
  // Median over set-ups of scaled CPU seconds.
  double SetUpS() const;
  // Report lines: the scaled medians, and the unscaled CPU-clock and
  // wall-clock medians and the kernel's median time, for comparison.
  void Report(const char* items) const;

 private:
  void Calibrate();

  std::vector<int> cpus_;
  size_t next_cpu_ = 0;
  int64_t next_move_ns_ = 0;
  // Kernel inputs: hash keys and values to sort.
  std::vector<uint64_t> keys_;
  std::vector<double> values_;
  // kNominalKernelNs / the latest kernel time.
  double scale_ = 1.0;
  std::vector<double> kernel_ns_;
  std::vector<double> throughput_, cpu_throughput_, wall_throughput_;
  std::vector<double> setup_s_, cpu_setup_s_, wall_setup_s_;
};

// peak_rss_mb is VmHWM after this many passes: the run's own sample
// vectors, and a reused fleet's footprint, grow with the pass count, which
// follows the host's speed (and the speed of the code under test).
constexpr int64_t kRssPasses = 64;

// Peak resident set (VmHWM) of this process, in KiB; 0 if unreadable.
int64_t PeakRssKb();

// FNV-1a accumulator for order-defined digests of simulated outputs.
class Digest {
 public:
  void Mix(uint64_t value);
  void Mix(double value);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// In-memory span log. Begin/End nest: a span begun while another is open
// becomes its child. `layer` names the library module the call enters.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    const char* layer = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    // Calls the span covers (a probe loop records one span per loop).
    int64_t calls = 1;
    // Time covered by direct children, accumulated as they end.
    int64_t child_ns = 0;
  };

  void Reserve(size_t spans) { spans_.reserve(spans); }
  int32_t Begin(const char* name, const char* layer, int64_t calls = 1);
  void End(int32_t span);
  // Records a closed leaf span under the currently open span.
  void Leaf(const char* name, const char* layer, int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  // Self time summed per layer, in ns, sorted by layer name.
  std::vector<std::pair<std::string, int64_t>> SelfNsByLayer() const;
  // Chrome trace through flo::ChromeTraceBuilder: one complete event per
  // span, one thread per layer.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* layer, int64_t calls = 1)
      : log_(log), id_(log != nullptr ? log->Begin(name, layer, calls) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

// Sink for probe results, so timed calls are not optimized away.
inline volatile uint64_t probe_sink = 0;
inline void Sink(uint64_t value) { probe_sink = probe_sink + value; }

// Times `calls` invocations of `body(i)` inside one span; returns ns per
// call.
template <typename Body>
double Probe(SpanLog* log, const char* name, const char* layer, int64_t calls, Body body) {
  ScopedSpan span(log, name, layer, calls);
  const int64_t start = NowNs();
  for (int64_t i = 0; i < calls; ++i) {
    body(i);
  }
  return static_cast<double>(NowNs() - start) / static_cast<double>(calls);
}

// One spec planned and executed on an engine that has not seen it: the
// tuner search its TuningRequest asks for (Tuner::Tune, or the joint
// multi-rank Tuner::TuneImbalanced), then OverlapEngine::Execute, each
// timed in its own span.
struct ColdSpec {
  // Whether the engine needed a search, and whether it was multi-rank.
  bool searched = false;
  bool multi_rank = false;
  double tune_us = 0.0;
  double search_nodes = 0.0;
  double exec_us = 0.0;
  flo::OverlapRun run;
};
ColdSpec PlanAndExecute(flo::OverlapEngine* engine, const flo::ScenarioSpec& spec, SpanLog* log);

// Human-readable report line (printed before the final JSON line).
void Report(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace flobench

#endif  // FLOBENCH_BENCH_UTIL_H_
