#include "bench_util.h"

#include <sched.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <unordered_set>

#include "src/sim/trace_export.h"
#include "src/util/stats.h"

namespace flobench {

namespace {

uint64_t XorShift(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

constexpr int64_t kCpuMoveNs = 1000000000;

}  // namespace

HostSamples::HostSamples() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus_.push_back(cpu);
      }
    }
  }
  uint64_t state = 0x9e3779b97f4a7c15ull;
  keys_.resize(20480);
  for (uint64_t& key : keys_) {
    key = XorShift(&state) & 0xffff;
  }
  values_.resize(8192);
  for (double& value : values_) {
    value = static_cast<double>(XorShift(&state) % 1000003);
  }
  Calibrate();  // warm-up: first-touch page faults
  Calibrate();
}

void HostSamples::Step() {
  if (cpus_.size() > 1 && NowNs() >= next_move_ns_) {
    next_move_ns_ = NowNs() + kCpuMoveNs;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_cpu_], &one);
    next_cpu_ = (next_cpu_ + 1) % cpus_.size();
    sched_setaffinity(0, sizeof(one), &one);
  }
  Calibrate();
}

void HostSamples::Calibrate() {
  const int64_t start = CpuNs();
  // The first 4096 keys build the table, all of them probe it.
  std::unordered_set<uint64_t> table(keys_.begin(), keys_.begin() + 4096);
  uint64_t hits = 0;
  for (const uint64_t key : keys_) {
    hits += table.count(key);
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  Sink(hits + static_cast<uint64_t>(sorted[sorted.size() / 2]));
  const double kernel_ns = static_cast<double>(CpuNs() - start);
  kernel_ns_.push_back(kernel_ns);
  scale_ = kNominalKernelNs / kernel_ns;
}

void HostSamples::AddPass(double items, double cpu_s, double wall_s) {
  cpu_throughput_.push_back(items / cpu_s);
  wall_throughput_.push_back(items / wall_s);
  throughput_.push_back(items / (cpu_s * scale_));
}

void HostSamples::AddSetUp(double cpu_s, double wall_s) {
  cpu_setup_s_.push_back(cpu_s);
  wall_setup_s_.push_back(wall_s);
  setup_s_.push_back(cpu_s * scale_);
}

double HostSamples::Throughput() const { return flo::Percentile(throughput_, 50.0); }

double HostSamples::SetUpS() const { return flo::Percentile(setup_s_, 50.0); }

void HostSamples::Report(const char* items) const {
  flobench::Report("  throughput_per_s, median over %zu passes of %s per second: %.1f scaled CPU "
                   "(reported), %.1f CPU, %.1f wall",
                   throughput_.size(), items, Throughput(),
                   flo::Percentile(cpu_throughput_, 50.0), flo::Percentile(wall_throughput_, 50.0));
  flobench::Report("  setup_s, median over %zu set-ups: %.6f scaled CPU (reported), %.6f CPU, "
                   "%.6f wall",
                   setup_s_.size(), SetUpS(), flo::Percentile(cpu_setup_s_, 50.0),
                   flo::Percentile(wall_setup_s_, 50.0));
  flobench::Report("  calibration kernel: median %.1f us CPU over %zu runs (nominal %.1f us), "
                   "over %zu CPUs",
                   flo::Percentile(kernel_ns_, 50.0) / 1e3, kernel_ns_.size(),
                   kNominalKernelNs / 1e3, std::max<size_t>(cpus_.size(), 1));
}

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

void Digest::Mix(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ull;
  }
}

void Digest::Mix(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Mix(bits);
}

int32_t SpanLog::Begin(const char* name, const char* layer, int64_t calls) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.calls = calls;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::End(int32_t id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns += span.end_ns - span.start_ns;
  }
}

void SpanLog::Leaf(const char* name, const char* layer, int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns += end_ns - start_ns;
  }
  spans_.push_back(span);
}

std::vector<std::pair<std::string, int64_t>> SpanLog::SelfNsByLayer() const {
  std::map<std::string, int64_t> self;
  for (const Span& span : spans_) {
    self[span.layer] += (span.end_ns - span.start_ns) - span.child_ns;
  }
  return {self.begin(), self.end()};
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  constexpr int64_t kPid = 1;
  flo::ChromeTraceBuilder trace;
  trace.ProcessName(kPid, "flobench");
  std::map<std::string, int64_t> tids;
  for (const Span& span : spans_) {
    tids.emplace(span.layer, 0);
  }
  int64_t next_tid = 1;
  for (auto& [layer, tid] : tids) {
    tid = next_tid++;
    trace.ThreadName(kPid, tid, layer);
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    const double dur_us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    const double self_us = dur_us - static_cast<double>(span.child_ns) / 1e3;
    trace.Complete(kPid, tids[span.layer], span.name,
                   static_cast<double>(span.start_ns - origin) / 1e3, dur_us,
                   {flo::TraceArg::Int("calls", span.calls),
                    flo::TraceArg::Num("self_us", self_us)});
  }
  return trace.WriteFile(path);
}

ColdSpec PlanAndExecute(flo::OverlapEngine* engine, const flo::ScenarioSpec& spec, SpanLog* log) {
  ColdSpec cold;
  const std::optional<flo::PretuneRequest> request = engine->planner().TuningRequest(spec);
  if (request.has_value()) {
    cold.searched = true;
    cold.multi_rank = request->shapes.size() != 1;
    ScopedSpan span(log, cold.multi_rank ? "Tuner::TuneImbalanced" : "Tuner::Tune", "core");
    const int64_t start = NowNs();
    cold.search_nodes = static_cast<double>(
        cold.multi_rank ? engine->tuner().TuneImbalanced(request->shapes, request->primitive)
                              .search_nodes
                        : engine->tuner().Tune(request->shapes[0], request->primitive)
                              .search_nodes);
    cold.tune_us = static_cast<double>(NowNs() - start) / 1e3;
  }
  ScopedSpan span(log, "OverlapEngine::Execute", "core");
  const int64_t start = NowNs();
  cold.run = engine->Execute(spec);
  cold.exec_us = static_cast<double>(NowNs() - start) / 1e3;
  return cold;
}

void Report(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fputc('\n', stdout);
}

}  // namespace flobench
