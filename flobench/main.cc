// The repository benchmark's entry point.
//
// Usage: flobench --workload fleet_warm|fleet_churn|plan_sweep --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints a human-readable report, then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the separate
// traced passes, reports the per-layer metrics and writes the Chrome trace
// of the traced pass to DIR/<workload>_trace.json. Exits 1 when a
// correctness check fails (the JSON line still reports it), 2 on bad
// arguments.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace flobench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload;
}

std::string Number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

void PrintJson(const Result& result) {
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + Number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace flobench

int main(int argc, char** argv) {
  flobench::Args args;
  if (!flobench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flobench --workload fleet_warm|fleet_churn|plan_sweep --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  flobench::Result result;
  if (args.workload == "fleet_warm") {
    result = flobench::RunFleetWarm(args);
  } else if (args.workload == "fleet_churn") {
    result = flobench::RunFleetChurn(args);
  } else if (args.workload == "plan_sweep") {
    result = flobench::RunPlanSweep(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  for (const flobench::Metric& metric : result.metrics) {
    result.Check(std::isfinite(metric.value), "metric " + metric.name + " is not finite");
    flobench::Report("%-28s %16.6f %s", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& failure : result.failures) {
    flobench::Report("CORRECTNESS FAILURE: %s", failure.c_str());
  }
  std::fflush(stdout);
  flobench::PrintJson(result);
  return result.correct() ? 0 : 1;
}
