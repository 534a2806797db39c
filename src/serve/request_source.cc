#include "src/serve/request_source.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/models/e2e.h"
#include "src/serve/tenant_registry.h"
#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/parse.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace flo {
namespace {

double ExponentialGap(Rng* rng, double mean) {
  // NextDouble is in [0, 1), so the argument of log stays in (0, 1].
  return -mean * std::log(1.0 - rng->NextDouble());
}

// Tenant names become bare CSV fields of the trace format; a comma or
// newline would produce a file ParseTrace rejects wholesale.
void CheckTenantName(const std::string& tenant) {
  FLO_CHECK(!tenant.empty());
  FLO_CHECK(tenant.find(',') == std::string::npos && tenant.find('\n') == std::string::npos &&
            tenant[0] != '#')
      << "tenant name must be CSV-safe: " << tenant;
}

}  // namespace

ArrivalProcess::ArrivalProcess(double in_burst_mean_us, double idle_mean_us, int burst_len,
                               uint64_t seed)
    : rng_(seed),
      in_burst_mean_us_(in_burst_mean_us),
      idle_mean_us_(idle_mean_us),
      burst_len_(burst_len) {}

ArrivalProcess ArrivalProcess::Poisson(double mean_interarrival_us, uint64_t seed) {
  FLO_CHECK_GT(mean_interarrival_us, 0.0);
  // Poisson is the degenerate burst: every arrival is a burst head with
  // the plain mean gap (bit-identical to the historical generator).
  return ArrivalProcess(mean_interarrival_us, mean_interarrival_us, 1, seed);
}

ArrivalProcess ArrivalProcess::Bursty(double mean_interarrival_us, double burstiness,
                                      int burst_len, uint64_t seed) {
  FLO_CHECK_GT(mean_interarrival_us, 0.0);
  FLO_CHECK_GE(burstiness, 1.0);
  FLO_CHECK_GT(burst_len, 0);
  const double in_burst_mean = mean_interarrival_us / burstiness;
  // Per burst of `burst_len` arrivals, the expected total must stay
  // burst_len * mean: one idle gap absorbs what the burst_len - 1 short
  // gaps (plus its own slot) save.
  const double idle_mean =
      mean_interarrival_us + (burst_len - 1) * (mean_interarrival_us - in_burst_mean);
  return ArrivalProcess(in_burst_mean, idle_mean, burst_len, seed);
}

SimTime ArrivalProcess::Next() {
  const bool burst_head = index_ % burst_len_ == 0;
  ++index_;
  t_ += ExponentialGap(&rng_, burst_head ? idle_mean_us_ : in_burst_mean_us_);
  return t_;
}

std::vector<SimTime> PoissonArrivals(double mean_interarrival_us, int count, uint64_t seed) {
  FLO_CHECK_GE(count, 0);
  ArrivalProcess process = ArrivalProcess::Poisson(mean_interarrival_us, seed);
  std::vector<SimTime> arrivals;
  arrivals.reserve(count);
  for (int i = 0; i < count; ++i) {
    arrivals.push_back(process.Next());
  }
  return arrivals;
}

std::vector<SimTime> BurstyArrivals(double mean_interarrival_us, double burstiness,
                                    int burst_len, int count, uint64_t seed) {
  FLO_CHECK_GE(count, 0);
  ArrivalProcess process =
      ArrivalProcess::Bursty(mean_interarrival_us, burstiness, burst_len, seed);
  std::vector<SimTime> arrivals;
  arrivals.reserve(count);
  for (int i = 0; i < count; ++i) {
    arrivals.push_back(process.Next());
  }
  return arrivals;
}

std::vector<ScenarioSpec> WorkloadSpecs(const Workload& workload) {
  std::vector<ScenarioSpec> specs;
  for (const WorkloadOp& op : workload.ops) {
    for (int i = 0; i < op.count; ++i) {
      if (op.primitive == CommPrimitive::kAllToAll && op.imbalance > 1.0) {
        specs.push_back(ScenarioSpec::Imbalanced(
            ImbalancedShapes(op.shape, workload.cluster.gpu_count, op.imbalance),
            op.primitive));
      } else {
        specs.push_back(ScenarioSpec::Overlap(op.shape, op.primitive));
      }
    }
  }
  return specs;
}

std::vector<ServeRequest> MakeRequestStream(const std::string& tenant,
                                            const std::vector<ScenarioSpec>& specs,
                                            const std::vector<SimTime>& arrivals,
                                            int64_t first_id) {
  FLO_CHECK(!specs.empty());
  CheckTenantName(tenant);
  const uint32_t tenant_id = InternTenant(tenant);
  std::vector<ServeRequest> stream;
  stream.reserve(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    ServeRequest request;
    request.id = first_id + static_cast<int64_t>(i);
    request.tenant = tenant;
    request.tenant_id = tenant_id;
    request.arrival_us = arrivals[i];
    request.spec = specs[i % specs.size()];
    stream.push_back(std::move(request));
  }
  return stream;
}

std::vector<ServeRequest> MergeStreams(std::vector<std::vector<ServeRequest>> streams) {
  std::vector<ServeRequest> merged;
  for (auto& stream : streams) {
    merged.insert(merged.end(), std::make_move_iterator(stream.begin()),
                  std::make_move_iterator(stream.end()));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const ServeRequest& a, const ServeRequest& b) {
                     return a.arrival_us < b.arrival_us;
                   });
  return merged;
}

std::string SerializeTrace(const std::vector<ServeRequest>& trace) {
  std::ostringstream out;
  out << "arrival_us,tenant,kind,primitive,extra_tiles,shapes\n";
  for (const ServeRequest& request : trace) {
    CheckTenantName(request.tenant);
    // The trace format carries the declarative workload only; silently
    // dropping these fields would make the replay a different scenario.
    FLO_CHECK(!request.spec.forced_partition.has_value() && !request.spec.options.has_value())
        << "forced partitions / per-scenario options are not trace-serializable";
    // ParseTrace rejects these, so writing them would save an unloadable
    // trace: fail at save time, where the bad value originated.
    FLO_CHECK(std::isfinite(request.arrival_us) && request.arrival_us >= 0.0)
        << "arrival_us must be finite and non-negative";
    FLO_CHECK(!request.spec.shapes.empty()) << "spec has no shapes";
    // Exact round-trip, so a replayed trace reproduces the run bit for
    // bit (the same convention as the plan-store format).
    out << FormatDoubleExact(request.arrival_us) << ',' << request.tenant << ','
        << ScenarioKindName(request.spec.kind)
        << ',' << CommPrimitiveName(request.spec.primitive) << ',' << request.spec.extra_tiles
        << ',';
    for (size_t i = 0; i < request.spec.shapes.size(); ++i) {
      const GemmShape& s = request.spec.shapes[i];
      out << (i == 0 ? "" : ";") << s.m << 'x' << s.n << 'x' << s.k;
    }
    out << '\n';
  }
  return out.str();
}

namespace {

std::optional<GemmShape> ShapeFromToken(const std::string& token) {
  std::stringstream stream(token);
  std::string part;
  std::vector<int64_t> dims;
  while (std::getline(stream, part, 'x')) {
    const auto value = TryParseInt64(part);
    if (!value || *value <= 0) {
      return std::nullopt;
    }
    dims.push_back(*value);
  }
  if (dims.size() != 3) {
    return std::nullopt;
  }
  return GemmShape{dims[0], dims[1], dims[2]};
}

}  // namespace

TraceLineResult ParseTraceLine(std::string line, ServeRequest* out) {
  FLO_CHECK(out != nullptr);
  if (!line.empty() && line.back() == '\r') {
    line.pop_back();  // tolerate CRLF trace files
  }
  if (line.empty() || line[0] == '#' || line.rfind("arrival_us,", 0) == 0) {
    return TraceLineResult::kSkip;
  }
  std::stringstream fields(line);
  std::string arrival, tenant, kind, primitive, extra_tiles, shapes;
  if (!std::getline(fields, arrival, ',') || !std::getline(fields, tenant, ',') ||
      !std::getline(fields, kind, ',') || !std::getline(fields, primitive, ',') ||
      !std::getline(fields, extra_tiles, ',') || !std::getline(fields, shapes)) {
    return TraceLineResult::kError;
  }
  ServeRequest request;
  request.tenant = tenant;
  const auto parsed_arrival = TryParseDouble(arrival);
  const auto parsed_extra_tiles = TryParseInt(extra_tiles);
  if (!parsed_arrival || !parsed_extra_tiles) {
    return TraceLineResult::kError;
  }
  request.arrival_us = *parsed_arrival;
  request.spec.extra_tiles = *parsed_extra_tiles;
  // The same constraints SerializeTrace enforces, so a loaded trace
  // always re-serializes.
  if (!std::isfinite(request.arrival_us) || request.arrival_us < 0.0 ||
      request.spec.extra_tiles < 0 || tenant.empty() || tenant[0] == '#') {
    return TraceLineResult::kError;
  }
  const auto parsed_kind = TryScenarioKindFromName(kind);
  const auto parsed_primitive = TryCommPrimitiveFromName(primitive);
  if (!parsed_kind || !parsed_primitive) {
    return TraceLineResult::kError;
  }
  request.spec.kind = *parsed_kind;
  request.spec.primitive = *parsed_primitive;
  std::stringstream shape_stream(shapes);
  std::string token;
  while (std::getline(shape_stream, token, ';')) {
    const auto shape = ShapeFromToken(token);
    if (!shape) {
      return TraceLineResult::kError;
    }
    request.spec.shapes.push_back(*shape);
  }
  if (request.spec.shapes.empty()) {
    return TraceLineResult::kError;
  }
  request.tenant_id = InternTenant(request.tenant);
  *out = std::move(request);
  return TraceLineResult::kRequest;
}

std::optional<std::vector<ServeRequest>> ParseTrace(const std::string& text) {
  std::vector<ServeRequest> trace;
  std::stringstream stream(text);
  std::string line;
  int64_t next_id = 0;
  while (std::getline(stream, line)) {
    ServeRequest request;
    switch (ParseTraceLine(std::move(line), &request)) {
      case TraceLineResult::kSkip:
        break;
      case TraceLineResult::kError:
        return std::nullopt;
      case TraceLineResult::kRequest:
        request.id = next_id++;
        trace.push_back(std::move(request));
        break;
    }
  }
  return trace;
}

bool SaveTraceToFile(const std::vector<ServeRequest>& trace, const std::string& path) {
  return WriteStringToFile(path, SerializeTrace(trace));
}

std::optional<std::vector<ServeRequest>> LoadTraceFromFile(const std::string& path) {
  const std::optional<std::string> text = ReadFileToString(path);
  if (!text.has_value()) {
    return std::nullopt;
  }
  return ParseTrace(*text);
}

}  // namespace flo
