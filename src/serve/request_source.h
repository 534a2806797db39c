// Workload generation for the online serving simulator: request streams
// of ScenarioSpecs arriving over simulated time.
//
// Two sources, both deterministic under a fixed seed:
//  - synthetic arrival processes (Poisson and bursty on/off) zipped with
//    the per-layer ops of a src/models workload;
//  - replayable CSV traces, so a measured or hand-written request mix can
//    be served repeatedly (the serving analogue of the paper's "prepare
//    once, serve many" plan reuse).
#ifndef SRC_SERVE_REQUEST_SOURCE_H_
#define SRC_SERVE_REQUEST_SOURCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/scenario.h"
#include "src/models/workloads.h"
#include "src/sim/event_record.h"
#include "src/util/rng.h"

namespace flo {

struct ServeRequest {
  int64_t id = 0;
  std::string tenant;
  SimTime arrival_us = 0.0;
  ScenarioSpec spec;
  // Interned tenant id (TenantRegistry). 0 = unresolved; admission interns
  // lazily, so hand-built requests may leave it unset. Appended last so
  // positional brace initializers of the four fields above keep working.
  uint32_t tenant_id = 0;
  // Times this request was requeued off a failed replica (src/fault
  // recovery); 0 on first placement. Appended last, like tenant_id.
  int retries = 0;
};

// A request with its plan key, keyed once at placement: the form queue
// lanes hold, extraction hands back and a fleet's requeue pool parks.
struct KeyedRequest {
  ServeRequest request;
  uint64_t key = 0;
};

// Streaming arrival-time generator: the pull-based form of the batch
// generators below, emitting one arrival per Next() call. Bit-identical to
// PoissonArrivals/BurstyArrivals under the same parameters and seed (those
// are now materialized through this class).
class ArrivalProcess {
 public:
  static ArrivalProcess Poisson(double mean_interarrival_us, uint64_t seed);
  static ArrivalProcess Bursty(double mean_interarrival_us, double burstiness,
                               int burst_len, uint64_t seed);

  // The next arrival time; strictly nondecreasing across calls.
  SimTime Next();

 private:
  ArrivalProcess(double in_burst_mean_us, double idle_mean_us, int burst_len,
                 uint64_t seed);

  Rng rng_;
  double in_burst_mean_us_;
  double idle_mean_us_;
  int burst_len_;
  int64_t index_ = 0;
  SimTime t_ = 0.0;
};

// Poisson process: iid exponential inter-arrivals with the given mean.
// Same seed -> identical sequence, bit for bit.
std::vector<SimTime> PoissonArrivals(double mean_interarrival_us, int count, uint64_t seed);

// Bursty on/off process: bursts of `burst_len` requests whose internal
// gaps have mean `mean_interarrival_us / burstiness`, separated by idle
// gaps stretched so the long-run mean inter-arrival time stays close to
// `mean_interarrival_us`. burstiness > 1; burstiness == 1 degenerates to
// Poisson.
std::vector<SimTime> BurstyArrivals(double mean_interarrival_us, double burstiness,
                                    int burst_len, int count, uint64_t seed);

// The workload's per-layer ops as overlap ScenarioSpecs — the request
// vocabulary of a tenant serving that model. Imbalanced All-to-All ops
// expand to per-rank shapes via ImbalancedShapes.
std::vector<ScenarioSpec> WorkloadSpecs(const Workload& workload);

// Zips arrival times with specs (cycled round-robin) into one tenant's
// request stream; ids start at `first_id`. Tenant names must be CSV-safe
// (non-empty, no comma/newline, not starting with '#') — enforced here
// and in SerializeTrace via FLO_CHECK.
std::vector<ServeRequest> MakeRequestStream(const std::string& tenant,
                                            const std::vector<ScenarioSpec>& specs,
                                            const std::vector<SimTime>& arrivals,
                                            int64_t first_id = 0);

// Merges per-tenant streams into one arrival-ordered trace (stable:
// simultaneous arrivals keep their stream order).
std::vector<ServeRequest> MergeStreams(std::vector<std::vector<ServeRequest>> streams);

// CSV trace format (one request per line, '#' comments allowed):
//   arrival_us,tenant,kind,primitive,extra_tiles,shapes
// where shapes is `m x n x k` triples joined by ';' (one per rank for
// imbalanced specs). Forced partitions and per-scenario options are not
// part of the trace — a trace carries the declarative workload only.
std::string SerializeTrace(const std::vector<ServeRequest>& trace);

// One line of the trace format, for line-at-a-time streaming parses
// (TraceFileCursor) and the whole-text ParseTrace alike. kSkip covers
// blank lines, comments, the header, and CRLF artifacts; the caller
// assigns ids.
enum class TraceLineResult { kRequest, kSkip, kError };
TraceLineResult ParseTraceLine(std::string line, ServeRequest* out);

// Returns std::nullopt on any malformed line; ids are reassigned
// sequentially in file order.
std::optional<std::vector<ServeRequest>> ParseTrace(const std::string& text);
bool SaveTraceToFile(const std::vector<ServeRequest>& trace, const std::string& path);
std::optional<std::vector<ServeRequest>> LoadTraceFromFile(const std::string& path);

}  // namespace flo

#endif  // SRC_SERVE_REQUEST_SOURCE_H_
