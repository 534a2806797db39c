// Pull-based request ingestion for the serving loops.
//
// The serving engines used to materialize an entire trace as a
// std::vector<ServeRequest> (and merge per-tenant streams up front) before
// the first event fired. A RequestCursor instead yields requests one at a
// time in arrival order, so ServeLoop/ServingCluster admit work as
// simulated time advances: memory stays O(pending) instead of O(trace),
// and million-request runs never build a million-entry event heap.
//
// Cursors are single-pass and must yield nondecreasing arrival_us (the
// event loop FLO_CHECKs this). Ties across merged sources keep source
// order — the exact order MergeStreams' stable sort produced.
#ifndef SRC_SERVE_REQUEST_CURSOR_H_
#define SRC_SERVE_REQUEST_CURSOR_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/serve/request_source.h"
#include "src/sim/event_loop.h"

namespace flo {

class RequestCursor {
 public:
  virtual ~RequestCursor() = default;

  // The next request in nondecreasing arrival order; nullopt when the
  // source is exhausted (permanently — cursors are single-pass).
  virtual std::optional<ServeRequest> Next() = 0;
};

// A materialized trace, stable-sorted by arrival on construction: the
// adapter that lets vector-based call sites drive the streaming path.
class VectorCursor : public RequestCursor {
 public:
  explicit VectorCursor(std::vector<ServeRequest> requests);
  std::optional<ServeRequest> Next() override;

 private:
  std::vector<ServeRequest> requests_;
  size_t index_ = 0;
};

// One tenant's synthetic stream: an ArrivalProcess zipped with specs
// cycled round-robin, `count` requests long. The streaming equivalent of
// MakeRequestStream(tenant, specs, PoissonArrivals(...)) — bit-identical
// request for request.
class SyntheticCursor : public RequestCursor {
 public:
  SyntheticCursor(std::string tenant, std::vector<ScenarioSpec> specs,
                  ArrivalProcess process, int64_t count, int64_t first_id = 0);
  std::optional<ServeRequest> Next() override;

 private:
  std::string tenant_;
  uint32_t tenant_id_;
  std::vector<ScenarioSpec> specs_;
  ArrivalProcess process_;
  int64_t remaining_;
  int64_t next_id_;
  size_t spec_index_ = 0;
};

// K-way merge of child cursors (borrowed; must outlive the merge). Ties
// go to the lowest source index — the order MergeStreams' stable sort
// gives simultaneous arrivals.
class MergeCursor : public RequestCursor {
 public:
  explicit MergeCursor(std::vector<RequestCursor*> sources);
  std::optional<ServeRequest> Next() override;

 private:
  std::vector<RequestCursor*> sources_;
  std::vector<std::optional<ServeRequest>> heads_;
};

// Line-at-a-time streaming parse of a CSV trace file (the format of
// SerializeTrace). Ids are assigned sequentially in file order, exactly
// like LoadTraceFromFile. A malformed line (or an unreadable file) ends
// the stream and sets ok() to false — callers distinguish "exhausted"
// from "rejected" the way LoadTraceFromFile's nullopt did.
class TraceFileCursor : public RequestCursor {
 public:
  explicit TraceFileCursor(const std::string& path);
  std::optional<ServeRequest> Next() override;
  bool ok() const { return ok_; }

 private:
  std::ifstream file_;
  bool ok_ = true;
  bool done_ = false;
  int64_t next_id_ = 0;
};

// Drives a cursor through an EventLoop: keeps exactly one arrival event
// in flight and pulls the next request when the current one fires, so the
// event queue holds O(pending work) entries instead of the whole trace.
// Construction stages the first request; the admit callback runs at each
// request's arrival time.
class ArrivalPump {
 public:
  using AdmitFn = std::function<void(ServeRequest&& request, SimTime now)>;

  // `cursor` and `events` are borrowed and must outlive the pump; the
  // pump must outlive the drain of `events` (its handler lives here).
  ArrivalPump(RequestCursor* cursor, EventLoop* events, AdmitFn admit);

  // Requests admitted so far.
  size_t admitted() const { return admitted_; }
  // True once the cursor is exhausted and every pulled request admitted.
  bool done() const { return !staged_.has_value(); }

 private:
  void Schedule();
  void OnArrival(SimTime now);

  RequestCursor* cursor_;
  EventLoop* events_;
  AdmitFn admit_;
  uint32_t handler_;
  std::optional<ServeRequest> staged_;
  size_t admitted_ = 0;
};

}  // namespace flo

#endif  // SRC_SERVE_REQUEST_CURSOR_H_
