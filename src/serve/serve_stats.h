// SLO metrics for the serving loop: per-tenant latency percentiles,
// queueing delay vs execution time, and plan-cache behaviour, exportable
// as CSV for external plotting.
#ifndef SRC_SERVE_SERVE_STATS_H_
#define SRC_SERVE_SERVE_STATS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/event_record.h"
#include "src/util/csv.h"
#include "src/util/stats.h"

namespace flo {

// One completed request, as observed on the serving clock.
struct RequestRecord {
  int64_t id = 0;
  std::string tenant;
  SimTime arrival_us = 0.0;
  SimTime start_us = 0.0;   // when its batch began executing
  SimTime finish_us = 0.0;  // when its batch completed
  // Whether the plan was warm when the batch was formed (a request that
  // waited on the cold-plan tuning lane counts as a miss even though the
  // eventual Execute hits the freshly tuned entry).
  bool plan_cache_hit = false;
  int batch_size = 1;
  // Interned tenant id (TenantRegistry); 0 = unresolved, interned lazily
  // by ServeStats::Record. Appended last so positional initializers of
  // the fields above keep working.
  uint32_t tenant_id = 0;
  // Fault-recovery provenance (src/fault): how many times the request was
  // requeued off a failed replica before completing, and whether it was
  // served on the single-group safety plan after tuner retries exhausted.
  // Appended last, like tenant_id.
  int retries = 0;
  bool degraded = false;

  double QueueUs() const { return start_us - arrival_us; }
  double ExecUs() const { return finish_us - start_us; }
  double LatencyUs() const { return finish_us - arrival_us; }
};

struct TenantSummary {
  std::string tenant;
  size_t requests = 0;
  double mean_queue_us = 0.0;
  double mean_exec_us = 0.0;
  PercentileSummary latency;  // of end-to-end LatencyUs
  double cache_hit_rate = 0.0;
  double mean_batch_size = 0.0;
};

class ServeStats {
 public:
  void Record(RequestRecord record);
  // Records every record of `other`, in order: the same state as calling
  // Record on each, with the records and tenant indices copied in bulk.
  void Append(const ServeStats& other);

  size_t count() const { return records_.size(); }
  const std::vector<RequestRecord>& records() const { return records_; }
  std::vector<std::string> Tenants() const;

  // Fault-recovery aggregates, maintained at Record() time: requests that
  // completed after >= 1 requeue, their summed retry count, and requests
  // served degraded. All zero on fault-free runs.
  size_t retried_requests() const { return retried_requests_; }
  size_t total_retries() const { return total_retries_; }
  size_t degraded_requests() const { return degraded_requests_; }

  // Requires at least one record for the tenant.
  TenantSummary Summarize(const std::string& tenant) const;
  std::vector<TenantSummary> SummarizeAll() const;

  // Fraction of requests whose plan was warm; 0 when empty.
  double CacheHitRate() const;

  // End-to-end latency percentiles over every record (all tenants);
  // all-zero when empty. Benches and demos aggregate with this so the
  // latency definition lives in one place.
  PercentileSummary LatencyPercentiles() const;

  // One row per tenant: requests, p50/p90/p95/p99 latency, mean queue and
  // exec time, hit rate, mean batch size.
  CsvWriter ToCsv() const;

 private:
  std::vector<RequestRecord> records_;
  size_t retried_requests_ = 0;
  size_t total_retries_ = 0;
  size_t degraded_requests_ = 0;
  // Indices into records_ grouped at Record() time, so per-tenant
  // summaries are one scan instead of a full-vector pass per tenant.
  // Keyed by interned tenant id — an integer hash per record instead of a
  // string hash/compare; Tenants() restores name order at query time.
  std::unordered_map<uint32_t, std::vector<size_t>> by_tenant_;
};

}  // namespace flo

#endif  // SRC_SERVE_SERVE_STATS_H_
