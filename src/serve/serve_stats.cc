#include "src/serve/serve_stats.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/serve/tenant_registry.h"
#include "src/util/check.h"
#include "src/util/table.h"

namespace flo {

namespace {

// The single percentile path: latencies stream through an exact-sample
// obs Histogram whose Percentiles() delegates to util/stats' one
// interpolation — histogram-p50 of an odd sample count is the exact
// median by construction.
PercentileSummary LatencySummary(const std::vector<double>& latencies) {
  Histogram histogram;
  histogram.EnableExactSamples();
  for (const double latency : latencies) {
    histogram.Observe(latency);
  }
  return histogram.Percentiles();
}

}  // namespace

void ServeStats::Record(RequestRecord record) {
  FLO_CHECK(!record.tenant.empty());
  FLO_CHECK_GE(record.start_us, record.arrival_us);
  FLO_CHECK_GE(record.finish_us, record.start_us);
  if (record.tenant_id == 0) {
    record.tenant_id = InternTenant(record.tenant);  // hand-built record
  }
  if (record.retries > 0) {
    ++retried_requests_;
    total_retries_ += static_cast<size_t>(record.retries);
  }
  if (record.degraded) {
    ++degraded_requests_;
  }
  by_tenant_[record.tenant_id].push_back(records_.size());
  records_.push_back(std::move(record));
}

void ServeStats::Append(const ServeStats& other) {
  FLO_CHECK(&other != this);
  const size_t base = records_.size();
  records_.insert(records_.end(), other.records_.begin(), other.records_.end());
  for (const auto& [tenant_id, indices] : other.by_tenant_) {
    std::vector<size_t>& merged = by_tenant_[tenant_id];
    for (const size_t index : indices) {
      merged.push_back(base + index);
    }
  }
  retried_requests_ += other.retried_requests_;
  total_retries_ += other.total_retries_;
  degraded_requests_ += other.degraded_requests_;
}

std::vector<std::string> ServeStats::Tenants() const {
  std::vector<std::string> tenants;
  tenants.reserve(by_tenant_.size());
  for (const auto& [tenant_id, indices] : by_tenant_) {
    tenants.push_back(TenantNameOf(tenant_id));
  }
  // by_tenant_ is unordered; name order keeps reports deterministic.
  std::sort(tenants.begin(), tenants.end());
  return tenants;
}

TenantSummary ServeStats::Summarize(const std::string& tenant) const {
  TenantSummary summary;
  summary.tenant = tenant;
  auto it = by_tenant_.find(InternTenant(tenant));
  FLO_CHECK(it != by_tenant_.end()) << "no records for tenant " << tenant;
  std::vector<double> latencies;
  latencies.reserve(it->second.size());
  double queue_sum = 0.0;
  double exec_sum = 0.0;
  double batch_sum = 0.0;
  size_t hits = 0;
  for (const size_t index : it->second) {
    const RequestRecord& record = records_[index];
    latencies.push_back(record.LatencyUs());
    queue_sum += record.QueueUs();
    exec_sum += record.ExecUs();
    batch_sum += record.batch_size;
    hits += record.plan_cache_hit ? 1 : 0;
  }
  summary.requests = latencies.size();
  const double n = static_cast<double>(latencies.size());
  summary.mean_queue_us = queue_sum / n;
  summary.mean_exec_us = exec_sum / n;
  summary.mean_batch_size = batch_sum / n;
  summary.cache_hit_rate = static_cast<double>(hits) / n;
  summary.latency = LatencySummary(latencies);
  return summary;
}

std::vector<TenantSummary> ServeStats::SummarizeAll() const {
  std::vector<TenantSummary> summaries;
  for (const std::string& tenant : Tenants()) {
    summaries.push_back(Summarize(tenant));
  }
  return summaries;
}

PercentileSummary ServeStats::LatencyPercentiles() const {
  if (records_.empty()) {
    return PercentileSummary{};
  }
  std::vector<double> latencies;
  latencies.reserve(records_.size());
  for (const RequestRecord& record : records_) {
    latencies.push_back(record.LatencyUs());
  }
  return LatencySummary(latencies);
}

double ServeStats::CacheHitRate() const {
  if (records_.empty()) {
    return 0.0;
  }
  size_t hits = 0;
  for (const RequestRecord& record : records_) {
    hits += record.plan_cache_hit ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(records_.size());
}

CsvWriter ServeStats::ToCsv() const {
  CsvWriter csv({"tenant", "requests", "latency_p50_us", "latency_p90_us", "latency_p95_us",
                 "latency_p99_us", "mean_queue_us", "mean_exec_us", "cache_hit_rate",
                 "mean_batch_size"});
  for (const TenantSummary& s : SummarizeAll()) {
    csv.AddRow({s.tenant, std::to_string(s.requests), FormatDouble(s.latency.p50, 3),
                FormatDouble(s.latency.p90, 3), FormatDouble(s.latency.p95, 3),
                FormatDouble(s.latency.p99, 3), FormatDouble(s.mean_queue_us, 3),
                FormatDouble(s.mean_exec_us, 3), FormatDouble(s.cache_hit_rate, 4),
                FormatDouble(s.mean_batch_size, 2)});
  }
  return csv;
}

}  // namespace flo
