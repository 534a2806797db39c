// Deterministic metrics registry: named counters, gauges, and fixed-bucket
// histograms with O(1) updates, snapshotted into a sim-clock time series.
//
// Determinism contract: all updates happen on the event-dispatch thread
// (sessions, cluster hooks, checkpoint pollers), values are keyed by name
// — registering an existing name returns the existing id, so every replica
// of a fleet aggregates into one fleet-wide series — and exports order
// columns by name. The same simulation therefore produces byte-identical
// CSV/JSON regardless of replica count.
//
// The Histogram doubles as the repo's single percentile engine: bucket
// counts give O(1) streaming observation with approximate percentiles,
// and exact-sample mode retains the raw samples so Percentiles() can
// delegate to util/stats' one interpolation (PercentileOfSorted) —
// ServeStats and the benches route their percentile math through it
// rather than growing second implementations.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/event_record.h"
#include "src/util/csv.h"
#include "src/util/stats.h"

namespace flo {

class Histogram {
 public:
  // Bucket upper bounds (ascending); an implicit +inf bucket is appended.
  // The default covers serving latencies from 100us to 10s decades.
  Histogram();
  explicit Histogram(std::vector<double> bounds);

  // Retain raw samples so Percentiles()/ExactPercentile() are exact.
  // Costs O(samples) memory; summaries use it, long-running time series
  // stay bucket-only.
  void EnableExactSamples() { exact_samples_ = true; }
  bool exact_samples() const { return exact_samples_; }

  // Hot path (once per request in a traced serving run): inline so an
  // observation costs one binary search over the bounds and two stores.
  void Observe(double value) {
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), value);
    ++buckets_[static_cast<size_t>(it - bounds_.begin())];
    ++count_;
    sum_ += value;
    if (exact_samples_) {
      samples_.push_back(value);
      sorted_valid_ = false;
    }
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  // Percentile from bucket counts alone: linear interpolation inside the
  // covering bucket. Requires count() > 0.
  double ApproxPercentile(double p) const;

  // Exact percentiles over the retained samples (requires exact-sample
  // mode and count() > 0); the same interpolation as util/stats — on an
  // odd sample count, p50 is the exact median.
  double ExactPercentile(double p) const;
  PercentileSummary Percentiles() const;

  void Clear();

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  bool exact_samples_ = false;
  std::vector<double> samples_;
  // Lazily sorted view of samples_ for the exact percentile queries.
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

class MetricsRegistry {
 public:
  using Id = uint32_t;

  // Registration is idempotent by name: a second registration of the same
  // name (e.g. by another replica) returns the existing id, aggregating
  // fleet-wide.
  Id Counter(const std::string& name);
  Id Gauge(const std::string& name);
  Id Histo(const std::string& name, std::vector<double> bounds = {},
           bool exact_samples = false);

  void Add(Id counter, uint64_t delta = 1) { counters_[counter] += delta; }
  void Set(Id gauge, double value) { gauges_[gauge] = value; }
  void Observe(Id histogram, double value) { histograms_[histogram].Observe(value); }

  uint64_t CounterValue(Id counter) const { return counters_[counter]; }
  double GaugeValue(Id gauge) const { return gauges_[gauge]; }
  const Histogram& histogram(Id id) const { return histograms_[id]; }

  // Appends one time-series row: the current value of every counter and
  // gauge, stamped with the sim-clock time.
  void Checkpoint(SimTime now);
  size_t checkpoint_count() const { return rows_.size(); }

  // The checkpoint rows as CSV: time_us first, then one column per
  // counter/gauge, name-sorted. Metrics registered after a row was taken
  // backfill as zero.
  CsvWriter TimeSeriesCsv() const;

  // Final values of every metric as a JSON object keyed by name
  // (counters, gauges, and histograms with bucket counts and percentiles
  // when exact). Name-sorted, exact double formatting: byte-deterministic.
  std::string SnapshotJson() const;

  // Zeroes values and drops checkpoint rows; registrations (names, ids,
  // bucket layouts) survive, so a registry outlives runs the way engines
  // do.
  void ResetValues();

 private:
  struct Row {
    SimTime time_us = 0.0;
    std::vector<uint64_t> counters;
    std::vector<double> gauges;
  };

  std::map<std::string, Id> counter_ids_;
  std::map<std::string, Id> gauge_ids_;
  std::map<std::string, Id> histogram_ids_;
  std::vector<uint64_t> counters_;
  std::vector<double> gauges_;
  std::vector<Histogram> histograms_;
  std::vector<Row> rows_;
};

}  // namespace flo

#endif  // SRC_OBS_METRICS_H_
