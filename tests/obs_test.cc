#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/serving_cluster.h"
#include "src/core/overlap_engine.h"
#include "src/hw/cluster.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_plane.h"
#include "src/obs/span.h"
#include "src/obs/span_tracer.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_loop.h"
#include "src/serve/serve_stats.h"
#include "src/util/stats.h"

namespace flo {
namespace {

// --- Fixture: the cluster_test two-tenant mix, traced --------------------

ScenarioSpec SmallSpec(int64_t m) {
  return ScenarioSpec::Overlap(GemmShape{m, 2048, 1024}, CommPrimitive::kAllReduce);
}

std::vector<ServeRequest> MixedTrace(int keys, int per_tenant) {
  std::vector<ScenarioSpec> specs;
  for (int k = 0; k < keys; ++k) {
    specs.push_back(SmallSpec(1024 + 512 * k));
  }
  return MergeStreams(
      {MakeRequestStream("llm", specs, PoissonArrivals(800.0, per_tenant, 3), 0),
       MakeRequestStream("moe", specs, BurstyArrivals(1600.0, 4.0, 6, per_tenant, 5), 100000)});
}

ObsConfig TracedConfig() {
  ObsConfig obs;
  obs.enabled = true;
  obs.checkpoint_interval_us = 50000.0;
  return obs;
}

FleetReport RunTracedFleet(const std::vector<ServeRequest>& trace, int replicas,
                           ObsPlane* obs) {
  ClusterConfig config;
  config.replicas = replicas;
  config.policy = PlacementPolicy::kPlanAffinity;
  config.serve.tuner_lanes = 2;
  config.serve.obs = obs;
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  return fleet.Run(trace);
}

void ExpectReportsIdentical(const FleetReport& a, const FleetReport& b) {
  EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.total_searches, b.total_searches);
  ASSERT_EQ(a.stats.count(), b.stats.count());
  for (size_t i = 0; i < a.stats.count(); ++i) {
    EXPECT_DOUBLE_EQ(a.stats.records()[i].finish_us, b.stats.records()[i].finish_us);
    EXPECT_EQ(a.stats.records()[i].plan_cache_hit, b.stats.records()[i].plan_cache_hit);
  }
}

// --- Determinism: exports are byte streams of the simulated run ----------

TEST(ObsExportTest, ByteIdenticalAcrossReruns) {
  if (!kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto trace = MixedTrace(3, 30);
  for (const int replicas : {2, 5}) {
    std::string reference_trace;
    std::string reference_csv;
    std::string reference_json;
    // The rerun index must not leak into any export byte: spans carry
    // sim-clock times only.
    for (int rerun = 0; rerun < 3; ++rerun) {
      ObsPlane obs(TracedConfig());
      RunTracedFleet(trace, replicas, &obs);
      EXPECT_GT(obs.tracer().emitted(), 0u);
      EXPECT_GT(obs.metrics().checkpoint_count(), 1u);
      const std::string trace_json = obs.TraceJson();
      const std::string metrics_csv = obs.MetricsCsv();
      const std::string metrics_json = obs.MetricsJson();
      if (rerun == 0) {
        reference_trace = trace_json;
        reference_csv = metrics_csv;
        reference_json = metrics_json;
        continue;
      }
      EXPECT_EQ(trace_json, reference_trace)
          << "trace export varies (replicas=" << replicas << " rerun=" << rerun << ")";
      EXPECT_EQ(metrics_csv, reference_csv);
      EXPECT_EQ(metrics_json, reference_json);
    }
  }
}

TEST(ObsExportTest, BeginRunResetsStateForBackToBackRuns) {
  if (!kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto trace = MixedTrace(2, 20);
  ObsPlane obs(TracedConfig());
  RunTracedFleet(trace, 2, &obs);
  const std::string first = obs.TraceJson() + obs.MetricsCsv() + obs.MetricsJson();
  // Reusing one plane across runs must not accumulate state: BeginRun
  // (called inside Run) clears spans, values, and checkpoint rows.
  RunTracedFleet(trace, 2, &obs);
  EXPECT_EQ(obs.TraceJson() + obs.MetricsCsv() + obs.MetricsJson(), first);
}

// --- Gating: a disabled plane records nothing and perturbs nothing -------

TEST(ObsGatingTest, DisabledPlaneRecordsNothingAndLeavesRunIdentical) {
  const auto trace = MixedTrace(3, 30);
  const FleetReport bare = RunTracedFleet(trace, 2, nullptr);

  ObsPlane disabled;  // ObsConfig::enabled defaults to false
  const FleetReport with_disabled = RunTracedFleet(trace, 2, &disabled);
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.tracer().emitted(), 0u);
  EXPECT_EQ(disabled.recorder().events_seen(), 0u);
  EXPECT_EQ(disabled.metrics().checkpoint_count(), 0u);
  ExpectReportsIdentical(with_disabled, bare);

  // The enabled plane observes from the tap and the handlers only — the
  // simulated timeline and every report byte stay identical.
  ObsPlane enabled(TracedConfig());
  const FleetReport with_enabled = RunTracedFleet(trace, 2, &enabled);
  ExpectReportsIdentical(with_enabled, bare);
  if (kObsCompiledIn) {
    EXPECT_EQ(enabled.metrics().CounterValue(enabled.ids().events), with_enabled.events);
    EXPECT_EQ(enabled.metrics().CounterValue(enabled.ids().requests), trace.size());
  }
}

// --- Span structure: durations and lifecycle nesting ---------------------

TEST(ObsSpanTest, SpansNestAndHaveNonNegativeDurations) {
  if (!kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto trace = MixedTrace(3, 30);
  ObsConfig config = TracedConfig();
  config.span_ring_capacity = 1 << 16;  // retain everything: nesting checks need both ends
  ObsPlane obs(config);
  const FleetReport report = RunTracedFleet(trace, 3, &obs);
  ASSERT_EQ(obs.tracer().dropped(), 0u);

  size_t request_spans = 0;
  size_t queue_spans = 0;
  for (size_t track = 0; track < obs.tracer().track_count(); ++track) {
    // Track id -> request interval, for nesting checks within the track.
    std::map<uint64_t, std::pair<double, double>> requests;
    const auto spans = obs.tracer().TrackSpans(track);
    for (const SpanRecord& span : spans) {
      EXPECT_GE(span.DurationUs(), 0.0);
      EXPECT_GE(span.start_us, 0.0);
      if (span.kind == SpanKind::kRequest) {
        ++request_spans;
        requests[span.id] = {span.start_us, span.end_us};
      }
    }
    for (const SpanRecord& span : spans) {
      if (span.kind != SpanKind::kQueue) {
        continue;
      }
      ++queue_spans;
      const auto it = requests.find(span.id);
      ASSERT_NE(it, requests.end()) << "queue span without a request span, id=" << span.id;
      // The queue interval (arrival -> batch start) nests inside the
      // request interval (arrival -> completion).
      EXPECT_GE(span.start_us, it->second.first);
      EXPECT_LE(span.end_us, it->second.second);
      EXPECT_LT(span.end_us, it->second.second + 1e-9);
    }
  }
  EXPECT_EQ(request_spans, report.stats.count());
  EXPECT_EQ(queue_spans, report.stats.count());
}

TEST(ObsSpanTest, ServeLoopEmitsLifecycleSpansStandalone) {
  if (!kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto trace = MixedTrace(2, 15);
  ObsPlane obs(TracedConfig());
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  ServeConfig config;
  config.obs = &obs;
  const ServeReport report = ServeLoop(&engine, config).Run(trace);
  ASSERT_GT(report.stats.count(), 0u);

  std::map<SpanKind, size_t> by_kind;
  for (size_t track = 0; track < obs.tracer().track_count(); ++track) {
    for (const SpanRecord& span : obs.tracer().TrackSpans(track)) {
      ++by_kind[span.kind];
    }
  }
  EXPECT_EQ(by_kind[SpanKind::kRequest], report.stats.count());
  EXPECT_EQ(by_kind[SpanKind::kExecute], static_cast<size_t>(report.batches));
  // One tuning window per distinct cold key; several cold batches can
  // coalesce into one window, so windows <= cold batches.
  EXPECT_GT(by_kind[SpanKind::kTune], 0u);
  EXPECT_LE(by_kind[SpanKind::kTune], static_cast<size_t>(report.cold_batches));
  EXPECT_EQ(by_kind[SpanKind::kPlanMiss], static_cast<size_t>(report.cold_batches));
  EXPECT_EQ(by_kind[SpanKind::kPlanHit] + by_kind[SpanKind::kPlanMiss],
            static_cast<size_t>(report.batches));
}

TEST(ObsSpanTest, TraceJsonIsChromeTraceShaped) {
  if (!kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto trace = MixedTrace(2, 15);
  ObsPlane obs(TracedConfig());
  RunTracedFleet(trace, 2, &obs);
  const std::string json = obs.TraceJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  // Metadata names the per-replica process tracks; the executor lane
  // renders complete events and requests render nestable async pairs.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
}

// --- Metrics registry ----------------------------------------------------

TEST(ObsMetricsTest, HistogramOddSampleMedianIsExactMiddleElement) {
  Histogram histogram;
  histogram.EnableExactSamples();
  // Scrambled odd-sized sample set: p50 must be the exact middle element
  // (2500.0), not an interpolation artifact — the regression this pins is
  // bench percentile math drifting from util/stats' definition.
  const std::vector<double> samples = {900.0, 12000.0, 2500.0, 150.0, 7000.0};
  for (const double sample : samples) {
    histogram.Observe(sample);
  }
  EXPECT_DOUBLE_EQ(histogram.ExactPercentile(50.0), 2500.0);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(histogram.ExactPercentile(p), PercentileOfSorted(sorted, p));
  }
  const PercentileSummary summary = histogram.Percentiles();
  EXPECT_DOUBLE_EQ(summary.p50, 2500.0);
}

TEST(ObsMetricsTest, ServeStatsMedianRoutesThroughSameEngine) {
  ServeStats stats;
  // Five requests, one tenant, odd count: latencies 100, 200, 300, 400,
  // 500 in scrambled arrival order. p50 must be exactly 300.
  const double latencies[] = {300.0, 100.0, 500.0, 200.0, 400.0};
  for (int i = 0; i < 5; ++i) {
    RequestRecord record;
    record.id = i;
    record.tenant = "t";
    record.arrival_us = 1000.0 * i;
    record.start_us = record.arrival_us + 10.0;
    record.finish_us = record.arrival_us + latencies[i];
    stats.Record(record);
  }
  EXPECT_DOUBLE_EQ(stats.Summarize("t").latency.p50, 300.0);
  EXPECT_DOUBLE_EQ(stats.LatencyPercentiles().p50, 300.0);
}

TEST(ObsMetricsTest, RegistrationIsIdempotentByName) {
  MetricsRegistry registry;
  const auto a = registry.Counter("fleet.requests");
  const auto b = registry.Counter("fleet.requests");
  EXPECT_EQ(a, b);
  registry.Add(a, 2);
  registry.Add(b, 3);
  EXPECT_EQ(registry.CounterValue(a), 5u);
  EXPECT_EQ(registry.Gauge("g"), registry.Gauge("g"));
  EXPECT_EQ(registry.Histo("h"), registry.Histo("h"));
}

TEST(ObsMetricsTest, TimeSeriesCsvBackfillsLateRegistrationsWithZero) {
  MetricsRegistry registry;
  const auto early = registry.Counter("early");
  registry.Add(early, 7);
  registry.Checkpoint(1000.0);
  const auto late = registry.Counter("apex");  // sorts before "early"
  registry.Add(late, 9);
  registry.Checkpoint(2000.0);
  const std::string csv = registry.TimeSeriesCsv().Render();
  // Columns are name-sorted after time_us; the pre-registration row
  // backfills the late counter as zero.
  EXPECT_NE(csv.find("time_us,apex,early"), std::string::npos);
  EXPECT_NE(csv.find("1000,0,7"), std::string::npos);
  EXPECT_NE(csv.find("2000,9,7"), std::string::npos);
}

// --- Span tracer ring -----------------------------------------------------

std::vector<uint64_t> TrackIds(const SpanTracer& tracer, size_t track) {
  std::vector<uint64_t> ids;
  for (const SpanRecord& span : tracer.TrackSpans(track)) {
    ids.push_back(span.id);
  }
  return ids;
}

TEST(ObsSpanTracerTest, RingWrapsOldestFirstAtEveryFillLevel) {
  SpanTracer tracer(3);
  // Each entry: spans emitted so far -> retained ids, oldest first. Covers
  // a partial ring, exactly full, one wrap, a full lap (head back at 0) and
  // past it.
  const std::vector<std::pair<uint64_t, std::vector<uint64_t>>> expected{
      {2, {0, 1}}, {3, {0, 1, 2}}, {4, {1, 2, 3}}, {6, {3, 4, 5}}, {8, {5, 6, 7}}};
  uint64_t emitted = 0;
  for (const auto& [count, ids] : expected) {
    for (; emitted < count; ++emitted) {
      SpanRecord span;
      span.id = emitted;
      tracer.Emit(span);
    }
    EXPECT_EQ(TrackIds(tracer, 0), ids) << "after " << count << " spans";
    EXPECT_EQ(tracer.dropped(), count > 3 ? count - 3 : 0u);
  }
  tracer.Clear();
  SpanRecord span;
  span.id = 42;
  tracer.Emit(span);
  EXPECT_EQ(TrackIds(tracer, 0), std::vector<uint64_t>{42}) << "Clear rewinds the head";
  EXPECT_EQ(tracer.dropped(), 0u);
}

// --- Flight recorder ------------------------------------------------------

std::string DumpToString(const FlightRecorder& recorder) {
  std::FILE* out = std::tmpfile();
  EXPECT_NE(out, nullptr);
  if (out == nullptr) {
    return "";
  }
  recorder.Dump(out);
  std::rewind(out);
  std::string dump;
  char buffer[512];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), out)) > 0) {
    dump.append(buffer, n);
  }
  std::fclose(out);
  return dump;
}

// A default enabled plane records all three sinks: every dispatched event
// and every span reach the flight recorder, every span reaches the tracer,
// and the metrics count every request.
TEST(ObsFlightRecorderTest, DefaultEnabledPlaneRecordsEverySink) {
  if (!kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto trace = MixedTrace(3, 30);
  ObsPlane obs(ObsConfig{.enabled = true});
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  ServeConfig config;
  config.obs = &obs;
  const ServeReport report = ServeLoop(&engine, config).Run(trace);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_GT(report.events, 0u);
  EXPECT_EQ(obs.recorder().events_seen(), report.events);
  // The span header is the dump's last "--- flight recorder" line.
  const std::string dump = DumpToString(obs.recorder());
  const size_t header = dump.rfind("--- flight recorder: last ");
  ASSERT_NE(header, std::string::npos) << dump;
  unsigned long long retained = 0;
  unsigned long long spans = 0;
  ASSERT_EQ(std::sscanf(dump.c_str() + header, "--- flight recorder: last %llu of %llu spans",
                        &retained, &spans),
            2)
      << dump.substr(header);
  EXPECT_GT(obs.tracer().emitted(), 0u);
  EXPECT_EQ(spans, obs.tracer().emitted());
  EXPECT_EQ(obs.metrics().CounterValue(obs.ids().requests), trace.size());
}

TEST(ObsFlightRecorderTest, DumpNamesEveryEventType) {
  const int last = static_cast<int>(EventType::kSchedCheck);
  FlightRecorder recorder(static_cast<size_t>(last) + 1);
  for (int type = 0; type <= last; ++type) {
    EventRecord record;
    record.type = static_cast<EventType>(type);
    recorder.OnEvent(record, 1.0 * type);
  }
  const std::string dump = DumpToString(recorder);
  EXPECT_NE(dump.find(" sched_check key="), std::string::npos) << dump;
  EXPECT_EQ(dump.find(" ? key="), std::string::npos) << "an event type has no name:\n" << dump;
}

TEST(ObsFlightRecorderTest, RingRetainsLastNOldestFirst) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    EventRecord record;
    record.key = static_cast<uint64_t>(i);
    record.type = EventType::kArrival;
    recorder.OnEvent(record, 100.0 * i);
    SpanRecord span;
    span.id = static_cast<uint64_t>(i);
    span.start_us = span.end_us = 100.0 * i;
    recorder.OnSpan(span);
  }
  EXPECT_EQ(recorder.events_seen(), 10u);

  const std::string dump = DumpToString(recorder);
  EXPECT_NE(dump.find("last 4 of 10 events"), std::string::npos);
  EXPECT_NE(dump.find("last 4 of 10 spans"), std::string::npos);
  // The wrapped ring keeps 6..9; the evicted head must be gone and the
  // survivors print oldest first.
  EXPECT_EQ(dump.find("key=5"), std::string::npos);
  const size_t oldest = dump.find("key=6");
  const size_t newest = dump.find("key=9");
  ASSERT_NE(oldest, std::string::npos);
  ASSERT_NE(newest, std::string::npos);
  EXPECT_LT(oldest, newest);

  recorder.Clear();
  EXPECT_EQ(recorder.events_seen(), 0u);
  // After Clear the ring fills from slot 0 again.
  for (int i = 10; i < 15; ++i) {
    EventRecord record;
    record.key = static_cast<uint64_t>(i);
    recorder.OnEvent(record, 100.0 * i);
  }
  const std::string refill = DumpToString(recorder);
  EXPECT_NE(refill.find("last 4 of 5 events"), std::string::npos);
  EXPECT_EQ(refill.find("key=a "), std::string::npos);
  ASSERT_NE(refill.find("key=e "), std::string::npos);
  EXPECT_LT(refill.find("key=b "), refill.find("key=e "));
}

// --- Sample artifacts for CI schema validation ----------------------------

TEST(ObsArtifactTest, WritesSampleTraceAndMetricsForValidation) {
  if (!kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto trace = MixedTrace(3, 25);
  ObsPlane obs(TracedConfig());
  RunTracedFleet(trace, 3, &obs);
  // CI validates these against the Chrome trace-event schema
  // (tools/validate_trace.py); written into the test's cwd (build dir).
  EXPECT_TRUE(obs.WriteTrace("obs_sample_trace.json"));
  EXPECT_TRUE(obs.WriteMetricsCsv("obs_sample_metrics.csv"));
}

}  // namespace
}  // namespace flo
