#include <gtest/gtest.h>

#include <memory>

#include "src/core/overlap_engine.h"
#include "src/models/workloads.h"
#include "src/serve/request_queue.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_loop.h"
#include "src/serve/serve_stats.h"
#include "src/util/stats.h"

namespace flo {
namespace {

// --- Arrival processes -----------------------------------------------------

TEST(ArrivalTest, PoissonIsReproducibleForSameSeed) {
  const auto a = PoissonArrivals(1000.0, 200, 42);
  const auto b = PoissonArrivals(1000.0, 200, 42);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a, b);  // bit-for-bit identical inter-arrival sequence
}

TEST(ArrivalTest, PoissonSeedsDiverge) {
  EXPECT_NE(PoissonArrivals(1000.0, 50, 1), PoissonArrivals(1000.0, 50, 2));
}

TEST(ArrivalTest, PoissonIsMonotoneWithRoughlyTheRequestedMean) {
  const auto arrivals = PoissonArrivals(500.0, 4000, 7);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i], arrivals[i - 1]);
  }
  const double mean = arrivals.back() / static_cast<double>(arrivals.size());
  EXPECT_NEAR(mean, 500.0, 500.0 * 0.1);
}

TEST(ArrivalTest, BurstyIsReproducibleForSameSeed) {
  const auto a = BurstyArrivals(1000.0, 4.0, 8, 200, 9);
  const auto b = BurstyArrivals(1000.0, 4.0, 8, 200, 9);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, BurstyArrivals(1000.0, 4.0, 8, 200, 10));
}

TEST(ArrivalTest, BurstyKeepsTheLongRunMeanAndCompressesBursts) {
  const int burst_len = 8;
  const auto arrivals = BurstyArrivals(1000.0, 4.0, burst_len, 4000, 3);
  const double mean = arrivals.back() / static_cast<double>(arrivals.size());
  EXPECT_NEAR(mean, 1000.0, 1000.0 * 0.15);
  // In-burst gaps are a burstiness factor shorter than idle gaps.
  double in_burst_sum = 0.0, idle_sum = 0.0;
  size_t in_burst_n = 0, idle_n = 0;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    const double gap = arrivals[i] - arrivals[i - 1];
    if (i % burst_len == 0) {
      idle_sum += gap;
      ++idle_n;
    } else {
      in_burst_sum += gap;
      ++in_burst_n;
    }
  }
  EXPECT_LT(in_burst_sum / in_burst_n, 0.5 * idle_sum / idle_n);
}

// --- Request streams and traces --------------------------------------------

TEST(RequestSourceTest, WorkloadSpecsExpandImbalancedAllToAll) {
  const auto moe_specs = WorkloadSpecs(MakeMixtralTraining());
  ASSERT_FALSE(moe_specs.empty());
  for (const auto& spec : moe_specs) {
    EXPECT_EQ(spec.primitive, CommPrimitive::kAllToAll);
    EXPECT_TRUE(spec.imbalanced());
  }
  const auto llm_specs = WorkloadSpecs(MakeLlama3Inference());
  ASSERT_EQ(llm_specs.size(), 2u);
  EXPECT_FALSE(llm_specs[0].imbalanced());
}

TEST(RequestSourceTest, StreamsCycleSpecsAndMergeByArrival) {
  const std::vector<ScenarioSpec> specs = {
      ScenarioSpec::Overlap(GemmShape{1024, 1024, 512}, CommPrimitive::kAllReduce),
      ScenarioSpec::Overlap(GemmShape{2048, 1024, 512}, CommPrimitive::kAllReduce),
  };
  const auto stream_a = MakeRequestStream("a", specs, {10.0, 20.0, 30.0}, 0);
  const auto stream_b = MakeRequestStream("b", specs, {15.0, 25.0}, 100);
  ASSERT_EQ(stream_a.size(), 3u);
  EXPECT_EQ(stream_a[0].spec, specs[0]);
  EXPECT_EQ(stream_a[1].spec, specs[1]);
  EXPECT_EQ(stream_a[2].spec, specs[0]);  // cycled
  const auto merged = MergeStreams({stream_a, stream_b});
  ASSERT_EQ(merged.size(), 5u);
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_GE(merged[i].arrival_us, merged[i - 1].arrival_us);
  }
  EXPECT_EQ(merged[1].tenant, "b");
}

TEST(RequestSourceTest, TraceRoundTripsThroughCsv) {
  std::vector<ServeRequest> trace;
  // An arrival with no short decimal form: the round-trip must be exact.
  trace.push_back({0, "llm", 10000.0 / 3.0,
                   ScenarioSpec::Overlap(GemmShape{4096, 8192, 1024},
                                         CommPrimitive::kReduceScatter)});
  trace.push_back({1, "moe", 40.25,
                   ScenarioSpec::Imbalanced({GemmShape{1024, 512, 256},
                                             GemmShape{2048, 512, 256}},
                                            CommPrimitive::kAllToAll)});
  trace.push_back({2, "llm", 99.0,
                   ScenarioSpec::NonOverlap(GemmShape{512, 512, 512},
                                            CommPrimitive::kAllReduce)});
  const auto parsed = ParseTrace(SerializeTrace(trace));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ((*parsed)[i].tenant, trace[i].tenant);
    EXPECT_DOUBLE_EQ((*parsed)[i].arrival_us, trace[i].arrival_us);
    EXPECT_EQ((*parsed)[i].spec, trace[i].spec);
  }
}

TEST(RequestSourceDeathTest, CsvUnsafeTenantNamesRejected) {
  const std::vector<ScenarioSpec> specs = {
      ScenarioSpec::Overlap(GemmShape{1024, 1024, 512}, CommPrimitive::kAllReduce)};
  EXPECT_DEATH(MakeRequestStream("a,b", specs, {1.0}), "CSV-safe");
  std::vector<ServeRequest> trace = {{0, "a,b", 1.0, specs[0]}};
  EXPECT_DEATH(SerializeTrace(trace), "CSV-safe");
}

TEST(RequestSourceDeathTest, NonSerializableSpecFieldsRejected) {
  const WavePartition partition{{1, 2}};
  std::vector<ServeRequest> trace = {
      {0, "llm", 1.0,
       ScenarioSpec::Overlap(GemmShape{1024, 1024, 512}, CommPrimitive::kAllReduce,
                             &partition)}};
  EXPECT_DEATH(SerializeTrace(trace), "not trace-serializable");
  std::vector<ServeRequest> negative_arrival = {
      {0, "llm", -1.0,
       ScenarioSpec::Overlap(GemmShape{1024, 1024, 512}, CommPrimitive::kAllReduce)}};
  EXPECT_DEATH(SerializeTrace(negative_arrival), "finite and non-negative");
  std::vector<ServeRequest> empty_spec = {{0, "llm", 1.0, ScenarioSpec{}}};
  EXPECT_DEATH(SerializeTrace(empty_spec), "no shapes");
}

TEST(RequestSourceTest, MalformedTraceLinesRejected) {
  EXPECT_FALSE(ParseTrace("1.0,llm,Overlap,Broadcast,0,64x64x64\n").has_value());
  EXPECT_FALSE(ParseTrace("1.0,llm,Overlap,AllReduce,0,64x64\n").has_value());
  EXPECT_FALSE(ParseTrace("-1.0,llm,Overlap,AllReduce,0,64x64x64\n").has_value());
  EXPECT_FALSE(ParseTrace("1.0,llm,Sideways,AllReduce,0,64x64x64\n").has_value());
  EXPECT_FALSE(ParseTrace("1.0,llm,Overlap,AllReduce\n").has_value());
  EXPECT_FALSE(ParseTrace("nan,llm,Overlap,AllReduce,0,64x64x64\n").has_value());
  EXPECT_FALSE(ParseTrace("inf,llm,Overlap,AllReduce,0,64x64x64\n").has_value());
  // Numeric fields must be fully consumed, and tenants must re-serialize.
  EXPECT_FALSE(ParseTrace("1.0garbage,llm,Overlap,AllReduce,0,64x64x64\n").has_value());
  EXPECT_FALSE(ParseTrace("1.0,llm,Overlap,AllReduce,2x,64x64x64\n").has_value());
  EXPECT_FALSE(ParseTrace("1.0,#llm,Overlap,AllReduce,0,64x64x64\n").has_value());
  // Out-of-range and malformed shape dimensions are rejected, not clamped.
  EXPECT_FALSE(
      ParseTrace("1.0,llm,Overlap,AllReduce,0,99999999999999999999999x64x64\n").has_value());
  EXPECT_FALSE(ParseTrace("1.0,llm,Overlap,AllReduce,0,64x64x64x64\n").has_value());
  EXPECT_TRUE(ParseTrace("# comment\narrival_us,tenant,kind,primitive,extra_tiles,shapes\n")
                  ->empty());
}

TEST(RequestSourceTest, CrlfTraceFilesParse) {
  const auto parsed = ParseTrace("1.0,llm,Overlap,AllReduce,0,64x64x64\r\n");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].spec.shapes[0].k, 64);
}

// --- RequestQueue -----------------------------------------------------------

uint64_t ShapeKeyer(const ScenarioSpec& spec) {
  return static_cast<uint64_t>(spec.shapes[0].m);
}

ServeRequest MakeReq(int64_t id, const std::string& tenant, double arrival, int64_t m) {
  return {id, tenant, arrival,
          ScenarioSpec::Overlap(GemmShape{m, 64, 64}, CommPrimitive::kAllReduce)};
}

TEST(RequestQueueTest, RoundRobinAlternatesTenants) {
  RequestQueue queue(ShapeKeyer);
  queue.Admit(MakeReq(0, "a", 0.0, 1));
  queue.Admit(MakeReq(1, "a", 1.0, 2));
  queue.Admit(MakeReq(2, "b", 2.0, 3));
  queue.Admit(MakeReq(3, "b", 3.0, 4));
  EXPECT_EQ(queue.TenantDepth("a"), 2u);
  std::vector<std::string> order;
  while (!queue.empty()) {
    order.push_back(queue.PopBatch(1)[0].tenant);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b"}));
}

TEST(RequestQueueTest, BatchesCompatibleHeadsAcrossTenants) {
  RequestQueue queue(ShapeKeyer);
  queue.Admit(MakeReq(0, "a", 0.0, 7));
  queue.Admit(MakeReq(1, "a", 1.0, 7));  // same key: same batch
  queue.Admit(MakeReq(2, "a", 2.0, 9));  // different key: stays queued
  queue.Admit(MakeReq(3, "b", 3.0, 7));  // compatible head of tenant b
  uint64_t key = 0;
  const auto batch = queue.PopBatch(8, &key);
  EXPECT_EQ(key, 7u);
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& request : batch) {
    EXPECT_EQ(request.spec.shapes[0].m, 7);
  }
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.PopBatch(8)[0].spec.shapes[0].m, 9);
}

TEST(RequestQueueTest, MaxBatchCapsTheRun) {
  RequestQueue queue(ShapeKeyer);
  for (int i = 0; i < 5; ++i) {
    queue.Admit(MakeReq(i, "a", i, 7));
  }
  EXPECT_EQ(queue.PopBatch(2).size(), 2u);
  EXPECT_EQ(queue.size(), 3u);
}

// --- Percentile math (util/stats, consumed by serve_stats) ------------------

TEST(PercentileMathTest, SummarizePercentilesInterpolates) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(i);  // reversed: SummarizePercentiles sorts
  }
  const PercentileSummary s = SummarizePercentiles(values);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_DOUBLE_EQ(s.p90, 90.1);
  EXPECT_DOUBLE_EQ(s.p95, 95.05);
  EXPECT_DOUBLE_EQ(s.p99, 99.01);
}

TEST(ServeStatsTest, PerTenantSummaries) {
  ServeStats stats;
  stats.Record({0, "a", 0.0, 10.0, 30.0, true, 1});
  stats.Record({1, "a", 5.0, 30.0, 50.0, false, 1});
  stats.Record({2, "b", 0.0, 0.0, 100.0, true, 2});
  const TenantSummary a = stats.Summarize("a");
  EXPECT_EQ(a.requests, 2u);
  EXPECT_DOUBLE_EQ(a.mean_queue_us, (10.0 + 25.0) / 2.0);
  EXPECT_DOUBLE_EQ(a.mean_exec_us, 20.0);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, 0.5);
  EXPECT_DOUBLE_EQ(a.latency.p50, (30.0 + 45.0) / 2.0);
  EXPECT_DOUBLE_EQ(stats.Summarize("b").latency.p99, 100.0);
  EXPECT_NEAR(stats.CacheHitRate(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(stats.Tenants(), (std::vector<std::string>{"a", "b"}));
}

TEST(ServeStatsTest, AppendEqualsRecordingEachRecord) {
  // Two replicas' stats merged in order, as the fleet report builds them.
  std::vector<std::vector<RequestRecord>> parts = {
      {{0, "a", 0.0, 10.0, 30.0, true, 1}, {1, "b", 2.0, 40.0, 45.0, false, 2},
       {2, "a", 5.0, 30.0, 50.0, false, 1}},
      {{3, "b", 1.0, 3.0, 9.0, true, 1}, {4, "c", 0.5, 7.0, 70.0, true, 3},
       {5, "a", 6.0, 6.5, 90.0, true, 1}},
  };
  parts[1][0].retries = 2;
  parts[1][1].degraded = true;
  ServeStats appended;
  ServeStats recorded;
  for (const auto& part : parts) {
    ServeStats replica;
    for (const RequestRecord& record : part) {
      replica.Record(record);
      recorded.Record(record);
    }
    appended.Append(replica);
  }
  ASSERT_EQ(appended.count(), recorded.count());
  for (size_t i = 0; i < recorded.count(); ++i) {
    EXPECT_EQ(appended.records()[i].id, recorded.records()[i].id);
    EXPECT_EQ(appended.records()[i].tenant_id, recorded.records()[i].tenant_id);
  }
  EXPECT_EQ(appended.Tenants(), recorded.Tenants());
  for (const std::string& tenant : recorded.Tenants()) {
    const TenantSummary a = appended.Summarize(tenant);
    const TenantSummary r = recorded.Summarize(tenant);
    EXPECT_EQ(a.requests, r.requests);
    EXPECT_EQ(a.mean_queue_us, r.mean_queue_us);
    EXPECT_EQ(a.mean_exec_us, r.mean_exec_us);
    EXPECT_EQ(a.latency.p50, r.latency.p50);
    EXPECT_EQ(a.latency.p99, r.latency.p99);
    EXPECT_EQ(a.cache_hit_rate, r.cache_hit_rate);
    EXPECT_EQ(a.mean_batch_size, r.mean_batch_size);
  }
  EXPECT_EQ(appended.retried_requests(), 1u);
  EXPECT_EQ(appended.total_retries(), 2u);
  EXPECT_EQ(appended.degraded_requests(), 1u);
  EXPECT_EQ(appended.CacheHitRate(), recorded.CacheHitRate());
}

// --- ServeLoop --------------------------------------------------------------

ScenarioSpec SmallSpec(int64_t m) {
  return ScenarioSpec::Overlap(GemmShape{m, 2048, 1024}, CommPrimitive::kAllReduce);
}

TEST(ServeLoopTest, QueueingDelaySeparatesSimultaneousArrivals) {
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  ServeConfig config;
  config.max_batch = 1;
  config.overlap_tuning = false;
  ServeLoop loop(&engine, config);
  // Two distinct specs arriving together: one executor lane serializes them.
  const ServeReport report = loop.Run({{0, "t", 0.0, SmallSpec(1024)},
                                       {1, "t", 0.0, SmallSpec(2048)}});
  ASSERT_EQ(report.stats.count(), 2u);
  const auto& first = report.stats.records()[0];
  const auto& second = report.stats.records()[1];
  EXPECT_DOUBLE_EQ(first.QueueUs(), 0.0);
  EXPECT_GE(second.start_us, first.finish_us);
  EXPECT_GE(second.QueueUs(), first.ExecUs());
  EXPECT_DOUBLE_EQ(report.makespan_us, second.finish_us);
  EXPECT_EQ(report.batches, 2u);
}

TEST(ServeLoopTest, SameKeyBatchesWaitForTheTuningThatProducesTheirPlan) {
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  ServeConfig config;
  config.max_batch = 1;  // force two separate same-key batches
  ServeLoop loop(&engine, config);
  const ServeReport report = loop.Run({{0, "t", 0.0, SmallSpec(1024)},
                                       {1, "t", 0.0, SmallSpec(1024)}});
  ASSERT_EQ(report.stats.count(), 2u);
  const auto& first = report.stats.records()[0];
  const auto& second = report.stats.records()[1];
  // No time travel: neither request may start before the tuning that
  // produced their (shared) plan completes, and arrival order is kept.
  EXPECT_GE(first.start_us, config.tune_per_search_us);
  EXPECT_GE(second.start_us, first.finish_us);
  // Both waited on the cold plan, so both count as cache misses.
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_FALSE(second.plan_cache_hit);
  EXPECT_EQ(report.cold_batches, 2u);
}

TEST(ServeLoopTest, InlineColdBatchCountsEveryRequestAsMiss) {
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  ServeConfig config;
  config.overlap_tuning = false;
  ServeLoop loop(&engine, config);
  // r1 and r2 arrive while r0's batch occupies the executor, so they form
  // one two-request cold batch; the second must not count as a hit just
  // because the first request's Execute built the plan moments earlier.
  const ServeReport report = loop.Run({{0, "t", 0.0, SmallSpec(4096)},
                                       {1, "t", 1.0, SmallSpec(1024)},
                                       {2, "t", 1.0, SmallSpec(1024)}});
  ASSERT_EQ(report.stats.count(), 3u);
  EXPECT_EQ(report.stats.records()[1].batch_size, 2);
  EXPECT_DOUBLE_EQ(report.stats.CacheHitRate(), 0.0);
}

TEST(ServeLoopTest, ColdRequestsArrivingDuringTuningStillBatch) {
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  ServeLoop loop(&engine);  // default max_batch = 4
  // One spec starts tuning at t=0; three same-key requests for a second
  // spec arrive during the tuning window. They must coalesce into one
  // batch (one tuning pass, one dispatch), not freeze into singletons.
  std::vector<ServeRequest> trace = {{0, "t", 0.0, SmallSpec(4096)}};
  for (int64_t i = 1; i <= 3; ++i) {
    trace.push_back({i, "t", 10.0 * static_cast<double>(i), SmallSpec(1024)});
  }
  const ServeReport report = loop.Run(trace);
  ASSERT_EQ(report.stats.count(), 4u);
  EXPECT_EQ(report.stats.records()[3].batch_size, 3);
  EXPECT_EQ(report.batches, 2u);
}

TEST(ServeLoopTest, TuningStartsWhileExecutorIsBusy) {
  OverlapEngine engine(MakeA800Cluster(8), {}, EngineOptions{.jitter = false});
  ServeConfig config;
  config.tune_base_us = 50.0;
  config.tune_per_search_us = 100.0;  // small enough to finish mid-execution
  ServeLoop loop(&engine, config);
  const auto spec_a =
      ScenarioSpec::Overlap(GemmShape{32768, 8192, 3584}, CommPrimitive::kAllReduce);
  const auto spec_b =
      ScenarioSpec::Overlap(GemmShape{16384, 8192, 1024}, CommPrimitive::kAllReduce);
  // Request B arrives while A occupies the executor and the tuner is idle:
  // B's tuning must run concurrently, so B dispatches the moment A's batch
  // frees the executor instead of tuning only then.
  const ServeReport report = loop.Run({{0, "t", 0.0, spec_a}, {1, "t", 1000.0, spec_b}});
  ASSERT_EQ(report.stats.count(), 2u);
  const auto& records = report.stats.records();
  ASSERT_EQ(records[0].id, 0);
  ASSERT_GT(records[0].ExecUs(), 1000.0) << "setup: A must still be executing at t=1000";
  EXPECT_DOUBLE_EQ(records[1].start_us, records[0].finish_us);
}

TEST(ServeLoopTest, WarmBatchesAreNotStrandedBehindAnotherKeysTuning) {
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  ServeLoop loop(&engine);
  // Key A starts tuning; key B queues behind it on the tuning lane; more
  // key-A requests arrive meanwhile. Once A's tuning completes, the A
  // requests must run as soon as the executor frees — not wait out B's
  // tuning window too.
  std::vector<ServeRequest> trace = {{0, "t", 0.0, SmallSpec(1024)},
                                     {1, "t", 5.0, SmallSpec(4096)}};
  for (int64_t i = 2; i <= 5; ++i) {
    trace.push_back({i, "t", 10.0 + static_cast<double>(i), SmallSpec(1024)});
  }
  const ServeReport report = loop.Run(trace);
  ASSERT_EQ(report.stats.count(), 6u);
  const auto& records = report.stats.records();
  EXPECT_EQ(records[0].id, 0);
  for (const auto& record : records) {
    if (record.id >= 2) {
      EXPECT_DOUBLE_EQ(record.start_us, records[0].finish_us);
      EXPECT_EQ(record.batch_size, 4);
    }
  }
}

TEST(ServeLoopTest, RunsAreDeterministic) {
  const auto trace = MergeStreams(
      {MakeRequestStream("a", {SmallSpec(1024), SmallSpec(2048)},
                         PoissonArrivals(2000.0, 30, 5), 0),
       MakeRequestStream("b", {SmallSpec(4096)}, BurstyArrivals(4000.0, 3.0, 4, 15, 6), 100)});
  auto run_once = [&trace]() {
    OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
    ServeLoop loop(&engine);
    return loop.Run(trace);
  };
  const ServeReport x = run_once();
  const ServeReport y = run_once();
  EXPECT_DOUBLE_EQ(x.makespan_us, y.makespan_us);
  EXPECT_EQ(x.batches, y.batches);
  ASSERT_EQ(x.stats.count(), y.stats.count());
  for (size_t i = 0; i < x.stats.count(); ++i) {
    EXPECT_DOUBLE_EQ(x.stats.records()[i].finish_us, y.stats.records()[i].finish_us);
  }
}

TEST(ServeLoopTest, OverlapTuningMovesColdCostOffTheExecutor) {
  const std::vector<ServeRequest> trace = {{0, "t", 0.0, SmallSpec(1024)}};
  ServeConfig inline_config;
  inline_config.overlap_tuning = false;
  OverlapEngine inline_engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  const ServeReport inline_report = ServeLoop(&inline_engine, inline_config).Run(trace);
  // Inline: the one tuner search lands on the executor's critical path.
  ASSERT_EQ(inline_report.stats.count(), 1u);
  EXPECT_GE(inline_report.stats.records()[0].ExecUs(), inline_config.tune_per_search_us);
  EXPECT_DOUBLE_EQ(inline_report.tuner_busy_us, 0.0);

  OverlapEngine overlap_engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  const ServeReport overlap_report = ServeLoop(&overlap_engine, ServeConfig{}).Run(trace);
  // Overlapped: the request waits on the tuning lane (queueing delay), but
  // its executor service time excludes the search.
  ASSERT_EQ(overlap_report.stats.count(), 1u);
  const auto& record = overlap_report.stats.records()[0];
  EXPECT_LT(record.ExecUs(), ServeConfig{}.tune_per_search_us);
  EXPECT_GE(record.QueueUs(), ServeConfig{}.tune_per_search_us);
  EXPECT_GT(overlap_report.tuner_busy_us, 0.0);
  EXPECT_FALSE(record.plan_cache_hit);
}

TEST(ServeLoopTest, AdaptiveTunerLanesWidenUnderColdBursts) {
  // Four distinct cold keys arrive together: with one static lane they
  // tune serially; adaptive sizing widens the pool to the observed
  // cold-key pressure and collapses back afterwards.
  std::vector<ServeRequest> trace;
  for (int64_t i = 0; i < 4; ++i) {
    trace.push_back({i, "t", 0.0, SmallSpec(1024 + 512 * i)});
  }
  ServeConfig narrow;
  narrow.tuner_lanes = 1;
  OverlapEngine narrow_engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  const ServeReport serial = ServeLoop(&narrow_engine, narrow).Run(trace);

  ServeConfig adaptive;
  adaptive.adaptive_tuner_lanes = true;
  adaptive.max_tuner_lanes = 4;
  OverlapEngine adaptive_engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  const ServeReport widened = ServeLoop(&adaptive_engine, adaptive).Run(trace);

  ASSERT_EQ(widened.stats.count(), trace.size());
  EXPECT_EQ(serial.tuner_lanes, 1);
  EXPECT_EQ(widened.tuner_lanes, 4);  // the burst demanded the full pool
  // Four tuning windows overlap instead of queueing.
  EXPECT_LT(widened.makespan_us, serial.makespan_us);
  // Lane sizing never changes what gets tuned, only when.
  EXPECT_EQ(adaptive_engine.tuner().search_count(), narrow_engine.tuner().search_count());
  EXPECT_EQ(adaptive_engine.plan_store().size(), narrow_engine.plan_store().size());
  // The clamp is respected under wider bursts.
  ServeConfig clamped;
  clamped.adaptive_tuner_lanes = true;
  clamped.max_tuner_lanes = 2;
  OverlapEngine clamped_engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  EXPECT_EQ(ServeLoop(&clamped_engine, clamped).Run(trace).tuner_lanes, 2);
}

TEST(ServeLoopTest, AdaptiveTunerLanesStayNarrowWithoutPressure) {
  // One cold key at a time: pressure never exceeds a single lane.
  std::vector<ServeRequest> trace;
  for (int64_t i = 0; i < 6; ++i) {
    trace.push_back({i, "t", 200000.0 * static_cast<double>(i), SmallSpec(1024 + 512 * (i % 2))});
  }
  ServeConfig adaptive;
  adaptive.adaptive_tuner_lanes = true;
  adaptive.max_tuner_lanes = 8;
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  const ServeReport report = ServeLoop(&engine, adaptive).Run(trace);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_EQ(report.tuner_lanes, 1);
}

TEST(ServeLoopTest, SharedWarmStoreServesWithoutSearches) {
  const auto trace = MergeStreams(
      {MakeRequestStream("a", {SmallSpec(1024), SmallSpec(2048)},
                         PoissonArrivals(3000.0, 20, 1), 0)});
  auto store = std::make_shared<PlanStore>();
  OverlapEngine cold_engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  cold_engine.UseSharedPlanStore(store);
  const ServeReport cold = ServeLoop(&cold_engine).Run(trace);
  EXPECT_GT(cold.cold_batches, 0u);

  OverlapEngine warm_engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  warm_engine.UseSharedPlanStore(store);
  const ServeReport warm = ServeLoop(&warm_engine).Run(trace);
  EXPECT_EQ(warm.cold_batches, 0u);
  EXPECT_DOUBLE_EQ(warm.stats.CacheHitRate(), 1.0);
  EXPECT_EQ(warm_engine.tuner().search_count(), 0u);
  EXPECT_DOUBLE_EQ(warm.tuner_busy_us, 0.0);
  // Tails can only improve once every plan is warm.
  EXPECT_LE(warm.stats.Summarize("a").latency.p99, cold.stats.Summarize("a").latency.p99);
}

TEST(ServeLoopTest, CapacityOnePlanStoreChurnsButServes) {
  auto store = std::make_shared<PlanStore>(/*capacity=*/1);
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  engine.UseSharedPlanStore(store);
  // Alternating distinct specs with a capacity-one store: every batch
  // evicts the other spec's plan.
  std::vector<ServeRequest> trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back({i, "t", i * 50000.0, SmallSpec(i % 2 == 0 ? 1024 : 2048)});
  }
  const ServeReport report = ServeLoop(&engine).Run(trace);
  EXPECT_EQ(report.stats.count(), 10u);
  EXPECT_EQ(store->size(), 1u);
  EXPECT_GT(store->stats().evictions, 0u);
  EXPECT_EQ(report.cold_batches, 10u);  // nothing survives long enough to hit
}

TEST(ServeLoopTest, MixedImbalancedTraceWarmsAndRerunsBitIdentically) {
  // Balanced keys and two imbalanced keys sharing a heaviest rank: each of
  // the four keys pays exactly one search (the imbalanced pair must not
  // collide in the tuning lane), later requests serve warm, and a rerun is
  // bit-identical.
  const GemmShape heavy{8192, 2048, 1024};
  const std::vector<ScenarioSpec> specs{
      SmallSpec(1024),
      SmallSpec(2048),
      ScenarioSpec::Imbalanced({heavy, GemmShape{1024, 2048, 1024},
                                GemmShape{1024, 2048, 1024}, GemmShape{1024, 2048, 1024}},
                               CommPrimitive::kAllToAll),
      ScenarioSpec::Imbalanced({heavy, GemmShape{4096, 2048, 1024},
                                GemmShape{4096, 2048, 1024}, GemmShape{4096, 2048, 1024}},
                               CommPrimitive::kAllToAll),
  };
  const auto trace =
      MakeRequestStream("mix", specs, PoissonArrivals(20000.0, 32, 11), 0);
  const auto run = [&trace](size_t* searches) {
    OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
    const ServeReport report = ServeLoop(&engine).Run(trace);
    *searches = engine.tuner().search_count();
    return report;
  };
  size_t searches_a = 0;
  const ServeReport a = run(&searches_a);
  ASSERT_EQ(a.stats.count(), trace.size());
  EXPECT_EQ(searches_a, specs.size()) << "one search per key, imbalanced included";
  // Once each key tuned, everything serves from the plan store.
  size_t warm_hits = 0;
  for (const auto& record : a.stats.records()) {
    warm_hits += record.plan_cache_hit ? 1 : 0;
  }
  EXPECT_GE(warm_hits, trace.size() - 2 * specs.size());
  EXPECT_GT(warm_hits, trace.size() / 2);

  size_t searches_b = 0;
  const ServeReport b = run(&searches_b);
  EXPECT_EQ(searches_b, searches_a);
  EXPECT_DOUBLE_EQ(b.makespan_us, a.makespan_us);
  ASSERT_EQ(b.stats.count(), a.stats.count());
  for (size_t i = 0; i < a.stats.count(); ++i) {
    EXPECT_DOUBLE_EQ(b.stats.records()[i].finish_us, a.stats.records()[i].finish_us) << i;
    EXPECT_EQ(b.stats.records()[i].plan_cache_hit, a.stats.records()[i].plan_cache_hit) << i;
  }
}

}  // namespace
}  // namespace flo
