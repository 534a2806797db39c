#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/overlap_engine.h"
#include "src/models/workloads.h"
#include "src/serve/request_queue.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_loop.h"
#include "src/serve/serve_session.h"
#include "src/serve/serve_stats.h"
#include "src/serve/tenant_registry.h"
#include "src/sim/event_loop.h"
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

// One pop as "tenant:id,id,...", batch members in pop order.
std::string PopOne(RequestQueue* queue, int max_batch) {
  std::string out;
  for (const ServeRequest& request : queue->PopBatch(max_batch)) {
    out += out.empty() ? request.tenant + ":" : ",";
    out += std::to_string(request.id);
  }
  return out;
}

// Pops `pops` batches (or until empty), joined by spaces.
std::string PopSequence(RequestQueue* queue, int max_batch, int pops = 1 << 20) {
  std::string out;
  for (int i = 0; i < pops && !queue->empty(); ++i) {
    out += (out.empty() ? "" : " ") + PopOne(queue, max_batch);
  }
  return out;
}

TEST(RequestQueueTest, NewTenantSortingBeforeTheRotationPointWaitsForTheWrap) {
  RequestQueue queue(ShapeKeyer);
  queue.Admit(MakeReq(0, "b", 0.0, 1));
  queue.Admit(MakeReq(1, "d", 1.0, 2));
  queue.Admit(MakeReq(2, "b", 2.0, 3));
  queue.Admit(MakeReq(3, "d", 3.0, 4));
  EXPECT_EQ(PopSequence(&queue, 1, 1), "b:0");
  // "a" sorts before the last pick ("b"): rotation reaches it only after
  // wrapping past "d".
  queue.Admit(MakeReq(4, "a", 4.0, 5));
  queue.Admit(MakeReq(5, "a", 5.0, 6));
  EXPECT_EQ(PopSequence(&queue, 1), "d:1 a:4 b:2 d:3 a:5");
}

TEST(RequestQueueTest, NewTenantSortingAfterTheRotationPointIsNext) {
  RequestQueue queue(ShapeKeyer);
  queue.Admit(MakeReq(0, "b", 0.0, 1));
  queue.Admit(MakeReq(1, "d", 1.0, 2));
  queue.Admit(MakeReq(2, "b", 2.0, 3));
  EXPECT_EQ(PopSequence(&queue, 1, 1), "b:0");
  // "c" sorts between the last pick and "d": it is the next lane.
  queue.Admit(MakeReq(3, "c", 3.0, 4));
  queue.Admit(MakeReq(4, "e", 4.0, 5));
  EXPECT_EQ(PopSequence(&queue, 1, 2), "c:3 d:1");
  // And one sorting after every lane, added after the last lane was
  // picked, is next too.
  queue.Admit(MakeReq(5, "f", 5.0, 6));
  EXPECT_EQ(PopSequence(&queue, 1), "e:4 f:5 b:2");
}

TEST(RequestQueueDeathTest, TenantIdNamingAnotherTenantAborts) {
  // Lanes are ordered by name and found by id, so a caller-set id must
  // name the request's tenant. An empty name can then never reach a
  // lane either: interning rejects it.
  const uint32_t other = InternTenant("request-queue-test-other");
  RequestQueue queue(ShapeKeyer);
  ServeRequest mislabeled = MakeReq(0, "a", 0.0, 1);
  mislabeled.tenant_id = other;
  EXPECT_DEATH(queue.Admit(mislabeled), "names \"request-queue-test-other\", not \"a\"");
  ServeRequest unnamed = MakeReq(1, "", 1.0, 2);
  unnamed.tenant_id = other;
  EXPECT_DEATH(queue.Admit(unnamed), "not \"\"");
  // A matching id is accepted.
  ServeRequest labeled = MakeReq(2, "request-queue-test-other", 2.0, 3);
  labeled.tenant_id = other;
  queue.Admit(labeled);
  // With that lane in place, the mismatch must not merge into it.
  EXPECT_DEATH(queue.Admit(mislabeled), "names \"request-queue-test-other\", not \"a\"");
  EXPECT_EQ(PopSequence(&queue, 1), "request-queue-test-other:2");
}

TEST(RequestQueueTest, DrainedLaneRefillsInRotation) {
  RequestQueue queue(ShapeKeyer);
  queue.Admit(MakeReq(0, "a", 0.0, 1));
  queue.Admit(MakeReq(1, "b", 1.0, 2));
  queue.Admit(MakeReq(2, "c", 2.0, 3));
  EXPECT_EQ(PopSequence(&queue, 1, 2), "a:0 b:1");
  EXPECT_EQ(queue.TenantDepth("a"), 0u);
  // Lane "a" is empty but kept; refilled, it rejoins after "c".
  queue.Admit(MakeReq(3, "a", 3.0, 4));
  queue.Admit(MakeReq(4, "b", 4.0, 5));
  EXPECT_EQ(queue.Tenants(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(PopSequence(&queue, 1), "c:2 a:3 b:4");
  // Drain to empty and refill every lane: rotation resumes after "b".
  for (int64_t i = 5; i < 11; ++i) {
    queue.Admit(MakeReq(i, i % 3 == 0 ? "a" : i % 3 == 1 ? "b" : "c", 5.0, 10 + i));
  }
  EXPECT_EQ(queue.KeyDepth(15), 1u);
  EXPECT_EQ(PopSequence(&queue, 1), "c:5 a:6 b:7 c:8 a:9 b:10");
  EXPECT_EQ(queue.KeyDepth(15), 0u);
}

TEST(RequestQueueTest, LaneGrowthPastWrapAroundKeepsFifoOrder) {
  // Admits and pops interleave so a lane's live window wraps its storage
  // while it grows; every view of the queue must still see FIFO order.
  RequestQueue queue(ShapeKeyer);
  int64_t next = 0;
  std::string popped;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 3 + 2 * round; ++i, ++next) {
      // Runs of two equal keys so batches gather more than one request.
      queue.Admit(MakeReq(next, next % 5 == 0 ? "b" : "a", static_cast<double>(next),
                          100 + next / 2));
    }
    for (int i = 0; i < 2 + round; ++i) {
      popped += (popped.empty() ? "" : " ") + PopOne(&queue, 2);
    }
  }
  EXPECT_EQ(popped,
            "a:1,0 a:2 b:5 a:3 a:4 b:10 a:6,7 a:8,9 a:11 b:15 a:12,13 b:20 a:14 a:16,17 b:25 "
            "a:18,19 b:30 a:21 a:22,23 a:24 b:35 a:26,27 b:40 a:28,29 b:45 a:31 a:32,33");
  ASSERT_EQ(queue.size(), 11u);
  // Lane "a" holds ids 34..47 (ids 35, 40, 45 went to "b"); "b" gets two
  // more of one key.
  queue.Admit(MakeReq(48, "b", 48.0, 130));
  queue.Admit(MakeReq(49, "b", 49.0, 130));
  // The next pop, previewed: rotation moves on from "a" to "b".
  const RequestQueue::BatchPreview preview = queue.PreviewBatch(4);
  EXPECT_EQ(preview.key, 130u);
  EXPECT_EQ(preview.size, 2u);
  EXPECT_EQ(preview.oldest_arrival_us, 48.0);
  std::vector<RequestQueue::BatchPreview> lanes;
  queue.PreviewLanes(4, &lanes);
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0].key, 117u);
  EXPECT_EQ(lanes[0].size, 1u);
  EXPECT_EQ(lanes[0].oldest_arrival_us, 34.0);
  EXPECT_EQ(lanes[1].key, 130u);
  EXPECT_EQ(lanes[1].size, 2u);
  // A scheduler-ranked pick sees every non-empty lane's head and depth.
  std::vector<std::string> seen;
  queue.SetLanePicker([&seen](const std::vector<RequestQueue::LaneHead>& heads) {
    std::string line;
    for (const RequestQueue::LaneHead& head : heads) {
      line += *head.tenant + "@" + std::to_string(static_cast<int>(head.arrival_us)) + "x" +
              std::to_string(head.depth) + " ";
    }
    seen.push_back(line);
    return heads.size() - 1;  // always the last lane
  });
  EXPECT_EQ(PopSequence(&queue, 4, 2), "b:48,49 a:34");
  EXPECT_EQ(seen, (std::vector<std::string>{"a@34x11 b@48x2 ", "a@34x11 "}));
  queue.SetLanePicker(nullptr);
  std::vector<KeyedRequest> drained;
  EXPECT_EQ(queue.DrainInto(&drained), 10u);
  std::string order;
  for (const KeyedRequest& keyed : drained) {
    order += keyed.request.tenant + ":" + std::to_string(keyed.request.id) + "/" +
             std::to_string(keyed.key) + " ";
  }
  EXPECT_EQ(order, "a:36/118 a:37/118 a:38/119 a:39/119 a:41/120 a:42/121 a:43/121 "
                   "a:44/122 a:46/123 a:47/123 ");
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.KeyDepth(121), 0u);
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
  // Both plans warm, so neither request waits on a tune.
  engine.Execute(SmallSpec(1024));
  engine.Execute(SmallSpec(2048));
  ServeConfig config;
  config.max_batch = 1;
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

// --- Plan-hit accounting ------------------------------------------------------

// One session run reduced to its plan-hit ledger: per record (completion
// order) id, 'H' for a plan-cache hit or 'm' for a miss, and 'd' when it
// ran degraded; then the report's batch and cold-batch counts, the plan
// store's hits, misses and evictions, and the keys that left the store
// (LRU evictions and the erases of aborted tunes) in order, as indices
// into `specs`.
struct LedgerCase {
  ServeConfig config;
  size_t store_capacity = 0;
  // Every tune in flight fails right after each admission, and the retry
  // budget is zero: the first failure degrades the batch.
  bool fail_tunes = false;
  // Every spec carries the engine's own options: no run is memoized
  // (OverlapEngine::ExecuteMemoizedTiming), and nothing else changes.
  bool unmemoized = false;
};

std::string PlanHitLedger(const LedgerCase& c) {
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  auto store = std::make_shared<PlanStore>(c.store_capacity);
  engine.UseSharedPlanStore(store);
  std::vector<ScenarioSpec> specs;
  std::vector<uint64_t> keys;
  for (int k = 0; k < 4; ++k) {
    specs.push_back(SmallSpec(1024 + 512 * k));
    if (c.unmemoized) {
      specs.back().options = engine.options();
    }
    keys.push_back(engine.planner().CanonicalKey(specs.back()));
  }
  std::string removed;
  store->SetChangeCallback([&](uint64_t key, bool resident) {
    if (!resident) {
      const auto it = std::find(keys.begin(), keys.end(), key);
      removed += it == keys.end() ? "?" : std::to_string(it - keys.begin());
    }
  });
  EventLoop events;
  ServeSession session(&engine, c.config, &events);
  if (c.fail_tunes) {
    FaultConfig faults;
    faults.tuner_retry_budget = 0;
    session.SetFaultConfig(faults);
  }
  // Bursts over two tenants: cold keys arrive together (tuned, parked and
  // coalesced), later bursts reuse warm or evicted keys.
  const int pattern[] = {0, 1, 0, 0, 2, 1, 1, 3, 0, 2, 2, 3, 1, 0, 3, 3, 2, 0, 1, 1};
  for (int i = 0; i < 20; ++i) {
    const SimTime at = 30000.0 * static_cast<double>(i / 4) + static_cast<double>(i % 4);
    ServeRequest request{i, i % 2 == 0 ? "a" : "b", at, specs[static_cast<size_t>(pattern[i])]};
    events.PushCall(at, [&session, &c, request, at]() mutable {
      session.Admit(std::move(request), at);
      if (c.fail_tunes) {
        session.FailInFlightTuning();
      }
    });
  }
  events.RunToCompletion();
  if (c.unmemoized) {
    EXPECT_EQ(engine.run_memo_size(), 0u);
  }
  const ServeReport& report = session.report();
  std::string ledger;
  for (const RequestRecord& record : report.stats.records()) {
    ledger += std::to_string(record.id) + (record.plan_cache_hit ? "H" : "m") +
              (record.degraded ? "d" : "") + " ";
  }
  const PlanStoreStats stats = store->stats();
  return ledger + "| batches " + std::to_string(report.batches) + " cold " +
         std::to_string(report.cold_batches) + " | store " + std::to_string(stats.hits) +
         "/" + std::to_string(stats.misses) + "/" + std::to_string(stats.evictions) +
         " removed " + removed;
}

TEST(PlanHitAccountingTest, LedgerIsPinnedAcrossWarmColdEvictedUnmemoizedAndDegradedBatches) {
  // ExecuteBatch reads a batch's hit from its run's own plan lookup and
  // peeks the store separately only for a degraded batch (whose run looks
  // up the safety plan's key). These ledgers pin the hit flags, cold-batch
  // counts, store counters and removal order that follow, on every path
  // a batch can take to the executor.
  LedgerCase warm;  // tuned, then warm; unbounded store
  EXPECT_EQ(PlanHitLedger(warm),
            "0m 2m 3m 1m 5m 6m 8H 4m 9H 10H 7m 11m 12H 13H 14H 15H 16H 17H 18H 19H "
            "| batches 12 cold 4 | store 12/4/0 removed ");
  LedgerCase bounded;  // two lanes, two-plan store: evicted and rebuilt
  bounded.config.tuner_lanes = 2;
  bounded.store_capacity = 2;
  EXPECT_EQ(PlanHitLedger(bounded),
            "0m 2m 3m 1m 5H 6H 4m 7m 8m 9m 11m 10m 12m 13m 14m 15m 16m 17m 18m 19m "
            "| batches 16 cold 14 | store 7/23/21 removed 021230230321031032012");
  LedgerCase unmemoized = bounded;
  unmemoized.unmemoized = true;
  EXPECT_EQ(PlanHitLedger(unmemoized), PlanHitLedger(bounded));
  LedgerCase degraded;
  degraded.fail_tunes = true;
  EXPECT_EQ(PlanHitLedger(degraded),
            "0md 1md 2m 3m 8H 4md 5m 6m 7m 11m 9m 10m 12H 13H 14H 15H 16H 17H 18H 19H "
            "| batches 14 cold 7 | store 11/10/0 removed 012");
}

}  // namespace
}  // namespace flo
