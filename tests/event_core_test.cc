// The discrete-event core and streaming ingestion: FIFO stability,
// agreement with a reference binary heap on randomized schedules,
// streaming-vs-materialized serving equivalence, and bit identity of serve
// and fleet reports across reruns and run memoization.
#include <cmath>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/serving_cluster.h"
#include "src/core/overlap_engine.h"
#include "src/models/workloads.h"
#include "src/serve/request_cursor.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_loop.h"
#include "src/sim/calendar_queue.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace flo {
namespace {

// --- Event-loop ordering ---------------------------------------------------

TEST(EventLoopTest, EqualTimestampsDispatchInPushOrder) {
  EventLoop loop;
  std::vector<uint64_t> order;
  const uint32_t handler = loop.RegisterHandler(
      [&order](const EventRecord& record, SimTime) { order.push_back(record.key); });
  for (uint64_t i = 0; i < 100; ++i) {
    EventRecord record;
    record.handler = handler;
    record.key = i;
    loop.Push(42.0, record);
  }
  loop.RunToCompletion();
  ASSERT_EQ(order.size(), 100u);
  for (uint64_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventLoopTest, ArrivalsWinEqualTimeTiesAgainstInternalEvents) {
  // Arrivals sit in the low band, so they dispatch as if they had been
  // scheduled up front, even when pushed *after* the internal event.
  EventLoop loop;
  std::vector<std::string> order;
  const uint32_t internal = loop.RegisterHandler(
      [&order](const EventRecord&, SimTime) { order.push_back("internal"); });
  const uint32_t arrival = loop.RegisterHandler(
      [&order](const EventRecord&, SimTime) { order.push_back("arrival"); });
  EventRecord internal_record;
  internal_record.type = EventType::kBatchFinished;
  internal_record.handler = internal;
  loop.Push(10.0, internal_record);
  EventRecord arrival_record;
  arrival_record.type = EventType::kArrival;
  arrival_record.handler = arrival;
  loop.Push(10.0, arrival_record);
  loop.RunToCompletion();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "arrival");
  EXPECT_EQ(order[1], "internal");
}

TEST(EventLoopTest, OutOfOrderPushesBeforeFirstDispatchAreLegal) {
  // The cluster schedules its first autoscale checkpoint after the pump
  // staged a later-timed arrival; both must dispatch, earliest first.
  EventLoop loop;
  std::vector<double> times;
  const uint32_t handler = loop.RegisterHandler(
      [&times](const EventRecord&, SimTime now) { times.push_back(now); });
  EventRecord record;
  record.handler = handler;
  loop.Push(30000.0, record);
  loop.Push(20000.0, record);  // earlier than an already queued event
  loop.RunToCompletion();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 20000.0);
  EXPECT_EQ(times[1], 30000.0);
}

TEST(EventLoopTest, DrainedLoopAcceptsEarlierTimesForTheNextRun) {
  EventLoop loop;
  int fired = 0;
  const uint32_t handler =
      loop.RegisterHandler([&fired](const EventRecord&, SimTime) { ++fired; });
  EventRecord record;
  record.handler = handler;
  loop.Push(1e9, record);
  loop.RunToCompletion();
  loop.Push(1.0, record);  // a fresh run starts earlier than the last one ended
  loop.RunToCompletion();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.dispatched(), 2u);
}

TEST(EventLoopTest, PushCallPoolsAndRecyclesClosureSlots) {
  EventLoop loop;
  std::vector<int> order;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      loop.PushCall(static_cast<double>(round * 10 + i),
                    [&order, round, i] { order.push_back(round * 10 + i); });
    }
    loop.RunToCompletion();
  }
  ASSERT_EQ(order.size(), 12u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(CalendarQueueTest, RandomizedPushPopMatchesSortedReference) {
  Rng rng(20260807);
  CalendarQueue queue;
  // Reference: a sorted multiset of (time, order) pairs.
  std::set<std::pair<double, uint64_t>> reference;
  uint64_t next_order = 0;
  double floor = 0.0;
  for (int step = 0; step < 20000; ++step) {
    const bool push = reference.empty() || rng.NextDouble() < 0.55;
    if (push) {
      // Times at coarse granularity so equal timestamps actually occur.
      const double time = floor + std::floor(rng.NextDouble() * 50.0);
      queue.Push(time, next_order, EventRecord{});
      reference.emplace(time, next_order);
      ++next_order;
    } else {
      const CalendarEntry popped = queue.PopMin();
      const auto expected = *reference.begin();
      reference.erase(reference.begin());
      ASSERT_EQ(popped.time, expected.first) << "step " << step;
      ASSERT_EQ(popped.order, expected.second) << "step " << step;
      floor = popped.time;
    }
  }
  while (!reference.empty()) {
    const CalendarEntry popped = queue.PopMin();
    const auto expected = *reference.begin();
    reference.erase(reference.begin());
    ASSERT_EQ(popped.time, expected.first);
    ASSERT_EQ(popped.order, expected.second);
  }
  EXPECT_TRUE(queue.empty());
}

// The ordering contract EventLoop documents, with none of the calendar
// machinery: a binary heap on (time, band << 63 | push sequence), arrivals
// in band 0. The differential reference for randomized schedules.
class ReferenceHeapLoop {
 public:
  using Handler = std::function<void(const EventRecord&, SimTime)>;

  uint32_t RegisterHandler(Handler handler) {
    handlers_.push_back(std::move(handler));
    return static_cast<uint32_t>(handlers_.size() - 1);
  }

  void Push(SimTime time, const EventRecord& record) {
    const uint64_t band = record.type == EventType::kArrival ? 0 : 1;
    heap_.push_back(Entry{time, (band << 63) | next_seq_++, record});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  bool RunOne(SimTime* now) {
    if (heap_.empty()) {
      return false;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    const Entry entry = heap_.back();
    heap_.pop_back();
    *now = entry.time;
    handlers_[entry.record.handler](entry.record, entry.time);
    return true;
  }

  void RunToCompletion() {
    SimTime now = 0.0;
    while (RunOne(&now)) {
    }
  }

  bool empty() const { return heap_.empty(); }

 private:
  struct Entry {
    SimTime time;
    uint64_t order;
    EventRecord record;
  };
  static bool Later(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time > b.time : a.order > b.order;
  }

  std::vector<Handler> handlers_;
  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

// Drives one seeded schedule of interleaved pushes (30% arrivals, coarse
// times so ties occur) and dispatches; returns the (time, key) sequence.
template <typename Loop>
std::vector<std::pair<double, uint64_t>> DispatchRandomSchedule(uint64_t seed) {
  Rng rng(seed);
  Loop loop;
  std::vector<std::pair<double, uint64_t>> sequence;
  const uint32_t handler =
      loop.RegisterHandler([&sequence](const EventRecord& record, SimTime now) {
        sequence.emplace_back(now, record.key);
      });
  double now = 0.0;
  uint64_t key = 0;
  for (int step = 0; step < 5000; ++step) {
    if (loop.empty() || rng.NextDouble() < 0.6) {
      EventRecord record;
      record.type = rng.NextDouble() < 0.3 ? EventType::kArrival : EventType::kGeneric;
      record.handler = handler;
      record.key = key++;
      loop.Push(now + std::floor(rng.NextDouble() * 20.0), record);
    } else {
      loop.RunOne(&now);
    }
  }
  loop.RunToCompletion();
  return sequence;
}

TEST(EventLoopTest, BackendsDispatchIdenticalRandomSchedules) {
  for (const uint64_t seed : {1ull, 7ull, 99ull}) {
    const auto sequence = DispatchRandomSchedule<EventLoop>(seed);
    EXPECT_GT(sequence.size(), 2500u);
    EXPECT_EQ(sequence, DispatchRandomSchedule<ReferenceHeapLoop>(seed)) << "seed " << seed;
  }
}

// --- Streaming cursors -----------------------------------------------------

TEST(ArrivalProcessTest, MatchesBatchGeneratorsBitwise) {
  ArrivalProcess poisson = ArrivalProcess::Poisson(800.0, 17);
  const std::vector<SimTime> poisson_batch = PoissonArrivals(800.0, 300, 17);
  for (const SimTime expected : poisson_batch) {
    EXPECT_EQ(poisson.Next(), expected);
  }
  ArrivalProcess bursty = ArrivalProcess::Bursty(1000.0, 4.0, 8, 23);
  const std::vector<SimTime> bursty_batch = BurstyArrivals(1000.0, 4.0, 8, 300, 23);
  for (const SimTime expected : bursty_batch) {
    EXPECT_EQ(bursty.Next(), expected);
  }
}

std::vector<ScenarioSpec> SmallSpecs() {
  return {
      ScenarioSpec::Overlap(GemmShape{1024, 1024, 512}, CommPrimitive::kAllReduce),
      ScenarioSpec::Overlap(GemmShape{2048, 1024, 512}, CommPrimitive::kAllReduce),
  };
}

TEST(RequestCursorTest, SyntheticCursorMatchesMakeRequestStream) {
  const std::vector<ScenarioSpec> specs = SmallSpecs();
  const auto stream =
      MakeRequestStream("llm", specs, PoissonArrivals(500.0, 120, 5), 1000);
  SyntheticCursor cursor("llm", specs, ArrivalProcess::Poisson(500.0, 5), 120, 1000);
  for (const ServeRequest& expected : stream) {
    const auto request = cursor.Next();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->id, expected.id);
    EXPECT_EQ(request->tenant, expected.tenant);
    EXPECT_EQ(request->arrival_us, expected.arrival_us);
    EXPECT_EQ(request->spec, expected.spec);
  }
  EXPECT_FALSE(cursor.Next().has_value());
}

TEST(RequestCursorTest, MergeCursorMatchesMergeStreams) {
  const std::vector<ScenarioSpec> specs = SmallSpecs();
  // Overlapping arrival times, including exact ties across streams.
  const auto stream_a = MakeRequestStream("a", specs, {10.0, 20.0, 20.0, 30.0}, 0);
  const auto stream_b = MakeRequestStream("b", specs, {10.0, 20.0, 25.0}, 100);
  const auto merged = MergeStreams({stream_a, stream_b});
  VectorCursor cursor_a(stream_a);
  VectorCursor cursor_b(stream_b);
  MergeCursor merge({&cursor_a, &cursor_b});
  for (const ServeRequest& expected : merged) {
    const auto request = merge.Next();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->id, expected.id);
    EXPECT_EQ(request->tenant, expected.tenant);
    EXPECT_EQ(request->arrival_us, expected.arrival_us);
  }
  EXPECT_FALSE(merge.Next().has_value());
}

TEST(RequestCursorTest, TraceFileCursorMatchesLoadTraceFromFile) {
  std::vector<ServeRequest> trace;
  trace.push_back({0, "llm", 10.5,
                   ScenarioSpec::Overlap(GemmShape{4096, 8192, 1024},
                                         CommPrimitive::kReduceScatter)});
  trace.push_back({1, "moe", 40.25,
                   ScenarioSpec::Imbalanced(
                       {GemmShape{1024, 512, 256}, GemmShape{2048, 512, 256}},
                       CommPrimitive::kAllToAll)});
  const std::string path = ::testing::TempDir() + "/event_core_trace.csv";
  ASSERT_TRUE(SaveTraceToFile(trace, path));
  const auto loaded = LoadTraceFromFile(path);
  ASSERT_TRUE(loaded.has_value());
  TraceFileCursor cursor(path);
  for (const ServeRequest& expected : *loaded) {
    const auto request = cursor.Next();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->id, expected.id);
    EXPECT_EQ(request->tenant, expected.tenant);
    EXPECT_EQ(request->arrival_us, expected.arrival_us);
    EXPECT_EQ(request->spec, expected.spec);
  }
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_TRUE(cursor.ok());
  std::remove(path.c_str());
}

TEST(RequestCursorTest, TraceFileCursorRejectsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/event_core_bad_trace.csv";
  std::ofstream file(path);
  file << "10.0,llm,Overlap,AllReduce,0,128x128x128\n";
  file << "not a trace line\n";
  file.close();
  TraceFileCursor cursor(path);
  EXPECT_TRUE(cursor.Next().has_value());  // first line is valid
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_FALSE(cursor.ok());  // rejected, not exhausted
  // LoadTraceFromFile rejects the whole file the same way.
  EXPECT_FALSE(LoadTraceFromFile(path).has_value());
  std::remove(path.c_str());
}

TEST(RequestCursorTest, MissingTraceFileSetsOkFalse) {
  TraceFileCursor cursor(::testing::TempDir() + "/does_not_exist.csv");
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_FALSE(cursor.ok());
}

// --- Serving equivalence and rerun bit identity ----------------------------

std::vector<ServeRequest> SmallTrace(int per_tenant) {
  const std::vector<ScenarioSpec> specs = SmallSpecs();
  return MergeStreams(
      {MakeRequestStream("llm", specs, PoissonArrivals(400.0, per_tenant, 1), 0),
       MakeRequestStream("moe", specs, BurstyArrivals(600.0, 4.0, 8, per_tenant, 2),
                         100000)});
}

bool SameServeReport(const ServeReport& a, const ServeReport& b) {
  if (a.makespan_us != b.makespan_us || a.stats.count() != b.stats.count() ||
      a.batches != b.batches || a.cold_batches != b.cold_batches ||
      a.executor_busy_us != b.executor_busy_us || a.tuner_busy_us != b.tuner_busy_us ||
      a.events != b.events) {
    return false;
  }
  for (size_t i = 0; i < a.stats.count(); ++i) {
    const RequestRecord& ra = a.stats.records()[i];
    const RequestRecord& rb = b.stats.records()[i];
    if (ra.id != rb.id || ra.tenant != rb.tenant || ra.arrival_us != rb.arrival_us ||
        ra.start_us != rb.start_us || ra.finish_us != rb.finish_us ||
        ra.plan_cache_hit != rb.plan_cache_hit || ra.batch_size != rb.batch_size) {
      return false;
    }
  }
  return true;
}

// The engine options every run here uses.
constexpr EngineOptions kNoJitter{.jitter = false};

// The memo-off reference trace: a spec carrying its own options is never
// memoized (OverlapEngine::ExecuteMemoizedTiming), and these equal the
// engine's, so every batch replays its schedule and nothing else changes.
std::vector<ServeRequest> Unmemoized(std::vector<ServeRequest> trace) {
  for (ServeRequest& request : trace) {
    request.spec.options = kNoJitter;
  }
  return trace;
}

ServeReport RunServe(const std::vector<ServeRequest>& trace, bool memoize) {
  OverlapEngine engine(Make4090Cluster(2), {}, kNoJitter);
  ServeLoop loop(&engine);
  const ServeReport report = loop.Run(memoize ? trace : Unmemoized(trace));
  if (!memoize) {
    EXPECT_EQ(engine.run_memo_size(), 0u);
  }
  return report;
}

TEST(EventCoreIdentityTest, ServeReportsBitIdenticalAcrossRerunsAndMemoization) {
  const auto trace = SmallTrace(40);
  const ServeReport baseline = RunServe(trace, /*memoize=*/false);
  EXPECT_TRUE(SameServeReport(baseline, RunServe(trace, false)));
  EXPECT_TRUE(SameServeReport(baseline, RunServe(trace, true)));
  EXPECT_GT(baseline.events, 0u);
}

TEST(EventCoreIdentityTest, StreamingCursorRunMatchesVectorRun) {
  const std::vector<ScenarioSpec> specs = SmallSpecs();
  const auto vector_trace = MergeStreams(
      {MakeRequestStream("llm", specs, PoissonArrivals(400.0, 50, 1), 0),
       MakeRequestStream("moe", specs, BurstyArrivals(600.0, 4.0, 8, 50, 2), 100000)});
  OverlapEngine vector_engine(Make4090Cluster(2), {}, EngineOptions{.jitter = false});
  ServeLoop vector_loop(&vector_engine);
  const ServeReport vector_report = vector_loop.Run(vector_trace);

  SyntheticCursor llm("llm", specs, ArrivalProcess::Poisson(400.0, 1), 50, 0);
  SyntheticCursor moe("moe", specs, ArrivalProcess::Bursty(600.0, 4.0, 8, 2), 50, 100000);
  MergeCursor merged({&llm, &moe});
  OverlapEngine cursor_engine(Make4090Cluster(2), {}, EngineOptions{.jitter = false});
  ServeLoop cursor_loop(&cursor_engine);
  const ServeReport cursor_report = cursor_loop.Run(&merged);

  EXPECT_TRUE(SameServeReport(vector_report, cursor_report));
}

bool SameFleetReport(const FleetReport& a, const FleetReport& b) {
  if (a.makespan_us != b.makespan_us || a.stats.count() != b.stats.count() ||
      a.total_searches != b.total_searches || a.distinct_keys != b.distinct_keys ||
      a.events != b.events || a.spawns != b.spawns || a.drains != b.drains ||
      a.peak_replicas != b.peak_replicas) {
    return false;
  }
  for (size_t i = 0; i < a.stats.count(); ++i) {
    const RequestRecord& ra = a.stats.records()[i];
    const RequestRecord& rb = b.stats.records()[i];
    if (ra.id != rb.id || ra.tenant != rb.tenant || ra.arrival_us != rb.arrival_us ||
        ra.start_us != rb.start_us || ra.finish_us != rb.finish_us ||
        ra.plan_cache_hit != rb.plan_cache_hit || ra.batch_size != rb.batch_size) {
      return false;
    }
  }
  return true;
}

FleetReport RunFleet(const std::vector<ServeRequest>& trace, bool memoize, bool autoscale) {
  ClusterConfig config;
  config.replicas = 2;
  if (autoscale) {
    config.autoscale.enabled = true;
    config.autoscale.min_replicas = 1;
    config.autoscale.max_replicas = 5;
    config.autoscale.check_interval_us = 20000.0;
    config.autoscale.spawn_queue_per_replica = 2.0;
  }
  ServingCluster fleet(Make4090Cluster(2), config, {}, kNoJitter);
  const FleetReport report = fleet.Run(memoize ? trace : Unmemoized(trace));
  if (!memoize) {
    EXPECT_EQ(fleet.replicas()[0]->engine().run_memo_size(), 0u);
  }
  return report;
}

TEST(EventCoreIdentityTest, FleetReportsBitIdenticalAcrossRerunsAndMemoization) {
  const auto trace = SmallTrace(40);
  const FleetReport baseline = RunFleet(trace, /*memoize=*/false, /*autoscale=*/false);
  EXPECT_TRUE(SameFleetReport(baseline, RunFleet(trace, false, false)));
  EXPECT_TRUE(SameFleetReport(baseline, RunFleet(trace, true, false)));
  EXPECT_GT(baseline.events, 0u);
}

TEST(EventCoreIdentityTest, AutoscalingFleetBitIdenticalAcrossRerunsAndMemoization) {
  const auto trace = SmallTrace(60);
  const FleetReport baseline = RunFleet(trace, /*memoize=*/false, /*autoscale=*/true);
  EXPECT_TRUE(SameFleetReport(baseline, RunFleet(trace, false, true)));
  EXPECT_TRUE(SameFleetReport(baseline, RunFleet(trace, true, true)));
  EXPECT_GT(baseline.spawns, 0u);
}

std::string HexDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

// Every field of the report, every record, and the fleet's summed store,
// planner and tuner counters, as one string: two runs agree on it only if
// they agree on every byte a caller can read.
std::string ReportBytes(const ServingCluster& fleet, const FleetReport& r) {
  std::string out;
  auto put = [&out](size_t value) { out += std::to_string(value) + ","; };
  auto put_double = [&out](double value) { out += HexDouble(value) + ","; };
  for (const ReplicaReport& replica : r.replicas) {
    const ServeReport& s = replica.serve;
    out += "replica ";
    put(static_cast<size_t>(replica.id));
    put_double(replica.spawned_us);
    put_double(replica.retired_us);
    put(replica.tuner_searches);
    put(replica.plans_resident);
    put_double(s.makespan_us);
    put(s.batches);
    put(s.cold_batches);
    put_double(s.executor_busy_us);
    put_double(s.tuner_busy_us);
    put(static_cast<size_t>(s.tuner_lanes));
    put(s.events);
    put(s.tuner_retries);
    put(s.degraded_requests);
    put(s.backfills);
    put(s.sched_reserves);
    put_double(s.reserve_idle_us);
    put(s.head_delays);
    put(s.shed_requests);
    for (const RequestRecord& record : s.stats.records()) {
      out += "\n  " + std::to_string(record.id) + "," + record.tenant + ",";
      put_double(record.arrival_us);
      put_double(record.start_us);
      put_double(record.finish_us);
      put(record.plan_cache_hit ? 1 : 0);
      put(static_cast<size_t>(record.batch_size));
      put(record.tenant_id);
      put(static_cast<size_t>(record.retries));
      put(record.degraded ? 1 : 0);
    }
    out += "\n";
  }
  out += "fleet ";
  put(r.stats.count());
  put_double(r.makespan_us);
  put(r.total_searches);
  put(r.distinct_keys);
  put(static_cast<size_t>(r.peak_replicas));
  put(r.spawns);
  put(r.drains);
  put(r.prespawns);
  put(r.shipping.published);
  put(r.shipping.shipped);
  put(r.shipping.duplicate_tunes_avoided);
  put(r.shipping.ship_drops);
  put(r.events);
  const FaultReport& f = r.fault;
  for (const size_t value :
       {f.injected_crashes, f.injected_hangs, f.injected_slowdowns, f.injected_tuner_failures,
        f.injected_ship_loss_windows, f.requests_requeued, f.requests_retried,
        f.retry_budget_exhausted, f.placement_stalls, f.requests_degraded, f.tuner_retries,
        f.plans_rewarmed, f.replica_restarts, f.ship_drops, f.requests_shed}) {
    put(value);
  }
  const SchedReport& sched = r.sched;
  for (const size_t value : {sched.backfills, sched.reserves, sched.head_delays,
                             sched.preempt_scans, sched.preempted_requests, sched.shed_requests}) {
    put(value);
  }
  put_double(sched.reserve_idle_us);
  out += "\nstores ";
  for (const auto& replica : fleet.replicas()) {
    const PlanStoreStats stats = replica->store()->stats();
    put(stats.hits);
    put(stats.misses);
    put(stats.evictions);
    put(replica->engine().planner().stats().cache_hits);
    put(replica->engine().planner().stats().cache_misses);
    put(replica->engine().tuner().search_count());
  }
  return out;
}

// A fleet whose replicas serve the same keys, so they can reuse each
// other's memoized runs: four replicas (autoscaled up to six) behind
// least-loaded placement, two-plan stores that evict, all five fault
// kinds from a seed, and the scheduler on.
struct ReuseFleetRun {
  std::string bytes;
  FleetReport report;
  size_t evictions = 0;
};

ReuseFleetRun RunReuseFleet(bool memoize) {
  std::vector<ScenarioSpec> specs;
  for (int k = 0; k < 6; ++k) {
    specs.push_back(
        ScenarioSpec::Overlap(GemmShape{1024 + 512 * k, 1024, 512}, CommPrimitive::kAllReduce));
  }
  const auto trace = MergeStreams(
      {MakeRequestStream("llm", specs, PoissonArrivals(1500.0, 60, 7), 0),
       MakeRequestStream("moe", specs, BurstyArrivals(2500.0, 4.0, 6, 60, 8), 100000)});
  ClusterConfig config;
  config.replicas = 4;
  config.policy = PlacementPolicy::kLeastLoaded;
  config.store_capacity = 2;
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = 4;
  config.autoscale.max_replicas = 6;
  config.autoscale.check_interval_us = 5000.0;
  config.autoscale.spawn_queue_per_replica = 2.0;
  config.faults.seed = 11;
  config.faults.horizon_us = 40000.0;
  config.faults.crashes = 1;
  config.faults.hangs = 1;
  config.faults.slowdowns = 1;
  config.faults.tuner_failures = 1;
  config.faults.ship_loss_windows = 1;
  config.sched.enabled = true;
  ServingCluster fleet(Make4090Cluster(2), config, {}, kNoJitter);
  ReuseFleetRun run;
  run.report = fleet.Run(memoize ? trace : Unmemoized(trace));
  if (!memoize) {
    EXPECT_EQ(fleet.replicas()[0]->engine().run_memo_size(), 0u);
  }
  run.bytes = ReportBytes(fleet, run.report);
  for (const auto& replica : fleet.replicas()) {
    run.evictions += replica->store()->stats().evictions;
  }
  return run;
}

TEST(EventCoreIdentityTest, ReplicasReusingRunsGiveByteIdenticalReportsWithAndWithoutMemo) {
  const ReuseFleetRun unmemoized = RunReuseFleet(/*memoize=*/false);
  const ReuseFleetRun memoized = RunReuseFleet(/*memoize=*/true);
  EXPECT_EQ(unmemoized.bytes, memoized.bytes);
  // The run still exercises what the name promises.
  const FleetReport& r = memoized.report;
  EXPECT_EQ(r.fault.injected_total(), 5u);
  EXPECT_EQ(r.fault.injected_crashes, 1u);
  EXPECT_EQ(r.fault.injected_tuner_failures, 1u);
  EXPECT_TRUE(r.sched.enabled);
  EXPECT_GT(r.spawns, 0u);
  EXPECT_GT(r.distinct_keys, 2u);
  EXPECT_GT(memoized.evictions, 0u);
  int serving = 0;
  for (const ReplicaReport& replica : r.replicas) {
    serving += replica.serve.stats.count() > 0 ? 1 : 0;
  }
  EXPECT_GE(serving, 4);
}

// --- Stats satellite -------------------------------------------------------

TEST(StatsTest, SummarizeMedianMatchesPercentile) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 1001; ++i) {
    values.push_back(rng.NextDouble() * 1000.0);
  }
  const Summary summary = Summarize(values);
  EXPECT_DOUBLE_EQ(summary.median, Percentile(values, 50.0));
  EXPECT_DOUBLE_EQ(summary.min, *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(summary.max, *std::max_element(values.begin(), values.end()));
}

}  // namespace
}  // namespace flo
