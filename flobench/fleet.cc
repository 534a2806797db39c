// fleet_warm and fleet_churn: open-loop serving traces (arrivals in
// simulated time) through a ServingCluster, repeated for the measured
// seconds.
//
// A pass replays a seed-generated trace, and every replay of a trace must
// produce the same simulated report: the record digest of each pass is
// compared with the first pass of its trace. fleet_warm replays one trace
// on one warm fleet (its per-replica run memos are filled by an untimed
// warm-up pass); fleet_churn replays 64 traces in turn, each on a fresh
// fleet, because its cold keys, bounded stores and faults are the point
// of the workload, and pools their simulated statistics.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/flashoverlap.h"
#include "src/fault/fault_schedule.h"
#include "src/models/e2e.h"
#include "src/obs/obs_plane.h"
#include "src/serve/request_cursor.h"
#include "src/sim/event_loop.h"
#include "src/util/stats.h"
#include "workloads.h"

namespace flobench {
namespace {

// --- Workload shapes ---------------------------------------------------------

constexpr int kWarmReplicas = 128;
constexpr int kWarmRequests = 20000;
constexpr double kWarmLoad = 0.8;  // share of fleet executor capacity
// Fixed simulated latency limit for slo_met_frac.
constexpr double kWarmSloUs = 5000.0;

constexpr int kChurnReplicas = 16;
constexpr int kChurnRequests = 6000;
constexpr double kChurnLoad = 0.45;
constexpr size_t kChurnStoreCapacity = 8;
constexpr double kChurnSloUs = 25000.0;
// fleet_churn replays this many seeded traces, one per pass in turn, and
// pools their simulated statistics: its tail comes from the few requests
// that wait on each trace's cold-key searches, so a single trace's p99
// moves by about 15% (quartile spread over seeds), 64 pooled traces' by
// about 3%.
constexpr uint64_t kChurnTraces = 64;

// Passes run even when the measured seconds are already spent.
constexpr uint64_t kMinPasses = 3;

// Engine options of every fleet engine: the seed salts the simulated
// devices' jitter, so simulated times move with the seed.
flo::EngineOptions FleetOptions(uint64_t seed) {
  flo::EngineOptions options;
  options.seed_salt = seed;
  return options;
}

// Per-spec simulated costs, measured on a scratch engine so the
// benchmarked fleets start with their own state.
struct SpecCost {
  double overlap_us = 0.0;
  double sequential_us = 0.0;
  // 0 until SafetySpeedup prices it.
  double safety_us = 0.0;
};

// The search-free plan ServeSession falls back to once a batch's tuner
// retries are exhausted: one forced group, no extra tiles.
flo::ScenarioSpec SafetyOf(const flo::ScenarioSpec& spec) {
  flo::ScenarioSpec safety = spec;
  safety.extra_tiles = 0;
  safety.forced_partition = flo::WavePartition::SingleGroup(1);
  return safety;
}

class SpecCosts {
 public:
  SpecCosts(const flo::ClusterSpec& hardware, const flo::EngineOptions& options)
      : engine_(hardware, {}, options) {}

  SpecCost& Of(const flo::ScenarioSpec& spec) {
    const uint64_t key = engine_.planner().CanonicalKey(spec);
    auto it = costs_.find(key);
    if (it == costs_.end()) {
      SpecCost cost;
      cost.overlap_us = engine_.Execute(spec).total_us;
      cost.sequential_us = engine_.Execute(SequentialOf(spec)).total_us;
      it = costs_.emplace(key, cost).first;
    }
    return it->second;
  }

  // Sequential / overlapped simulated time under the safety plan.
  double SafetySpeedup(const flo::ScenarioSpec& spec) {
    SpecCost& cost = Of(spec);
    if (cost.safety_us == 0.0) {
      cost.safety_us = engine_.Execute(SafetyOf(spec)).total_us;
    }
    return cost.sequential_us / cost.safety_us;
  }

  double MeanOverlapUs(const std::vector<flo::ScenarioSpec>& specs) {
    double total = 0.0;
    for (const flo::ScenarioSpec& spec : specs) {
      total += Of(spec).overlap_us;
    }
    return total / static_cast<double>(specs.size());
  }

 private:
  flo::OverlapEngine engine_;
  std::unordered_map<uint64_t, SpecCost> costs_;
};

struct FleetInputs {
  const char* name = "";
  flo::ClusterSpec hardware;
  flo::EngineOptions options;
  flo::ClusterConfig config;
  // Generates the fault schedule pinned on each fleet (counts zero =
  // fault-free); config.faults keeps the recovery knobs with counts zero.
  flo::FaultConfig fault_dose;
  std::vector<flo::ServeRequest> trace;
  // Request id -> trace index, for the exactly-once check.
  std::unordered_map<int64_t, size_t> index;
  // Plan snapshot imported during set-up ("" = cold start).
  std::string snapshot;
  double slo_us = 0.0;
  // Per trace index: sequential / overlapped simulated time of the
  // request's spec under its tuned plan.
  std::vector<double> speedup;
  // Prices the single-group safety plan of the specs that records served
  // degraded, on first use.
  std::shared_ptr<SpecCosts> costs;
  size_t distinct_specs = 0;
};

// `count` specs drawn uniformly from `pool`: the per-request spec
// sequence of one tenant (MakeRequestStream cycles it exactly once).
std::vector<flo::ScenarioSpec> DrawSpecs(const std::vector<flo::ScenarioSpec>& pool, int count,
                                         flo::Rng* rng) {
  std::vector<flo::ScenarioSpec> drawn;
  drawn.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    drawn.push_back(pool[rng->NextBelow(pool.size())]);
  }
  return drawn;
}

flo::ScenarioSpec RsSpec(int64_t m, int64_t n, int64_t k) {
  return flo::ScenarioSpec::Overlap(flo::GemmShape{m, n, k}, flo::CommPrimitive::kReduceScatter);
}

// Fills the id index, per-request speedups and distinct-spec count from
// the trace.
void FinishInputs(FleetInputs* in, std::shared_ptr<SpecCosts> costs) {
  std::unordered_set<std::string> specs;
  for (size_t i = 0; i < in->trace.size(); ++i) {
    const flo::ServeRequest& request = in->trace[i];
    in->index.emplace(request.id, i);
    const SpecCost& cost = costs->Of(request.spec);
    in->speedup.push_back(cost.sequential_us / cost.overlap_us);
    specs.insert(request.spec.Describe());
  }
  in->distinct_specs = specs.size();
  in->costs = std::move(costs);
}

// The plan snapshot a fleet that already served `specs` would save: a
// scratch two-replica fleet serves each spec once.
std::string SnapshotFor(const FleetInputs& in, const std::vector<flo::ScenarioSpec>& specs) {
  std::vector<flo::SimTime> arrivals;
  for (size_t i = 0; i < specs.size(); ++i) {
    arrivals.push_back(static_cast<double>(i) * 100.0);
  }
  flo::ClusterConfig config;
  config.replicas = 2;
  flo::ServingCluster scratch(in.hardware, config, {}, in.options);
  scratch.Run(flo::MakeRequestStream("snapshot", specs, arrivals));
  return scratch.shipper().SerializeSnapshot();
}

FleetInputs MakeWarmInputs(uint64_t seed) {
  FleetInputs in;
  in.name = "fleet_warm";
  in.hardware = flo::MakeA800Cluster(8);
  in.options = FleetOptions(seed);
  in.slo_us = kWarmSloUs;
  in.config.replicas = kWarmReplicas;
  in.config.policy = flo::PlacementPolicy::kPlanAffinity;
  in.config.ship_plans = true;

  // Four tenants over ten keys: Llama3-70B inference and training ops,
  // plus a chat tenant and a batch tenant at per-request GEMM sizes.
  std::vector<std::pair<std::string, std::vector<flo::ScenarioSpec>>> tenants;
  tenants.emplace_back("llm", flo::WorkloadSpecs(flo::MakeLlama3Inference()));
  tenants.emplace_back("train", flo::WorkloadSpecs(flo::MakeLlama3Training()));
  std::vector<flo::ScenarioSpec> chat;
  for (const int64_t m : {1024, 2048, 4096, 6144}) {
    chat.push_back(RsSpec(m, 8192, 3584));
  }
  tenants.emplace_back("chat", chat);
  std::vector<flo::ScenarioSpec> batch;
  for (const int64_t m : {2048, 8192}) {
    batch.push_back(flo::ScenarioSpec::Overlap(flo::GemmShape{m, 8192, 1024},
                                               flo::CommPrimitive::kAllReduce));
  }
  tenants.emplace_back("batch", batch);

  auto costs = std::make_shared<SpecCosts>(in.hardware, in.options);
  double mean_service_us = 0.0;
  std::vector<flo::ScenarioSpec> all_specs;
  for (const auto& [tenant, specs] : tenants) {
    mean_service_us += costs->MeanOverlapUs(specs) / static_cast<double>(tenants.size());
    all_specs.insert(all_specs.end(), specs.begin(), specs.end());
  }
  // Open loop: each tenant offers a quarter of kWarmLoad x fleet capacity.
  const double tenant_ia_us =
      mean_service_us / (kWarmLoad * kWarmReplicas) * static_cast<double>(tenants.size());
  flo::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  std::vector<std::vector<flo::ServeRequest>> streams;
  const int per_tenant = kWarmRequests / static_cast<int>(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    streams.push_back(flo::MakeRequestStream(
        tenants[t].first, DrawSpecs(tenants[t].second, per_tenant, &rng),
        flo::PoissonArrivals(tenant_ia_us, per_tenant, rng.NextU64()),
        static_cast<int64_t>(t) * 1000000));
  }
  in.trace = flo::MergeStreams(std::move(streams));
  in.snapshot = SnapshotFor(in, all_specs);
  FinishInputs(&in, std::move(costs));
  return in;
}

// What the traces of one fleet_churn seed share: the seed's engine
// options, and so the spec costs and the plan snapshot.
struct ChurnShared {
  std::shared_ptr<SpecCosts> costs;
  std::string snapshot;
};

// Trace `trace` of fleet_churn's seed `seed`.
FleetInputs MakeChurnInputs(uint64_t seed, uint64_t trace, ChurnShared* shared) {
  FleetInputs in;
  in.name = "fleet_churn";
  in.hardware = flo::MakeA800Cluster(8);
  in.options = FleetOptions(seed);
  in.slo_us = kChurnSloUs;
  const uint64_t trace_seed = seed * kChurnTraces + trace;
  flo::Rng rng(trace_seed * 0x9e3779b97f4a7c15ull + 23);

  // Steady Llama3-70B inference ops at three prefill chunk sizes (6 keys,
  // warm from the imported snapshot), imbalanced Mixtral All-to-All at
  // three routing skews (3 cold keys, bursty), and a chat tenant whose
  // conversations each carry their own GEMM size (10 cold keys that
  // arrive as conversations open through the run).
  std::vector<flo::ScenarioSpec> llm;
  for (const int64_t tokens : {4096, 8192, 16384}) {
    llm.push_back(flo::ScenarioSpec::Overlap(flo::GemmShape{tokens, 8192, 1024},
                                             flo::CommPrimitive::kAllReduce));
    llm.push_back(flo::ScenarioSpec::Overlap(flo::GemmShape{tokens, 8192, 3584},
                                             flo::CommPrimitive::kAllReduce));
  }
  std::vector<flo::ScenarioSpec> moe;
  for (const double imbalance : {1.2, 1.4, 1.6}) {
    moe.push_back(flo::ScenarioSpec::Imbalanced(
        flo::ImbalancedShapes(flo::GemmShape{8192, 4096, 7168}, in.hardware.gpu_count, imbalance),
        flo::CommPrimitive::kAllToAll));
  }
  // Conversation sizes, in a seed-drawn opening order.
  std::vector<int64_t> sizes = {512, 1024, 1536, 2048, 3072, 4096, 5120, 6144, 7168, 8192};
  for (size_t i = sizes.size() - 1; i > 0; --i) {
    std::swap(sizes[i], sizes[rng.NextBelow(i + 1)]);
  }

  if (shared->costs == nullptr) {
    shared->costs = std::make_shared<SpecCosts>(in.hardware, in.options);
  }
  SpecCosts* costs = shared->costs.get();
  std::vector<flo::ScenarioSpec> chat_pool;
  for (const int64_t m : sizes) {
    chat_pool.push_back(RsSpec(m, 8192, 3584));
  }
  const double mean_service_us =
      (costs->MeanOverlapUs(llm) + costs->MeanOverlapUs(moe) + costs->MeanOverlapUs(chat_pool)) /
      3.0;
  const double fleet_ia_us = mean_service_us / (kChurnLoad * kChurnReplicas);
  const int per_tenant = kChurnRequests / 3;
  const double tenant_ia_us = fleet_ia_us * 3.0;
  const double horizon_us = tenant_ia_us * per_tenant;

  std::vector<std::vector<flo::ServeRequest>> streams;
  streams.push_back(flo::MakeRequestStream("llm", DrawSpecs(llm, per_tenant, &rng),
                                           flo::PoissonArrivals(tenant_ia_us, per_tenant,
                                                                rng.NextU64()),
                                           0));
  streams.push_back(flo::MakeRequestStream(
      "moe", DrawSpecs(moe, per_tenant, &rng),
      flo::BurstyArrivals(tenant_ia_us, 4.0, 8, per_tenant, rng.NextU64()), 1000000));
  // Conversation c opens at c / sizes.size() of 60% of the horizon; each
  // chat request picks uniformly among the open conversations.
  const std::vector<flo::SimTime> chat_arrivals =
      flo::PoissonArrivals(tenant_ia_us, per_tenant, rng.NextU64());
  std::vector<flo::ScenarioSpec> chat_specs;
  for (const flo::SimTime at : chat_arrivals) {
    const int open = std::min<int>(
        static_cast<int>(sizes.size()),
        1 + static_cast<int>(at / (0.6 * horizon_us) * static_cast<int>(sizes.size())));
    chat_specs.push_back(chat_pool[rng.NextBelow(static_cast<uint64_t>(open))]);
  }
  streams.push_back(flo::MakeRequestStream("chat", chat_specs, chat_arrivals, 2000000));
  in.trace = flo::MergeStreams(std::move(streams));

  in.config.replicas = kChurnReplicas;
  in.config.policy = flo::PlacementPolicy::kPlanAffinity;
  in.config.ship_plans = true;
  in.config.store_capacity = kChurnStoreCapacity;
  in.config.autoscale.enabled = true;
  in.config.autoscale.predictive = true;
  in.config.autoscale.min_replicas = 12;
  in.config.autoscale.max_replicas = 24;
  in.config.autoscale.check_interval_us = horizon_us / 20.0;
  in.config.sched.enabled = true;
  // One fault of every kind, seeded per trace and spread over the
  // trace's horizon.
  in.fault_dose.seed = trace_seed;
  in.fault_dose.horizon_us = horizon_us;
  in.fault_dose.crashes = 1;
  in.fault_dose.hangs = 1;
  in.fault_dose.slowdowns = 1;
  in.fault_dose.tuner_failures = 1;
  in.fault_dose.ship_loss_windows = 1;
  in.config.faults = in.fault_dose;
  in.config.faults.crashes = 0;
  in.config.faults.hangs = 0;
  in.config.faults.slowdowns = 0;
  in.config.faults.tuner_failures = 0;
  in.config.faults.ship_loss_windows = 0;

  if (shared->snapshot.empty()) {
    shared->snapshot = SnapshotFor(in, llm);
  }
  in.snapshot = shared->snapshot;
  FinishInputs(&in, shared->costs);
  return in;
}

// --- Driving the fleet -------------------------------------------------------

// The benchmark-owned arrival cursor. When `gaps_ns` is set, each pull
// records the host time spent outside the cursor since the previous pull
// (the fleet's per-request work between arrivals) and a leaf span for the
// cursor's own time.
class TraceCursor : public flo::RequestCursor {
 public:
  TraceCursor(const std::vector<flo::ServeRequest>* trace, SpanLog* log,
              std::vector<double>* gaps_ns)
      : trace_(trace), log_(log), gaps_ns_(gaps_ns) {}

  std::optional<flo::ServeRequest> Next() override {
    if (gaps_ns_ == nullptr) {
      return Pull();
    }
    const int64_t enter = NowNs();
    if (last_exit_ns_ != 0) {
      gaps_ns_->push_back(static_cast<double>(enter - last_exit_ns_));
    }
    std::optional<flo::ServeRequest> request = Pull();
    last_exit_ns_ = NowNs();
    log_->Leaf("RequestCursor::Next", "bench", enter, last_exit_ns_);
    return request;
  }

 private:
  std::optional<flo::ServeRequest> Pull() {
    if (next_ == trace_->size()) {
      return std::nullopt;
    }
    return (*trace_)[next_++];
  }

  const std::vector<flo::ServeRequest>* trace_;
  SpanLog* log_;
  std::vector<double>* gaps_ns_;
  size_t next_ = 0;
  int64_t last_exit_ns_ = 0;
};

class EmptyCursor : public flo::RequestCursor {
 public:
  std::optional<flo::ServeRequest> Next() override { return std::nullopt; }
};

struct FleetSetup {
  std::unique_ptr<flo::ServingCluster> fleet;
  // Process CPU time and wall time of the set-up.
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double import_us = 0.0;
  size_t imported = 0;
};

// Set-up: construct the fleet, import the plan snapshot, spawn and
// bootstrap the initial replicas (an empty run), and pin the fault
// schedule.
FleetSetup SetUpFleet(const FleetInputs& in, flo::ObsPlane* obs, SpanLog* log) {
  ScopedSpan span(log, "set-up", "cluster");
  FleetSetup setup;
  const Stopwatch watch;
  flo::ClusterConfig config = in.config;
  config.serve.obs = obs;
  setup.fleet = std::make_unique<flo::ServingCluster>(in.hardware, config, flo::TunerConfig{},
                                                      in.options);
  if (!in.snapshot.empty()) {
    const int64_t import_start = NowNs();
    setup.imported = setup.fleet->ImportPlans(in.snapshot);
    setup.import_us = static_cast<double>(NowNs() - import_start) / 1e3;
  }
  EmptyCursor empty;
  setup.fleet->Run(&empty);
  if (in.fault_dose.enabled()) {
    setup.fleet->SetFaultSchedule(
        flo::FaultSchedule::FromConfig(in.fault_dose, in.config.replicas));
  }
  setup.cpu_s = watch.CpuS();
  setup.wall_s = watch.WallS();
  return setup;
}

// What one pass produced, reduced to the numbers the benchmark reports
// and compares (the full report is dropped with its records).
struct Pass {
  // Process CPU time of the run.
  double cpu_s = 0.0;
  size_t offered = 0;
  size_t completed = 0;
  size_t shed = 0;
  size_t degraded = 0;
  bool ids_once = true;
  uint64_t digest = 0;
  // Per completed request: simulated latency from the scheduled arrival,
  // and sequential / overlapped simulated time of the plan it was served
  // on.
  std::vector<double> latencies;
  std::vector<double> speedups;
  size_t within_slo = 0;
  double warm_hit_rate = 0.0;
  uint64_t events = 0;
  size_t searches = 0;
  size_t distinct_keys = 0;
  size_t spawns = 0;
  size_t drains = 0;
  size_t prespawns = 0;
  size_t evictions = 0;
  flo::SchedReport sched;
  flo::FaultReport fault;
};

Pass Summarize(const flo::FleetReport& report, const FleetInputs& in,
               const flo::ServingCluster& fleet) {
  Pass pass;
  pass.offered = in.trace.size();
  pass.shed = report.sched.shed_requests;
  std::vector<uint8_t> seen(in.trace.size(), 0);
  pass.latencies.reserve(report.stats.count());
  pass.speedups.reserve(report.stats.count());
  Digest digest;
  for (const flo::RequestRecord& record : report.stats.records()) {
    const auto it = in.index.find(record.id);
    if (it == in.index.end() || seen[it->second] != 0) {
      pass.ids_once = false;
      continue;
    }
    seen[it->second] = 1;
    ++pass.completed;
    // Latency runs from the request's scheduled arrival.
    const double latency = record.finish_us - in.trace[it->second].arrival_us;
    pass.latencies.push_back(latency);
    pass.within_slo += latency <= in.slo_us ? 1 : 0;
    pass.speedups.push_back(record.degraded
                                ? in.costs->SafetySpeedup(in.trace[it->second].spec)
                                : in.speedup[it->second]);
    pass.degraded += record.degraded ? 1 : 0;
    digest.Mix(static_cast<uint64_t>(record.id));
    digest.Mix(record.start_us);
    digest.Mix(record.finish_us);
    digest.Mix(static_cast<uint64_t>(record.plan_cache_hit));
    digest.Mix(static_cast<uint64_t>(record.batch_size));
    digest.Mix(static_cast<uint64_t>(record.retries));
    digest.Mix(static_cast<uint64_t>(record.degraded));
  }
  digest.Mix(report.makespan_us);
  digest.Mix(report.events);
  digest.Mix(static_cast<uint64_t>(report.total_searches));
  digest.Mix(static_cast<uint64_t>(pass.degraded));
  pass.digest = digest.value();
  pass.warm_hit_rate = report.WarmHitRate();
  pass.events = report.events;
  pass.searches = report.total_searches;
  pass.distinct_keys = report.distinct_keys;
  pass.spawns = report.spawns;
  pass.drains = report.drains;
  pass.prespawns = report.prespawns;
  for (const auto& replica : fleet.replicas()) {
    pass.evictions += replica->store()->stats().evictions;
  }
  pass.sched = report.sched;
  pass.fault = report.fault;
  return pass;
}

// The simulated statistics of one or more reference passes, over their
// pooled requests.
struct SimStats {
  size_t offered = 0;
  size_t completed = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double overlap_speedup = 0.0;
  double slo_met_frac = 0.0;
};

class SimPool {
 public:
  // Reserving the pooled samples up front keeps the run's peak RSS from
  // depending on how the pooled vectors grow.
  void Reserve(size_t requests) {
    latencies_.reserve(requests);
    speedups_.reserve(requests);
  }

  void Add(const Pass& pass) {
    stats_.offered += pass.offered;
    stats_.completed += pass.completed;
    within_slo_ += pass.within_slo;
    latencies_.insert(latencies_.end(), pass.latencies.begin(), pass.latencies.end());
    speedups_.insert(speedups_.end(), pass.speedups.begin(), pass.speedups.end());
  }

  // Sorts the pooled latencies in place rather than copying them.
  SimStats Stats() {
    SimStats stats = stats_;
    if (!latencies_.empty()) {
      std::sort(latencies_.begin(), latencies_.end());
      stats.p50_us = flo::PercentileOfSorted(latencies_, 50.0);
      stats.p99_us = flo::PercentileOfSorted(latencies_, 99.0);
      stats.overlap_speedup = flo::GeoMean(speedups_);
    }
    stats.slo_met_frac = static_cast<double>(within_slo_) / static_cast<double>(stats.offered);
    return stats;
  }

 private:
  SimStats stats_;
  size_t within_slo_ = 0;
  std::vector<double> latencies_;
  std::vector<double> speedups_;
};

// Runs the trace once; `host`, when given, receives the run's time.
Pass RunPass(flo::ServingCluster* fleet, const FleetInputs& in, SpanLog* log,
             std::vector<double>* gaps_ns, HostSamples* host = nullptr) {
  TraceCursor cursor(&in.trace, log, gaps_ns);
  flo::FleetReport report;
  const Stopwatch watch;
  {
    ScopedSpan span(log, "ServingCluster::Run", "cluster");
    report = fleet->Run(&cursor);
  }
  const double cpu_s = watch.CpuS();
  const double wall_s = watch.WallS();
  Pass pass = Summarize(report, in, *fleet);
  pass.cpu_s = cpu_s;
  if (host != nullptr) {
    host->AddPass(static_cast<double>(pass.completed), cpu_s, wall_s);
  }
  return pass;
}

// Checks one pass against the workload's invariants and the digest of
// the first pass of its trace.
void CheckPass(const Pass& pass, uint64_t reference_digest, const char* label, Result* result) {
  const std::string tag = std::string(label) + ": ";
  result->Check(pass.ids_once, tag + "a request id completed twice or was never offered");
  result->Check(pass.completed + pass.shed == pass.offered,
                tag + "completed + shed != offered");
  result->Check(pass.digest == reference_digest,
                tag + "simulated record digest differs from the trace's first pass");
}

// --- Per-layer probes ----------------------------------------------------------

double PerRequest(double total, size_t requests) {
  return requests == 0 ? 0.0 : total / static_cast<double>(requests);
}

struct FleetProbes {
  double snapshot_ns = 0.0;
  double place_ns = 0.0;
  double key_ns = 0.0;
  double store_find_ns = 0.0;
  double store_findcopy_ns = 0.0;
  double exec_memo_ns = 0.0;
  double queue_ns_per_req = 0.0;
  double event_ns = 0.0;
  double pick_ns = 0.0;
  double tune_us = 0.0;
  double tune_nodes = 0.0;
  double tune_mr_us = 0.0;
  double exec_replay_us = 0.0;
};

// Snapshot of every live replica for `key`, built from the replicas'
// public state the way the cluster builds its own before each placement.
void BuildSnapshots(const flo::ServingCluster& fleet, uint64_t key, flo::SimTime now,
                    std::vector<flo::ReplicaSnapshot>* out) {
  out->clear();
  for (const auto& replica : fleet.replicas()) {
    if (replica->retired() || replica->session() == nullptr) {
      continue;
    }
    const flo::ServeSession& session = *replica->session();
    flo::ReplicaSnapshot snapshot;
    snapshot.id = replica->id();
    snapshot.accepting = replica->accepting();
    snapshot.queued_requests = session.pending_requests();
    snapshot.busy_us = std::max(0.0, session.busy_until() - now);
    snapshot.plan_tuning = session.IsTuningKey(key);
    snapshot.plan_warm = replica->store()->Contains(key) && !snapshot.plan_tuning;
    snapshot.plan_pending = session.PendingKeyCount(key) > 0;
    out->push_back(snapshot);
  }
}

FleetProbes RunFleetProbes(const FleetInputs& in, const flo::ServingCluster& fleet,
                           SpanLog* log) {
  FleetProbes probes;
  const std::vector<flo::ServeRequest>& trace = in.trace;
  const int64_t samples = std::min<int64_t>(4096, static_cast<int64_t>(trace.size()));
  auto spec_at = [&](int64_t i) -> const flo::ScenarioSpec& {
    return trace[static_cast<size_t>(i * 7919 % static_cast<int64_t>(trace.size()))].spec;
  };
  std::vector<uint64_t> keys(static_cast<size_t>(samples));
  for (int64_t i = 0; i < samples; ++i) {
    keys[static_cast<size_t>(i)] = fleet.KeyFor(spec_at(i));
  }

  // cluster: snapshot building and Place over a fleet-sized vector.
  const flo::SimTime now = 0.0;
  std::vector<flo::ReplicaSnapshot> snapshots;
  probes.snapshot_ns = Probe(log, "replica snapshots", "cluster", samples, [&](int64_t i) {
    BuildSnapshots(fleet, keys[static_cast<size_t>(i)], now, &snapshots);
  });
  flo::FleetRouter router(in.config.policy);
  // Deterministic load spread so the least-loaded scans do real work.
  for (size_t r = 0; r < snapshots.size(); ++r) {
    snapshots[r].queued_requests = r * 7 % 5;
    snapshots[r].busy_us = static_cast<double>(r * 13 % 17) * 100.0;
    snapshots[r].pending_cost_us = static_cast<double>(snapshots[r].queued_requests) * 900.0;
  }
  probes.place_ns = Probe(log, "FleetRouter::Place", "cluster", samples * 4, [&](int64_t) {
    Sink(static_cast<uint64_t>(router.Place(snapshots)));
  });

  // core: canonical keys, store lookups and memo-hit execution on a
  // probe engine that holds a copy of replica 0's store.
  probes.key_ns = Probe(log, "ServingCluster::KeyFor", "core", samples, [&](int64_t i) {
    Sink(fleet.KeyFor(spec_at(i)));
  });
  const flo::Replica& first = *fleet.replicas().front();
  auto store = std::make_shared<flo::PlanStore>(*first.store());
  store->set_capacity(0);
  probes.store_find_ns = Probe(log, "PlanStore::Find", "core", samples, [&](int64_t i) {
    Sink(store->Find(keys[static_cast<size_t>(i)]) != nullptr ? 1 : 0);
  });
  probes.store_findcopy_ns = Probe(log, "PlanStore::FindCopy", "core", samples, [&](int64_t i) {
    Sink(store->FindCopy(keys[static_cast<size_t>(i)]).has_value() ? 1 : 0);
  });
  flo::OverlapEngine engine(in.hardware, {}, in.options);
  engine.UseSharedPlanStore(store);
  for (int64_t i = 0; i < samples; ++i) {
    engine.ExecuteMemoized(spec_at(i));  // fill the memo (and any missing plans)
  }
  probes.exec_memo_ns = Probe(log, "OverlapEngine::ExecuteMemoized", "core", samples,
                              [&](int64_t i) {
                                Sink(static_cast<uint64_t>(
                                    engine.ExecuteMemoized(spec_at(i)).total_us));
                              });

  // serve: admission + batch pops through one RequestQueue.
  {
    ScopedSpan span(log, "RequestQueue admit+pop", "serve", samples);
    const int64_t start = NowNs();
    flo::RequestQueue queue([&fleet](const flo::ScenarioSpec& spec) { return fleet.KeyFor(spec); });
    for (int64_t i = 0; i < samples; ++i) {
      queue.Admit(trace[static_cast<size_t>(i)]);
    }
    std::vector<flo::ServeRequest> batch;
    while (!queue.empty()) {
      Sink(queue.PopBatchInto(in.config.serve.max_batch, &batch));
    }
    probes.queue_ns_per_req = static_cast<double>(NowNs() - start) / static_cast<double>(samples);
  }

  // sim: dispatch cost of the typed event loop (self-rescheduling chain).
  {
    constexpr int64_t kEvents = 200000;
    ScopedSpan span(log, "EventLoop::RunToCompletion", "sim", kEvents);
    flo::EventLoop loop;
    int64_t remaining = kEvents;
    uint32_t handler = 0;
    handler = loop.RegisterHandler([&](const flo::EventRecord& record, flo::SimTime at) {
      if (--remaining > 0) {
        flo::EventRecord next = record;
        next.key = record.key + 1;
        loop.Push(at + 1.0 + static_cast<double>(record.key % 7), next);
      }
    });
    flo::EventRecord first_record;
    first_record.handler = handler;
    const int64_t start = NowNs();
    loop.Push(0.0, first_record);
    loop.RunToCompletion();
    probes.event_ns = static_cast<double>(NowNs() - start) / static_cast<double>(kEvents);
  }

  // sched: lane pick over one head per tenant.
  if (in.config.sched.enabled) {
    flo::FleetScheduler scheduler(in.config.sched);
    std::vector<flo::RequestQueue::LaneHead> heads;
    std::unordered_set<uint32_t> tenants;
    for (const flo::ServeRequest& request : trace) {
      if (tenants.insert(request.tenant_id).second) {
        flo::RequestQueue::LaneHead head;
        head.tenant = &request.tenant;
        head.tenant_id = request.tenant_id;
        head.key = fleet.KeyFor(request.spec);
        head.arrival_us = request.arrival_us;
        head.depth = 4;
        head.lane_index = heads.size();
        heads.push_back(head);
        scheduler.Charge(request.tenant_id, 1000.0 * static_cast<double>(heads.size()),
                         request.arrival_us);
      }
    }
    probes.pick_ns = Probe(log, "FleetScheduler::PickLane", "sched", samples * 4, [&](int64_t i) {
      Sink(scheduler.PickLane(heads, 1000.0 + static_cast<double>(i)));
    });
  }

  // core: cold searches and operator replays, on the keys the timed run
  // must search (those the imported snapshot does not cover).
  const std::optional<flo::PlanStore> imported =
      flo::PlanStore::Parse(in.snapshot);
  std::vector<flo::ScenarioSpec> distinct;
  std::unordered_set<uint64_t> seen;
  for (const flo::ServeRequest& request : trace) {
    const uint64_t key = fleet.KeyFor(request.spec);
    if (seen.insert(key).second && !(imported.has_value() && imported->Contains(key))) {
      distinct.push_back(request.spec);
    }
  }
  {
    flo::OverlapEngine cold(in.hardware, {}, in.options);
    double tune_us = 0.0;
    double nodes = 0.0;
    double mr_us = 0.0;
    int balanced = 0;
    int multi = 0;
    double replay_us = 0.0;
    for (const flo::ScenarioSpec& spec : distinct) {
      const ColdSpec run = PlanAndExecute(&cold, spec, log);
      if (run.searched) {
        (run.multi_rank ? mr_us : tune_us) += run.tune_us;
        ++(run.multi_rank ? multi : balanced);
        nodes += run.search_nodes;
      }
      Sink(static_cast<uint64_t>(run.run.total_us));
      replay_us += run.exec_us;
    }
    probes.tune_us = balanced > 0 ? tune_us / balanced : 0.0;
    probes.tune_mr_us = multi > 0 ? mr_us / multi : 0.0;
    probes.tune_nodes = balanced + multi > 0 ? nodes / (balanced + multi) : 0.0;
    probes.exec_replay_us = PerRequest(replay_us, distinct.size());
  }
  return probes;
}

// --- The workload runs ---------------------------------------------------------

void ReportSim(const FleetInputs& in, const SimStats& sim) {
  Report("  sim latency from scheduled arrival: p50 %.1f us, p99 %.1f us (%zu samples)",
         sim.p50_us, sim.p99_us, sim.completed);
  Report("  slo_met_frac %.6f (limit %.0f us sim), completed %zu/%zu, overlap_speedup %.6f "
         "(geomean over completed requests of sequential / overlapped sim time of the plan "
         "served)",
         sim.slo_met_frac, in.slo_us, sim.completed, sim.offered, sim.overlap_speedup);
}

void ReportPass(const Pass& pass) {
  Report("  warm_hit_rate %.6f, shed %zu, degraded %zu, events %llu, searches %zu over %zu "
         "keys, spawns %zu, drains %zu, prespawns %zu, store evictions %zu",
         pass.warm_hit_rate, pass.shed, pass.degraded,
         static_cast<unsigned long long>(pass.events), pass.searches, pass.distinct_keys,
         pass.spawns, pass.drains, pass.prespawns, pass.evictions);
  Report("  sched: backfills %zu, head delays %zu, preempted %zu, shed %zu; faults: injected "
         "%zu (crash %zu hang %zu slow %zu tune %zu ship %zu), requeued %zu",
         pass.sched.backfills, pass.sched.head_delays, pass.sched.preempted_requests,
         pass.sched.shed_requests, pass.fault.injected_total(), pass.fault.injected_crashes,
         pass.fault.injected_hangs, pass.fault.injected_slowdowns,
         pass.fault.injected_tuner_failures, pass.fault.injected_ship_loss_windows,
         pass.fault.requests_requeued);
}

// Untraced run: set up, then timed passes for the measured seconds. Pass p
// replays trace p % traces, built by input_for; each pass is checked
// against its trace's first pass, and the simulated statistics pool those
// first passes. Every pass adds one set-up sample: the set-up of its fresh
// fleet, or (a reused fleet) one more set-up that is then discarded, so
// the samples span the run. Host times go through HostSamples.
Result MeasureFleet(const Args& args, uint64_t traces,
                    const std::function<FleetInputs(uint64_t)>& input_for,
                    bool fresh_fleet_per_pass) {
  Result result;
  FleetInputs in = input_for(0);
  uint64_t current = 0;
  const std::string name = in.name;
  const size_t first_requests = in.trace.size();
  const size_t first_specs = in.distinct_specs;
  HostSamples host;
  FleetSetup setup = SetUpFleet(in, nullptr, nullptr);
  host.AddSetUp(setup.cpu_s, setup.wall_s);
  // Per trace, the digest of its first pass; the pool holds those passes'
  // samples, and `first` the first trace's pass.
  std::vector<std::optional<uint64_t>> digests(traces);
  SimPool pool;
  pool.Reserve(static_cast<size_t>(traces) * in.trace.size());
  Pass first;
  // Faults injected per kind, and requests served degraded, over the
  // traces' first passes.
  size_t crashes = 0, hangs = 0, slowdowns = 0, tuner_failures = 0, ship_losses = 0;
  size_t degraded = 0;
  auto keep_reference = [&](uint64_t t, Pass&& pass) {
    digests[t] = pass.digest;
    pool.Add(pass);
    crashes += pass.fault.injected_crashes;
    hangs += pass.fault.injected_hangs;
    slowdowns += pass.fault.injected_slowdowns;
    tuner_failures += pass.fault.injected_tuner_failures;
    ship_losses += pass.fault.injected_ship_loss_windows;
    degraded += pass.degraded;
    if (t == 0) {
      first = std::move(pass);
    }
  };
  if (!fresh_fleet_per_pass) {
    // Untimed warm-up: fills each replica's run memo.
    const int64_t start = NowNs();
    keep_reference(0, RunPass(setup.fleet.get(), in, nullptr, nullptr));
    Report("%s: warm-up pass %.3f s (per-replica run memos filled)", name.c_str(),
           static_cast<double>(NowNs() - start) / 1e9);
  }
  const uint64_t min_passes =
      std::max({kMinPasses, static_cast<uint64_t>(kRssPasses), traces});
  int64_t rss_kb = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  uint64_t passes = 0;
  while (passes < min_passes || NowNs() < deadline) {
    host.Step();
    const uint64_t t = passes % traces;
    if (t != current) {
      in = input_for(t);
      current = t;
    }
    if (fresh_fleet_per_pass && passes > 0) {
      setup.fleet.reset();
      setup = SetUpFleet(in, nullptr, nullptr);
      host.AddSetUp(setup.cpu_s, setup.wall_s);
    }
    Pass pass = RunPass(setup.fleet.get(), in, nullptr, nullptr, &host);
    CheckPass(pass, digests[t].value_or(pass.digest), in.name, &result);
    result.attempted += pass.offered;
    result.failed += pass.offered - pass.completed;
    if (!digests[t].has_value()) {
      keep_reference(t, std::move(pass));
    }
    if (!fresh_fleet_per_pass) {
      const FleetSetup extra = SetUpFleet(in, nullptr, nullptr);
      host.AddSetUp(extra.cpu_s, extra.wall_s);
    }
    if (++passes == static_cast<uint64_t>(kRssPasses)) {
      rss_kb = PeakRssKb();
    }
  }
  const SimStats sim = pool.Stats();
  result.Check(sim.completed > 0, name + ": no request completed");
  if (!fresh_fleet_per_pass) {
    result.Check(first.searches == 0,
                 name + ": the imported snapshot left keys to search");
  }
  result.Add("throughput_per_s", host.Throughput(), "1/s");
  result.Add("setup_s", host.SetUpS(), "s");
  result.Add("peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB");
  result.Add("completed_frac",
             static_cast<double>(sim.completed) / static_cast<double>(sim.offered), "frac");
  result.Add("sim_p50_ms", sim.p50_us / 1e3, "sim_ms");
  result.Add("sim_p99_ms", sim.p99_us / 1e3, "sim_ms");
  result.Add("overlap_speedup", sim.overlap_speedup, "x");

  Report("%s: %llu trace(s), the first of %zu requests and %zu distinct specs, over %d "
         "replicas; %llu passes in %.1f s",
         name.c_str(), static_cast<unsigned long long>(traces), first_requests, first_specs,
         in.config.replicas, static_cast<unsigned long long>(passes), args.seconds);
  host.Report("requests");
  ReportSim(in, sim);
  Report("  over all traces: faults injected crash %zu hang %zu slow %zu tune %zu ship %zu; "
         "requests served degraded %zu",
         crashes, hangs, slowdowns, tuner_failures, ship_losses, degraded);
  Report("  first trace:");
  ReportPass(first);
  return result;
}

// Traced run: alternating untraced / traced / ObsPlane passes, then the
// per-layer probes; writes the Chrome trace of the last traced pass.
Result TraceFleet(const Args& args, const FleetInputs& in, bool fresh_fleet_per_pass) {
  Result result;
  FleetSetup plain = SetUpFleet(in, nullptr, nullptr);
  std::optional<Pass> reference;
  double rss_kb_per_req = 0.0;
  if (!fresh_fleet_per_pass) {
    const int64_t rss_before = PeakRssKb();
    reference = RunPass(plain.fleet.get(), in, nullptr, nullptr);
    rss_kb_per_req = PerRequest(static_cast<double>(PeakRssKb() - rss_before), in.trace.size());
  }
  flo::ObsConfig obs_config;
  obs_config.enabled = true;
  flo::ObsPlane obs(obs_config);
  FleetSetup observed = SetUpFleet(in, &obs, nullptr);
  if (!fresh_fleet_per_pass) {
    RunPass(observed.fleet.get(), in, nullptr, nullptr);
  }

  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> obs_s;
  std::vector<double> gaps_ns;
  double spans_dropped_frac = 0.0;
  auto log = std::make_unique<SpanLog>();
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 0.6e9);
  int rounds = 0;
  while (rounds < 2 || NowNs() < deadline) {
    if (fresh_fleet_per_pass && rounds > 0) {
      plain.fleet.reset();
      plain = SetUpFleet(in, nullptr, nullptr);
    }
    const int64_t rss_mark = PeakRssKb();
    const Pass untraced = RunPass(plain.fleet.get(), in, nullptr, nullptr);
    if (!reference.has_value()) {
      reference = untraced;
      rss_kb_per_req = PerRequest(static_cast<double>(PeakRssKb() - rss_mark), in.trace.size());
    }
    CheckPass(untraced, reference->digest, "untraced pass", &result);
    untraced_s.push_back(untraced.cpu_s);

    log = std::make_unique<SpanLog>();
    log->Reserve(in.trace.size() + 64);
    gaps_ns.clear();
    FleetSetup traced_setup;
    flo::ServingCluster* traced_fleet = plain.fleet.get();
    if (fresh_fleet_per_pass) {
      traced_setup = SetUpFleet(in, nullptr, log.get());
      traced_fleet = traced_setup.fleet.get();
    }
    const Pass traced = RunPass(traced_fleet, in, log.get(), &gaps_ns);
    CheckPass(traced, reference->digest, "traced pass", &result);
    traced_s.push_back(traced.cpu_s);

    if (fresh_fleet_per_pass && rounds > 0) {
      observed.fleet.reset();
      observed = SetUpFleet(in, &obs, nullptr);
    }
    const Pass with_obs = RunPass(observed.fleet.get(), in, nullptr, nullptr);
    CheckPass(with_obs, reference->digest, "ObsPlane pass", &result);
    obs_s.push_back(with_obs.cpu_s);
    const double emitted = static_cast<double>(obs.tracer().emitted());
    spans_dropped_frac =
        emitted > 0.0 ? static_cast<double>(obs.tracer().dropped()) / emitted : 0.0;
    result.Check(emitted > 0.0, "ObsPlane pass emitted no spans");
    result.attempted += 3 * in.trace.size();
    result.failed += 3 * (in.trace.size() - untraced.completed);
    ++rounds;
  }

  const Pass& ref = *reference;
  const double searches_per_key = PerRequest(static_cast<double>(ref.searches), ref.distinct_keys);
  FleetProbes probes = RunFleetProbes(in, *plain.fleet, log.get());
  const std::string trace_path = args.out_dir + "/" + in.name + "_trace.json";
  result.Check(log->WriteChromeTrace(trace_path), "could not write " + trace_path);

  const double n = static_cast<double>(in.trace.size());
  const double untraced_med = flo::Percentile(untraced_s, 50.0);
  result.Add("cluster.host_ns_per_req", untraced_med * 1e9 / n, "ns");
  result.Add("cluster.arrival_gap_ns_p50", flo::Percentile(gaps_ns, 50.0), "ns");
  result.Add("cluster.arrival_gap_ns_p99", flo::Percentile(gaps_ns, 99.0), "ns");
  result.Add("cluster.snapshot_ns", probes.snapshot_ns, "ns");
  result.Add("cluster.place_ns", probes.place_ns, "ns");
  result.Add("core.key_ns", probes.key_ns, "ns");
  result.Add("core.store_find_ns", probes.store_find_ns, "ns");
  result.Add("core.store_findcopy_ns", probes.store_findcopy_ns, "ns");
  result.Add("core.exec_memo_ns", probes.exec_memo_ns, "ns");
  result.Add("serve.queue_ns_per_req", probes.queue_ns_per_req, "ns");
  result.Add("sim.event_ns", probes.event_ns, "ns");
  result.Add("sim.events_per_req", PerRequest(static_cast<double>(ref.events), ref.offered),
             "count");
  result.Add("core.exec_replay_us", probes.exec_replay_us, "us");
  result.Add("core.tune_us", probes.tune_us, "us");
  result.Add("core.tune_nodes", probes.tune_nodes, "count");
  result.Add("core.tune_mr_us", probes.tune_mr_us, "us");
  result.Add("sched.pick_ns", probes.pick_ns, "ns");
  result.Add("sched.preempts_per_req",
             PerRequest(static_cast<double>(ref.sched.preempted_requests), ref.offered), "count");
  result.Add("sched.backfills", static_cast<double>(ref.sched.backfills), "count");
  result.Add("sched.head_delays", static_cast<double>(ref.sched.head_delays), "count");
  result.Add("fault.requeued_per_req",
             PerRequest(static_cast<double>(ref.fault.requests_requeued), ref.offered), "count");
  result.Add("core.store_evictions", static_cast<double>(ref.evictions), "count");
  result.Add("core.searches_per_key", searches_per_key, "count");
  result.Add("cluster.spawns", static_cast<double>(ref.spawns), "count");
  result.Add("cluster.drains", static_cast<double>(ref.drains), "count");
  result.Add("cluster.prespawns", static_cast<double>(ref.prespawns), "count");
  result.Add("cluster.import_us_per_plan", PerRequest(plain.import_us, plain.imported), "us");
  result.Add("serve.rss_kb_per_req", rss_kb_per_req, "KiB");
  result.Add("obs.overhead_pct",
             100.0 * (flo::Percentile(obs_s, 50.0) / untraced_med - 1.0), "%");
  result.Add("obs.spans_dropped_frac", spans_dropped_frac, "frac");
  result.Add("trace_overhead_pct",
             100.0 * (flo::Percentile(traced_s, 50.0) / untraced_med - 1.0), "%");

  Report("%s traced: %d rounds of untraced / traced / ObsPlane passes, trace at %s", in.name,
         rounds, trace_path.c_str());
  for (const auto& [layer, self_ns] : log->SelfNsByLayer()) {
    Report("  span self time %-8s %12.3f ms", layer.c_str(), static_cast<double>(self_ns) / 1e6);
  }
  SimPool pool;
  pool.Add(ref);
  ReportSim(in, pool.Stats());
  ReportPass(ref);
  return result;
}

}  // namespace

Result RunFleetWarm(const Args& args) {
  if (args.trace) {
    return TraceFleet(args, MakeWarmInputs(args.seed), false);
  }
  return MeasureFleet(args, 1, [&args](uint64_t) { return MakeWarmInputs(args.seed); }, false);
}

// The traced run replays the first trace only.
Result RunFleetChurn(const Args& args) {
  ChurnShared shared;
  if (args.trace) {
    return TraceFleet(args, MakeChurnInputs(args.seed, 0, &shared), true);
  }
  return MeasureFleet(
      args, kChurnTraces,
      [&args, &shared](uint64_t trace) { return MakeChurnInputs(args.seed, trace, &shared); },
      true);
}

}  // namespace flobench
