#include "src/cluster/serving_cluster.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/obs/obs_plane.h"
#include "src/serve/request_cursor.h"
#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace flo {

namespace {

// Per-request service-cost estimate used for load balancing until
// completed requests calibrate the running mean.
constexpr double kDefaultCostEstimateUs = 1000.0;

// Fleet-scope instant (autoscaler decisions, replica lifecycle): one
// branch when the plane is absent or disabled.
void EmitFleetInstant(ObsPlane* obs, SpanKind kind, SimTime now, uint64_t id, uint64_t arg) {
  if (obs == nullptr || !obs->enabled()) {
    return;
  }
  SpanRecord span;
  span.kind = kind;
  span.start_us = now;
  span.end_us = now;
  span.id = id;
  span.arg = arg;
  span.replica = -1;
  obs->Emit(span);
}

// Per FaultKind: the report counter an applied injection bumps, and the
// health it leaves its replica in until the restore (kHealthy: the kind
// leaves health alone).
constexpr size_t FaultReport::*kInjected[] = {
    &FaultReport::injected_crashes, &FaultReport::injected_hangs,
    &FaultReport::injected_slowdowns, &FaultReport::injected_tuner_failures,
    &FaultReport::injected_ship_loss_windows};
constexpr Replica::Health kFaultedHealth[] = {
    Replica::Health::kCrashed, Replica::Health::kHung, Replica::Health::kStraggling,
    Replica::Health::kHealthy, Replica::Health::kHealthy};
static_assert(std::size(kInjected) == static_cast<size_t>(FaultKind::kCount) &&
              std::size(kFaultedHealth) == static_cast<size_t>(FaultKind::kCount));

}  // namespace

ServingCluster::ServingCluster(ClusterSpec hardware, ClusterConfig config,
                               TunerConfig tuner_config, EngineOptions options)
    : hardware_(hardware),
      config_(config),
      tuner_config_(tuner_config),
      options_(options),
      keyer_tuner_(hardware, tuner_config),
      keyer_(&keyer_tuner_, &keyer_store_),
      catalog_(&keyer_),
      router_(config.policy) {
  FLO_CHECK_GE(config_.replicas, 1);
  if (config_.autoscale.enabled) {
    FLO_CHECK_LE(config_.autoscale.min_replicas, config_.replicas);
    FLO_CHECK_LE(config_.replicas, config_.autoscale.max_replicas);
  }
  autoscale_handler_ = events_.RegisterHandler(
      [this](const EventRecord&, SimTime now) { AutoscaleCheck(now); });
  fault_handler_ = events_.RegisterHandler(
      [this](const EventRecord& record, SimTime now) { OnFaultEvent(record, now); });
  sched_handler_ = events_.RegisterHandler(
      [this](const EventRecord&, SimTime now) { SchedCheck(now); });
  if (config_.sched.enabled) {
    // Every session spawned from config_.serve consults the one fleet
    // scheduler: per-tenant shares are fleet-wide state, not per-replica.
    scheduler_ = std::make_unique<FleetScheduler>(config_.sched);
    config_.serve.sched = scheduler_.get();
  }
}

ServingCluster::~ServingCluster() {
  for (const auto& replica : replicas_) {
    replica->store()->SetChangeCallback(nullptr);
  }
}

Replica* ServingCluster::SpawnReplica(SimTime now) {
  const int id = table_.AddSlot();
  FLO_CHECK_EQ(static_cast<size_t>(id), replicas_.size());
  replicas_.push_back(std::make_unique<Replica>(id, hardware_, tuner_config_, options_,
                                                config_.store_capacity, now));
  Replica* replica = replicas_.back().get();
  replica->engine().UseSharedRunMemo(run_memo_);
  // One offline stage per fleet: every replica reads the GEMM
  // configurations and latency curves the keyer's stage holds, so the
  // bootstrap below derives none of them again.
  replica->engine().tuner().ShareOfflineStage(keyer_tuner_);
  // The store feeds its slot's resident bits from here on — attached
  // before the bootstrap below so the shipped plans register too. Replica
  // stores are only mutated on the simulation thread.
  replica->store()->SetChangeCallback(
      [this, id](uint64_t key, bool resident) { table_.SetResident(id, key, resident); });
  // Subscribing bootstraps the fresh store (and tuner) with every
  // published plan: a replica spawned mid-burst starts warm — both tiers
  // — instead of re-tuning the mix.
  shipper_.Subscribe(id, replica->store(), &replica->engine().tuner());
  StartSession(replica);
  ++spawns_;
  EmitFleetInstant(config_.serve.obs, SpanKind::kReplicaSpawn, now,
                   static_cast<uint64_t>(id), 0);
  int accepting = 0;
  for (const auto& r : replicas_) {
    accepting += r->accepting() ? 1 : 0;
  }
  peak_replicas_ = std::max(peak_replicas_, accepting);
  return replica;
}

Replica* ServingCluster::FindReplica(int id) {
  return id >= 0 && static_cast<size_t>(id) < replicas_.size() ? replicas_[id].get() : nullptr;
}

void ServingCluster::StartSession(Replica* replica) {
  replica->StartSession(config_.serve, &events_, HooksFor(replica));
  replica->session()->SetFaultConfig(config_.faults);
  table_.ResetSession(replica->id());
  SyncAccepting(*replica);
}

void ServingCluster::SyncAccepting(const Replica& replica) {
  table_.SetAccepting(replica.id(), replica.session() != nullptr && replica.accepting());
}

ServeSession::Hooks ServingCluster::HooksFor(Replica* replica) {
  ServeSession::Hooks hooks;
  const int id = replica->id();
  hooks.load_changed = [this, id](size_t pending_requests, SimTime busy_until) {
    table_.SetLoad(id, busy_until, pending_requests);
  };
  hooks.tuning_changed = [this, id](uint64_t key, bool tuning) {
    table_.SetTuning(id, key, tuning);
  };
  if (config_.ship_plans) {
    hooks.acquire_tuning = [this, replica](uint64_t key) {
      return shipper_.BeginTuning(key, replica->id());
    };
    hooks.tuning_finished = [this, replica](uint64_t key, const ScenarioSpec& spec,
                                            SimTime now) {
      // Publish the plan together with the tuner-tier artifact behind its
      // search (the spec's TuningRequest): if a bounded store later
      // evicts the shipped ExecutionPlan, any replica rebuilds it from
      // its own tuner cache instead of re-paying the search — the fleet
      // really does pay each search once, at any store capacity.
      const auto request = keyer_.TuningRequest(spec);
      StoredPlan artifact;
      const StoredPlan* artifact_ptr = nullptr;
      // Only balanced searches have a tuner-tier StoredPlan form;
      // imbalanced multiset plans ship through the ExecutionPlan record
      // alone (their search result is not a single-shape partition).
      if (request.has_value() && request->shapes.size() == 1) {
        Tuner& owner = replica->engine().tuner();
        if (owner.Contains(request->shapes[0], request->primitive)) {
          const TunedPlan& tuned = owner.Tune(request->shapes[0], request->primitive);
          artifact = StoredPlan{request->shapes[0], request->primitive, tuned.partition,
                                tuned.predicted_us, tuned.predicted_non_overlap_us};
          artifact_ptr = &artifact;
        }
      }
      shipper_.Publish(key, *replica->store(), artifact_ptr);
      EmitFleetInstant(config_.serve.obs, SpanKind::kPlanShip, now, key,
                       static_cast<uint64_t>(replica->id()));
      // The shipped plan may unblock peers parked on this key.
      DispatchAll(now);
    };
  }
  hooks.tuning_aborted = [this, replica](uint64_t key, SimTime now) {
    // The aborted search will not publish: release the fleet-wide
    // single-flight ownership so a peer (or this replica's retry) can
    // re-acquire the key, then wake anyone parked on it.
    if (config_.ship_plans) {
      shipper_.AbandonTuning(key, replica->id());
    }
    DispatchAll(now);
  };
  if (config_.sched.enabled) {
    hooks.request_shed = [this, replica](const ServeRequest& request, SimTime now) {
      // An SLO-shed retry leaves the run through here instead of
      // request_finished: it counts toward run completion (the admission
      // invariant still balances) but never reaches an executor.
      (void)request;
      ++completed_requests_;
      ++fault_report_.requests_shed;
      MaybeRetire(replica, now);
    };
  }
  hooks.request_finished = [this, replica](const RequestRecord& record, SimTime now) {
    ++completed_requests_;
    cost_sum_us_ += record.ExecUs() / static_cast<double>(std::max(1, record.batch_size));
    ++cost_samples_;
    if (config_.autoscale.enabled) {
      // The SLO-pressure window; AutoscaleCheck drains it every interval.
      recent_latencies_.push_back(record.LatencyUs());
    }
    MaybeRetire(replica, now);
  };
  return hooks;
}

double ServingCluster::CostEstimateUs() const {
  return cost_samples_ > 0 ? cost_sum_us_ / static_cast<double>(cost_samples_)
                           : kDefaultCostEstimateUs;
}

int ServingCluster::Place(uint64_t key, SimTime now, int avoid_id) {
  // The pending tier (same-key requests admitted here, not yet tuning or
  // warm) is the rare cold path, so it is probed per replica on demand
  // rather than tracked in the table.
  const std::function<bool(int)> pending = [this, key](int id) {
    return replicas_[static_cast<size_t>(id)]->session()->PendingKeyCount(key) > 0;
  };
  return router_.Place(table_, key, now, CostEstimateUs(), pending, avoid_id);
}

void ServingCluster::PlaceRequest(ServeRequest&& request, SimTime now) {
  const uint64_t key = catalog_.Key(request.spec);
  if (arrival_rate_.has_value()) {
    // One arrival charge per admitted request (requeues and preemptive
    // re-placements bypass this path on purpose — a placement revision
    // is not new demand).
    arrival_rate_->Charge(now);
  }
  Route(std::move(request), key, now, /*retry=*/false);
}

void ServingCluster::Route(ServeRequest&& request, uint64_t key, SimTime now, bool retry) {
  const int id = Place(key, now);
  if (id == -1) {
    // Every replica is down or draining. Under fault injection that is a
    // transient (health restores are already scheduled): park the request
    // in the requeue pool and try again after the base backoff, without
    // charging a retry. Without faults it is a configuration error.
    FLO_CHECK(faults_active_) << "no accepting replica (autoscaler drained below min?)";
    ++fault_report_.placement_stalls;
    PushRequeue(std::move(request), key, now + kRetryBackoffBaseUs);
    return;
  }
  if (retry) {
    ++fault_report_.requests_retried;
    EmitFleetInstant(config_.serve.obs, SpanKind::kFaultRetry, now,
                     static_cast<uint64_t>(request.id), static_cast<uint64_t>(request.retries));
  }
  replicas_[static_cast<size_t>(id)]->session()->Admit(std::move(request), key, now);
}

void ServingCluster::DispatchAll(SimTime now) {
  for (const auto& replica : replicas_) {
    if (!replica->retired() && replica->session() != nullptr) {
      replica->session()->Dispatch(now);
    }
  }
}

void ServingCluster::MaybeRetire(Replica* replica, SimTime now) {
  if (replica->draining() && !replica->retired() && replica->session()->idle()) {
    replica->Retire(now);
    SyncAccepting(*replica);
    shipper_.Unsubscribe(replica->id());
    ++drains_;
    EmitFleetInstant(config_.serve.obs, SpanKind::kReplicaRetire, now,
                     static_cast<uint64_t>(replica->id()), 0);
  }
}

void ServingCluster::AutoscaleCheck(SimTime now) {
  Autoscaler::Observation observation;
  size_t pending = 0;
  Replica* youngest_accepting = nullptr;
  for (const auto& replica : replicas_) {
    if (replica->retired() || replica->session() == nullptr) {
      continue;
    }
    if (replica->accepting()) {
      // Numerator and denominator cover the same set (the Observation
      // invariant): backlogs on crashed/hung/draining replicas re-enter
      // the signal when the requeue paths re-place them.
      pending += replica->session()->pending_requests();
      ++observation.accepting_replicas;
      youngest_accepting = replica.get();  // id order: last accepting wins
    }
    // A draining replica that went idle without a completion event (its
    // backlog was empty at drain time) retires at the next checkpoint.
    MaybeRetire(replica.get(), now);
  }
  observation.pending_requests = pending;
  if (!recent_latencies_.empty()) {
    observation.recent_p99_us = SummarizePercentiles(recent_latencies_).p99;
    last_window_p99_us_ = observation.recent_p99_us;
    recent_latencies_.clear();
  } else if (pending > 0) {
    // Nothing finished this interval but work is still in flight (a
    // straggler, a long cold tune): carry the previous window's p99
    // forward so the SLO signal cannot read "calm" exactly when the
    // fleet is stalled.
    observation.recent_p99_us = last_window_p99_us_;
  }
  ObsPlane* obs = config_.serve.obs;
  const bool observing = obs != nullptr && obs->enabled();
  if (arrival_rate_.has_value()) {
    const RateEstimate estimate =
        arrival_rate_->Sample(now, autoscaler_->config().check_interval_us);
    observation.rate_estimate = estimate.arrivals_per_interval;
    observation.rate_trend = estimate.trend;
    observation.capacity_per_replica =
        autoscaler_->config().check_interval_us / CostEstimateUs();
    if (observing) {
      obs->metrics().Set(obs->ids().autoscale_rate_estimate,
                         observation.rate_estimate);
    }
  }
  const Autoscaler::Decision decision = autoscaler_->Evaluate(observation);
  EmitFleetInstant(config_.serve.obs, SpanKind::kAutoscale, now, observation.pending_requests,
                   decision == Autoscaler::Decision::kSpawn      ? 1
                   : decision == Autoscaler::Decision::kDrain    ? 2
                   : decision == Autoscaler::Decision::kPrespawn ? 3
                                                                 : 0);
  switch (decision) {
    case Autoscaler::Decision::kPrespawn:
      ++prespawns_;
      EmitFleetInstant(config_.serve.obs, SpanKind::kPrespawn, now,
                       static_cast<uint64_t>(replicas_.size()),
                       static_cast<uint64_t>(std::max(
                           0.0, observation.rate_estimate + observation.rate_trend + 0.5)));
      SpawnReplica(now);
      break;
    case Autoscaler::Decision::kSpawn:
      SpawnReplica(now);
      break;
    case Autoscaler::Decision::kDrain:
      if (youngest_accepting != nullptr) {
        EmitFleetInstant(config_.serve.obs, SpanKind::kReplicaDrain, now,
                         static_cast<uint64_t>(youngest_accepting->id()), 0);
        youngest_accepting->BeginDrain();
        SyncAccepting(*youngest_accepting);
        MaybeRetire(youngest_accepting, now);
      }
      break;
    case Autoscaler::Decision::kHold:
      break;
  }
  // Continue while served work remains — completions outstanding, or
  // arrivals the pump has not pulled from the cursor yet.
  if (completed_requests_ < pump_->admitted() || !pump_->done()) {
    EventRecord record;
    record.type = EventType::kAutoscaleCheck;
    record.handler = autoscale_handler_;
    events_.Push(now + autoscaler_->config().check_interval_us, record);
  }
}

FleetReport ServingCluster::Run(std::vector<ServeRequest> requests) {
  // VectorCursor stable-sorts by arrival, reproducing the historical
  // materialize-then-sort admission order exactly.
  VectorCursor cursor(std::move(requests));
  return Run(&cursor);
}

FleetReport ServingCluster::Run(RequestCursor* cursor) {
  FLO_CHECK(cursor != nullptr);
  FLO_CHECK(events_.empty());
  // Per-run state. Engines/stores persist; sessions and reports reset.
  // Only an enabled autoscaler is constructed (and config-validated): a
  // zeroed-out disabled config must not abort the run.
  autoscaler_ =
      config_.autoscale.enabled ? std::make_unique<Autoscaler>(config_.autoscale) : nullptr;
  total_requests_ = 0;
  completed_requests_ = 0;
  cost_sum_us_ = 0.0;
  cost_samples_ = 0;
  recent_latencies_.clear();
  last_window_p99_us_ = 0.0;
  catalog_.BeginRun();
  spawns_ = 0;
  drains_ = 0;
  prespawns_ = 0;
  peak_replicas_ = 0;
  // Fault plane: a scripted override wins; otherwise an enabled config
  // expands into a seeded schedule against the configured replica count.
  if (!schedule_override_.empty()) {
    active_schedule_ = schedule_override_;
  } else if (config_.faults.enabled()) {
    FLO_CHECK_GT(config_.faults.horizon_us, 0.0)
        << "FaultConfig::horizon_us must be set to generate a schedule";
    active_schedule_ = FaultSchedule::FromConfig(config_.faults, config_.replicas);
  } else {
    active_schedule_ = FaultSchedule();
  }
  faults_active_ = !active_schedule_.empty();
  fault_report_ = FaultReport{};
  fault_report_.enabled = faults_active_;
  requeue_pool_.clear();
  requeue_free_.clear();
  ship_drops_baseline_ = shipper_.stats().ship_drops;
  sched_preempt_scans_ = 0;
  sched_preempted_ = 0;
  if (scheduler_ != nullptr) {
    scheduler_->ResetRunState();
  }
  // The predictive tier's rate estimate decays on the fair-share clock.
  arrival_rate_.reset();
  if (config_.autoscale.enabled && config_.autoscale.predictive) {
    arrival_rate_.emplace(config_.sched.share_half_life_us);
  }
  ObsPlane* obs = config_.serve.obs;
  const bool observing = obs != nullptr && obs->enabled();
  if (observing) {
    obs->BeginRun();
    // Fleet-aggregated mirror: sum tuner/store totals over every replica
    // ever spawned, so the shared gauges describe the fleet, not the
    // last-polled engine.
    obs->AddPoller([this, obs](MetricsRegistry& registry) {
      size_t searches = 0;
      PlanStoreStats stores;
      size_t resident = 0;
      int accepting = 0;
      for (const auto& replica : replicas_) {
        searches += replica->engine().tuner().search_count();
        const PlanStoreStats stats = replica->store()->stats();
        stores.hits += stats.hits;
        stores.misses += stats.misses;
        stores.evictions += stats.evictions;
        resident += replica->store()->size();
        accepting += (!replica->retired() && replica->accepting()) ? 1 : 0;
      }
      registry.Set(obs->ids().tuner_searches_total, static_cast<double>(searches));
      registry.Set(obs->ids().store_hits, static_cast<double>(stores.hits));
      registry.Set(obs->ids().store_misses, static_cast<double>(stores.misses));
      registry.Set(obs->ids().store_evictions, static_cast<double>(stores.evictions));
      registry.Set(obs->ids().plans_resident, static_cast<double>(resident));
      registry.Set(obs->ids().replicas_accepting, static_cast<double>(accepting));
    });
    obs->AttachLoop(&events_);
  } else {
    // The shared loop persists across runs; drop any previous run's tap.
    events_.SetTap(nullptr, nullptr);
  }
  const uint64_t events_before = events_.dispatched();
  if (replicas_.empty()) {
    for (int i = 0; i < config_.replicas; ++i) {
      SpawnReplica(0.0);
    }
    spawns_ = 0;  // the initial fleet is not an autoscaling event
  } else {
    int accepting = 0;
    for (const auto& replica : replicas_) {
      if (replica->retired()) {
        // Drop the prior run's session, or its report would be merged
        // into this run's (the report covers this run only).
        replica->ClearSession();
        SyncAccepting(*replica);
      } else {
        StartSession(replica.get());
        accepting += replica->accepting() ? 1 : 0;
      }
    }
    FLO_CHECK_GT(accepting, 0) << "every replica is retired";
    peak_replicas_ = accepting;
  }

  // Streamed admission: one arrival in flight; each firing places the
  // request and pulls the next from the cursor.
  ArrivalPump pump(cursor, &events_, [this](ServeRequest&& request, SimTime now) {
    ++total_requests_;
    PlaceRequest(std::move(request), now);
  });
  pump_ = &pump;
  // Every injection is scheduled before dispatch begins (pushes are
  // order-free until the first RunOne), indexed into active_schedule_.
  for (size_t i = 0; i < active_schedule_.size(); ++i) {
    EventRecord record;
    record.type = EventType::kFaultInject;
    record.handler = fault_handler_;
    record.slot = static_cast<uint32_t>(i);
    record.replica = active_schedule_.events()[i].replica;
    events_.Push(active_schedule_.events()[i].time_us, record);
  }
  if (config_.autoscale.enabled && !pump.done()) {
    EventRecord record;
    record.type = EventType::kAutoscaleCheck;
    record.handler = autoscale_handler_;
    events_.Push(config_.autoscale.check_interval_us, record);
  }
  if (config_.sched.enabled && config_.sched.preempt_requeue && !pump.done()) {
    EventRecord record;
    record.type = EventType::kSchedCheck;
    record.handler = sched_handler_;
    events_.Push(config_.sched.preempt_interval_us, record);
  }
  events_.RunToCompletion();
  pump_ = nullptr;
  FLO_CHECK(pump.done()) << "arrival pump stalled mid-trace";
  FLO_CHECK_EQ(completed_requests_, total_requests_);

  FleetReport report;
  report.distinct_keys = catalog_.run_keys();
  report.events = events_.dispatched() - events_before;
  for (const auto& replica : replicas_) {
    ReplicaReport entry;
    entry.id = replica->id();
    entry.spawned_us = replica->spawned_us();
    entry.retired_us = replica->retired_us();
    entry.plans_resident = replica->store()->size();
    if (replica->session() != nullptr) {
      entry.serve = std::move(replica->session()->report());
      entry.tuner_searches = replica->SearchesThisRun();
      report.total_searches += entry.tuner_searches;
      report.makespan_us = std::max(report.makespan_us, entry.serve.makespan_us);
      report.stats.Append(entry.serve.stats);
    }
    report.replicas.push_back(std::move(entry));
  }
  report.peak_replicas = peak_replicas_;
  report.spawns = spawns_;
  report.drains = drains_;
  report.prespawns = prespawns_;
  report.shipping = shipper_.stats();
  for (const ReplicaReport& entry : report.replicas) {
    fault_report_.tuner_retries += entry.serve.tuner_retries;
    fault_report_.requests_degraded += entry.serve.degraded_requests;
  }
  fault_report_.ship_drops = shipper_.stats().ship_drops - ship_drops_baseline_;
  report.fault = fault_report_;
  report.sched.enabled = config_.sched.enabled;
  report.sched.preempt_scans = sched_preempt_scans_;
  report.sched.preempted_requests = sched_preempted_;
  for (const ReplicaReport& entry : report.replicas) {
    report.sched.backfills += entry.serve.backfills;
    report.sched.reserves += entry.serve.sched_reserves;
    report.sched.reserve_idle_us += entry.serve.reserve_idle_us;
    report.sched.head_delays += entry.serve.head_delays;
    report.sched.shed_requests += entry.serve.shed_requests;
  }
  if (observing) {
    obs->FinishRun(report.makespan_us);
  }
  return report;
}

void ServingCluster::SetFaultSchedule(FaultSchedule schedule) {
  schedule_override_ = std::move(schedule);
}

void ServingCluster::OnFaultEvent(const EventRecord& record, SimTime now) {
  switch (record.type) {
    case EventType::kFaultInject:
      ApplyFault(active_schedule_.events()[record.slot], now);
      break;
    case EventType::kRequeue:
      OnRequeue(record, now);
      break;
    case EventType::kHealthRestore:
      OnHealthRestore(record, now);
      break;
    case EventType::kHangDetect:
      OnHangDetect(record, now);
      break;
    default:
      FLO_CHECK(false) << "unexpected fault-plane event type";
  }
}

void ServingCluster::ApplyFault(const FaultEvent& event, SimTime now) {
  const size_t kind = static_cast<size_t>(event.kind);
  const Replica::Health faulted = kFaultedHealth[kind];
  Replica* replica = nullptr;
  if (event.kind != FaultKind::kShipLoss) {
    replica = FindReplica(event.replica);
    if (replica == nullptr || replica->retired() || replica->session() == nullptr) {
      return;  // deterministic skip: the target is gone
    }
    if (faulted != Replica::Health::kHealthy && replica->health() != Replica::Health::kHealthy) {
      return;  // already failing: one health fault at a time per replica
    }
  }
  ++(fault_report_.*kInjected[kind]);
  const bool crash = event.kind == FaultKind::kCrash;
  EmitFleetInstant(config_.serve.obs, crash ? SpanKind::kFaultCrash : SpanKind::kFaultInject, now,
                   static_cast<uint64_t>(event.replica),
                   crash ? static_cast<uint64_t>(event.duration_us) : kind);
  if (faulted != Replica::Health::kHealthy) {
    replica->SetHealth(faulted);
    SyncAccepting(*replica);
  }
  switch (event.kind) {
    case FaultKind::kCrash:
      // Teardown: stall, lose the store and leave the shipper's subscriber
      // list (the restart re-subscribes, which re-warms), then evacuate.
      replica->session()->SetStalled(true);
      replica->store()->Clear();
      shipper_.Unsubscribe(replica->id());
      Evacuate(replica, now);
      break;
    case FaultKind::kHang: {
      replica->session()->SetStalled(true);
      // The detection deadline comes from the recovery policy, not the
      // event: a hang shorter than the deadline resolves invisibly.
      EventRecord detect;
      detect.type = EventType::kHangDetect;
      detect.handler = fault_handler_;
      detect.replica = replica->id();
      events_.Push(now + config_.faults.hang_detect_us, detect);
      break;
    }
    case FaultKind::kSlowdown:
      // The straggler keeps executing (slowly) but is unroutable until
      // the window closes.
      replica->session()->SetCostMultiplier(event.magnitude);
      break;
    case FaultKind::kTunerFail:
      replica->session()->FailInFlightTuning();
      return;  // nothing to restore
    case FaultKind::kShipLoss: {
      // Per-(key, peer) drop decisions are a pure hash of (seed, window
      // index, key, peer): deterministic, and independent of delivery
      // order. Overlapping windows share the filter slot — the last one
      // to open wins, the first to close clears.
      const uint64_t salt =
          StableHash()
              .Mix(config_.faults.seed)
              .Mix(static_cast<uint64_t>(fault_report_.injected_ship_loss_windows))
              .value();
      const double fraction = event.magnitude;
      shipper_.SetDropFilter([salt, fraction](uint64_t key, int replica_id) {
        return Rng(StableHash().Mix(salt).Mix(key).Mix(replica_id).value()).NextDouble() <
               fraction;
      });
      break;
    }
    case FaultKind::kCount:
      FLO_CHECK(false) << "unreachable fault kind";
  }
  EventRecord restore;
  restore.type = EventType::kHealthRestore;
  restore.key = kind;
  restore.handler = fault_handler_;
  restore.replica = replica != nullptr ? replica->id() : -1;
  events_.Push(now + event.duration_us, restore);
}

void ServingCluster::OnHealthRestore(const EventRecord& record, SimTime now) {
  const FaultKind kind = static_cast<FaultKind>(record.key);
  if (kind == FaultKind::kShipLoss) {
    shipper_.SetDropFilter(nullptr);
    return;
  }
  Replica* replica = FindReplica(record.replica);
  if (replica == nullptr || replica->retired() || replica->session() == nullptr) {
    return;  // crashed + draining replicas may retire before the restore
  }
  const Replica::Health faulted = kFaultedHealth[record.key];
  FLO_CHECK(faulted != Replica::Health::kHealthy) << "unreachable restore kind";
  // ApplyFault injects a health fault only into a healthy replica, and
  // nothing but this restore clears it, so the replica still shows it.
  FLO_CHECK(replica->health() == faulted)
      << "replica " << replica->id() << " restores a fault it does not show";
  if (kind == FaultKind::kCrash) {
    // Restart: re-subscribe re-warms the empty store (and tuner tier)
    // from everything the fleet has published — the paper's "prepare
    // once, serve many" contract doubling as crash recovery.
    fault_report_.plans_rewarmed += shipper_.Subscribe(
        replica->id(), replica->store(), &replica->engine().tuner());
    ++fault_report_.replica_restarts;
  }
  replica->SetHealth(Replica::Health::kHealthy);
  SyncAccepting(*replica);
  // Undo the fault: a straggler's cost returns to 1x; a crashed or hung
  // session resumes dispatching.
  if (kind == FaultKind::kSlowdown) {
    replica->session()->SetCostMultiplier(1.0);
  } else {
    replica->session()->SetStalled(false);
  }
  replica->session()->Dispatch(now);
}

void ServingCluster::OnHangDetect(const EventRecord& record, SimTime now) {
  Replica* replica = FindReplica(record.replica);
  if (replica == nullptr || replica->retired() || replica->session() == nullptr ||
      replica->health() != Replica::Health::kHung) {
    return;  // the hang resolved before the deadline
  }
  // Deadline missed: reschedule the backlog elsewhere.
  Evacuate(replica, now);
}

void ServingCluster::Evacuate(Replica* replica, SimTime now) {
  evacuated_.clear();
  const size_t evacuated = replica->session()->ExtractPending(&evacuated_);
  if (evacuated > 0) {
    fault_report_.requests_requeued += evacuated;
    EmitFleetInstant(config_.serve.obs, SpanKind::kFaultRequeue, now,
                     static_cast<uint64_t>(replica->id()), evacuated);
  }
  for (KeyedRequest& moved : evacuated_) {
    ServeRequest& request = moved.request;
    ++request.retries;
    if (request.retries > config_.faults.retry_budget) {
      // The budget bounds backoff growth and flags the report; it never
      // sheds the request — every admitted request completes.
      if (fault_report_.retry_budget_exhausted == 0) {
        FLO_LOG(kWarning) << "request " << request.id << " exceeded the retry budget ("
                          << config_.faults.retry_budget << "); requeueing anyway";
      }
      ++fault_report_.retry_budget_exhausted;
    }
    const double backoff =
        RetryBackoffUs(config_.faults, static_cast<uint64_t>(request.id), request.retries);
    PushRequeue(std::move(request), moved.key, now + backoff);
  }
  // The replica's in-flight searches will never publish: release them so
  // peers may acquire the keys, and let every session dispatch.
  shipper_.ReleaseReplica(replica->id());
  DispatchAll(now);
}

void ServingCluster::PushRequeue(ServeRequest&& request, uint64_t key, SimTime at) {
  uint32_t slot;
  if (!requeue_free_.empty()) {
    slot = requeue_free_.back();
    requeue_free_.pop_back();
    requeue_pool_[slot] = KeyedRequest{std::move(request), key};
  } else {
    slot = static_cast<uint32_t>(requeue_pool_.size());
    requeue_pool_.push_back(KeyedRequest{std::move(request), key});
  }
  EventRecord record;
  record.type = EventType::kRequeue;
  record.key = static_cast<uint64_t>(requeue_pool_[slot].request.id);
  record.handler = fault_handler_;
  record.slot = slot;
  events_.Push(at, record);
}

void ServingCluster::OnRequeue(const EventRecord& record, SimTime now) {
  // Out of the pool first: a stall re-parks the request, possibly in
  // this very slot.
  KeyedRequest parked = std::move(requeue_pool_[record.slot]);
  requeue_free_.push_back(record.slot);
  Route(std::move(parked.request), parked.key, now, /*retry=*/true);
}

void ServingCluster::SchedCheck(SimTime now) {
  ++sched_preempt_scans_;
  const SchedConfig& sched = config_.sched;
  // Mean queue depth over accepting healthy replicas, for the overload
  // test. Draining/straggling replicas are preemption victims regardless
  // of depth, so they stay out of the baseline.
  size_t accepting = 0;
  size_t accepting_queued = 0;
  for (const auto& replica : replicas_) {
    if (replica->retired() || replica->session() == nullptr || !replica->accepting() ||
        replica->health() != Replica::Health::kHealthy) {
      continue;
    }
    ++accepting;
    accepting_queued += replica->session()->pending_requests();
  }
  for (const auto& replica : replicas_) {
    if (replica->retired() || replica->session() == nullptr) {
      continue;
    }
    // Crashed and hung replicas belong to the fault plane's requeue path;
    // double-evacuating them would double-count recovery work.
    const Replica::Health health = replica->health();
    if (health == Replica::Health::kCrashed || health == Replica::Health::kHung) {
      continue;
    }
    const size_t queued = replica->session()->pending_requests();
    bool victim = replica->draining() || health == Replica::Health::kStraggling;
    if (!victim && accepting >= 2 && replica->accepting() &&
        queued >= static_cast<size_t>(sched.overload_min_queue)) {
      // Overloaded relative to its peers: strictly above overload_factor
      // times the mean depth of the *other* accepting replicas.
      const double peer_mean = static_cast<double>(accepting_queued - queued) /
                               static_cast<double>(accepting - 1);
      victim = static_cast<double>(queued) > sched.overload_factor * peer_mean;
    }
    if (!victim) {
      continue;
    }
    evacuated_.clear();
    const size_t pulled = replica->session()->ExtractQueued(&evacuated_);
    if (pulled == 0) {
      MaybeRetire(replica.get(), now);
      continue;
    }
    sched_preempted_ += pulled;
    EmitFleetInstant(config_.serve.obs, SpanKind::kSchedPreempt, now,
                     static_cast<uint64_t>(replica->id()), pulled);
    for (KeyedRequest& moved : evacuated_) {
      const int id = Place(moved.key, now, replica->id());
      // Nowhere better: hand the request straight back. Not a retry —
      // preemption is a placement revision, not a failure.
      Replica* target = id != -1 ? replicas_[static_cast<size_t>(id)].get() : replica.get();
      target->session()->Admit(std::move(moved.request), moved.key, now);
    }
    MaybeRetire(replica.get(), now);
  }
  // Re-arm while served work remains, like the autoscale checkpoint.
  if (completed_requests_ < pump_->admitted() || !pump_->done()) {
    EventRecord record;
    record.type = EventType::kSchedCheck;
    record.handler = sched_handler_;
    events_.Push(now + sched.preempt_interval_us, record);
  }
}

bool ServingCluster::SavePlans(const std::string& path) const {
  return shipper_.SaveSnapshot(path);
}

size_t ServingCluster::ImportPlans(const std::string& text) {
  return shipper_.ImportSnapshot(text);
}

size_t ServingCluster::LoadPlans(const std::string& path) {
  // ImportPlans validates the text (a malformed snapshot applies
  // nothing), so the file is read raw and parsed exactly once.
  const std::optional<std::string> text = ReadFileToString(path);
  if (!text.has_value()) {
    FLO_LOG(kError) << "plan snapshot unreadable: " << path;
    return 0;
  }
  const size_t imported = ImportPlans(*text);
  if (imported == 0) {
    FLO_LOG(kError) << "plan snapshot rejected (malformed or empty): " << path
                    << " (" << text->size() << " bytes); no store was touched";
  }
  return imported;
}

}  // namespace flo
