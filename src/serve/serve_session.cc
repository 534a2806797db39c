#include "src/serve/serve_session.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "src/obs/obs_plane.h"
#include "src/sched/fleet_scheduler.h"
#include "src/util/check.h"

namespace flo {

namespace {

// One observability guard per emission site: a null plane or a disabled
// one costs a single branch.
inline bool Observing(const ServeConfig& config) {
  return config.obs != nullptr && config.obs->enabled();
}

}  // namespace

ServeSession::ServeSession(OverlapEngine* engine, ServeConfig config, EventLoop* events,
                           Hooks hooks, int replica_id)
    : engine_(engine),
      config_(config),
      events_(events),
      hooks_(std::move(hooks)),
      replica_id_(replica_id),
      queue_([this](const ScenarioSpec& spec) { return engine_->planner().CanonicalKey(spec); }) {
  FLO_CHECK(engine_ != nullptr);
  FLO_CHECK(events_ != nullptr);
  FLO_CHECK_GT(config_.max_batch, 0);
  FLO_CHECK_GE(config_.tune_base_us, 0.0);
  FLO_CHECK_GE(config_.tune_per_search_us, 0.0);
  tuning_handler_ = events_->RegisterHandler(
      [this](const EventRecord& record, SimTime now) { OnTuningFinished(record, now); });
  finish_handler_ = events_->RegisterHandler(
      [this](const EventRecord& record, SimTime now) { OnBatchFinished(record, now); });
  retry_handler_ = events_->RegisterHandler(
      [this](const EventRecord&, SimTime now) { Dispatch(now); });
  if (config_.sched != nullptr && config_.sched->enabled()) {
    sched_ = config_.sched;
    // Scheduler-ranked lane choice replaces round-robin rotation; the
    // queue is clockless, so the picker reads the dispatch round's time
    // from sched_now_.
    queue_.SetLanePicker([this](const std::vector<RequestQueue::LaneHead>& heads) {
      return sched_->PickLane(heads, sched_now_);
    });
  }
}

void ServeSession::Admit(ServeRequest&& request, SimTime now) {
  const uint64_t key = engine_->planner().CanonicalKey(request.spec);
  Admit(std::move(request), key, now);
}

void ServeSession::Admit(ServeRequest&& request, uint64_t key, SimTime now) {
  ++pending_requests_;
  queue_.Admit(std::move(request), key);
  LoadChanged();
  Dispatch(now);
}

void ServeSession::SetTuningKey(uint64_t key, bool tuning) {
  const bool changed = tuning ? tuning_keys_.insert(key).second : tuning_keys_.erase(key) != 0;
  if (changed && hooks_.tuning_changed) {
    hooks_.tuning_changed(key, tuning);
  }
}

void ServeSession::LoadChanged() {
  if (hooks_.load_changed) {
    hooks_.load_changed(pending_requests_, busy_until_);
  }
}

bool ServeSession::idle() const {
  return queue_.empty() && ready_.empty() && tune_wait_.empty() && tuners_busy_ == 0 &&
         executor_free_;
}

size_t ServeSession::PendingKeyCount(uint64_t key) const {
  size_t pending = queue_.KeyDepth(key);
  for (const uint32_t s : ready_) {
    if (batch_pool_[s].key == key) {
      pending += batch_pool_[s].requests.size();
    }
  }
  for (const uint32_t s : tune_wait_) {
    if (batch_pool_[s].key == key) {
      pending += batch_pool_[s].requests.size();
    }
  }
  return pending;
}

uint32_t ServeSession::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  batch_pool_.emplace_back();
  return static_cast<uint32_t>(batch_pool_.size() - 1);
}

void ServeSession::ReleaseSlot(uint32_t slot) {
  Batch& batch = batch_pool_[slot];
  batch.requests.clear();  // keeps capacity: the pooling that matters
  batch.key = 0;
  batch.tuned = false;
  batch.exec_start = 0.0;
  batch.exec_hit = false;
  batch.cancelled = false;
  batch.degraded = false;
  batch.tune_failed = false;
  batch.tune_retries = 0;
  batch.not_before_us = 0.0;
  batch.charged_searches = 0;
  batch.tenant_id = 0;
  batch.oldest_arrival_us = 0.0;
  batch.tune_eta_us = 0.0;
  batch.backfilled = false;
  free_slots_.push_back(slot);
}

bool ServeSession::IsWarm(uint64_t key) const {
  return engine_->plan_store().Contains(key) && tuning_keys_.count(key) == 0;
}

uint64_t ServeSession::PopQueueBatch(uint32_t batch_slot, uint32_t lane_tenant) {
  Batch& batch = batch_pool_[batch_slot];
  batch.key = lane_tenant == 0
                  ? queue_.PopBatchInto(config_.max_batch, &batch.requests)
                  : queue_.PopLaneBatchInto(lane_tenant, config_.max_batch, &batch.requests);
  batch.tenant_id = batch.requests.front().tenant_id;
  batch.oldest_arrival_us = batch.requests.front().arrival_us;
  for (const ServeRequest& request : batch.requests) {
    if (request.arrival_us < batch.oldest_arrival_us) {
      batch.oldest_arrival_us = request.arrival_us;
    }
  }
  return batch.key;
}

double ServeSession::PredictedServiceUs(const Batch& batch) const {
  if (batch.degraded) {
    // The safety plan's cost has no stored estimate; never backfill it.
    return std::numeric_limits<double>::infinity();
  }
  const PlanStore::Handle plan = engine_->plan_store().Peek(batch.key);
  if (plan == nullptr) {
    return std::numeric_limits<double>::infinity();
  }
  return plan->predicted_us * static_cast<double>(batch.requests.size()) * cost_multiplier_;
}

// Batches parked in a lane are not frozen: a same-key batch joining the
// lane coalesces into an existing one up to max_batch, so requests
// arriving during a tuning window still get compatibility-batched.
void ServeSession::MergeOrPark(Lane* lane, uint32_t batch_slot) {
  Batch& incoming = batch_pool_[batch_slot];
  for (const uint32_t s : *lane) {
    Batch& existing = batch_pool_[s];
    if (existing.key == incoming.key &&
        existing.requests.size() + incoming.requests.size() <=
            static_cast<size_t>(config_.max_batch)) {
      for (ServeRequest& request : incoming.requests) {
        existing.requests.push_back(std::move(request));
      }
      // Priority metadata follows the merged requests: the coalesced
      // batch is as old as its oldest member.
      if (incoming.oldest_arrival_us < existing.oldest_arrival_us) {
        existing.oldest_arrival_us = incoming.oldest_arrival_us;
      }
      ReleaseSlot(batch_slot);
      return;
    }
  }
  lane->push_back(batch_slot);
}

double ServeSession::TuneCostUs(size_t searches) const {
  return config_.tune_base_us + config_.tune_per_search_us * static_cast<double>(searches);
}

void ServeSession::FinishTuningAt(uint32_t batch_slot, double cost, size_t searches,
                                  SimTime now) {
  report_.tuner_busy_us += cost;
  Batch& batch = batch_pool_[batch_slot];
  batch.tune_eta_us = now + cost;  // the backfill window's far edge
  tuning_requests_ += batch.requests.size();
  // Remember the charge so a retry after an injected abort re-pays it
  // even though the tuner's own cache is warm by then.
  batch.charged_searches = std::max(batch.charged_searches, searches);
  tuning_slots_.push_back(batch_slot);
  if (Observing(config_)) {
    SpanRecord span;
    span.kind = SpanKind::kTune;
    span.start_us = now;
    span.end_us = now + cost;
    span.id = batch.key;
    span.arg = searches;
    span.replica = replica_id_;
    config_.obs->Emit(span);
    if (searches > 0) {
      // The predictive searches behind this tune, as a planner-internal
      // instant at the moment they were charged.
      span.kind = SpanKind::kBnbSearch;
      span.end_us = now;
      config_.obs->Emit(span);
    }
  }
  EventRecord record;
  record.type = EventType::kTuningFinished;
  record.key = batch.key;
  record.handler = tuning_handler_;
  record.slot = batch_slot;
  record.replica = replica_id_;
  events_->Push(now + cost, record);
}

void ServeSession::OnTuningFinished(const EventRecord& record, SimTime now) {
  const uint32_t batch_slot = record.slot;
  const uint64_t key = record.key;
  FLO_CHECK_EQ(batch_pool_[batch_slot].key, key);
  --tuners_busy_;
  tuning_slots_.erase(std::find(tuning_slots_.begin(), tuning_slots_.end(), batch_slot));
  if (batch_pool_[batch_slot].cancelled) {
    // The batch was evacuated (replica crash): its requests are gone and
    // the extraction already settled tuning_keys_/tuning_requests_. The
    // stale finish event just returns the slot.
    ReleaseSlot(batch_slot);
    Dispatch(now);
    return;
  }
  if (batch_pool_[batch_slot].tune_failed) {
    AbortTuning(batch_slot, key, now);
    return;
  }
  SetTuningKey(key, false);
  tuning_requests_ -= batch_pool_[batch_slot].requests.size();
  // Backfill audit: a lower-priority batch slotted into this batch's
  // tuning window must be off the executor by the time the tune
  // completes. Equal-time events dispatch the tune finish before the
  // batch finish (FIFO seq order), so busy_until_ == now counts as an
  // exact fit, not a delay.
  if (sched_ != nullptr && executing_slot_ >= 0) {
    const Batch& running = batch_pool_[static_cast<uint32_t>(executing_slot_)];
    const Batch& tuned = batch_pool_[batch_slot];
    if (running.backfilled && busy_until_ > now &&
        FleetScheduler::Before(
            sched_->KeyFor(tuned.tenant_id, tuned.oldest_arrival_us, now),
            sched_->KeyFor(running.tenant_id, running.oldest_arrival_us, now))) {
      ++report_.head_delays;
    }
  }
  // Copied out: Dispatch below may execute and recycle the slot.
  const ScenarioSpec spec = batch_pool_[batch_slot].requests.front().spec;
  ready_.push_back(batch_slot);
  Dispatch(now);
  if (hooks_.tuning_finished) {
    hooks_.tuning_finished(key, spec, now);
  }
}

void ServeSession::AbortTuning(uint32_t batch_slot, uint64_t key, SimTime now) {
  Batch& batch = batch_pool_[batch_slot];
  SetTuningKey(key, false);
  tuning_requests_ -= batch.requests.size();
  batch.tune_failed = false;
  ++batch.tune_retries;
  // Discard the poisoned plan so the key reads cold again; the tuner's
  // own cache keeps its references valid, and charged_searches re-pays
  // the simulated cost on the retry.
  engine_->plan_store().Erase(key);
  if (batch.tune_retries > faults_.tuner_retry_budget) {
    // Budget exhausted: the batch is bound for the single-group safety
    // plan. SLO-aware shed first (SchedConfig::slo_shed): requests of
    // tenants whose p99 is already blown are dropped rather than served
    // degraded — slow safety-plan work can no longer rescue their SLO
    // and only queues more delay behind it.
    if (sched_ != nullptr && sched_->config().slo_shed) {
      size_t kept = 0;
      for (size_t i = 0; i < batch.requests.size(); ++i) {
        ServeRequest& request = batch.requests[i];
        if (sched_->TenantSloBlown(request.tenant_id)) {
          ++report_.shed_requests;
          FLO_CHECK_GT(pending_requests_, 0u);
          --pending_requests_;
          LoadChanged();
          if (Observing(config_)) {
            SpanRecord span;
            span.kind = SpanKind::kSchedShed;
            span.start_us = now;
            span.end_us = now;
            span.id = static_cast<uint64_t>(request.id);
            span.tenant = request.tenant_id;
            span.replica = replica_id_;
            config_.obs->Emit(span);
          }
          if (hooks_.request_shed) {
            hooks_.request_shed(request, now);
          }
        } else {
          // A self-move would empty the request: only compact across a gap.
          if (kept != i) {
            batch.requests[kept] = std::move(request);
          }
          ++kept;
        }
      }
      batch.requests.resize(kept);
    }
    if (batch.requests.empty()) {
      // Every request shed: nothing left to serve degraded.
      ReleaseSlot(batch_slot);
      if (hooks_.tuning_aborted) {
        hooks_.tuning_aborted(key, now);
      }
      Dispatch(now);
      return;
    }
    batch.degraded = true;
    if (Observing(config_)) {
      SpanRecord span;
      span.kind = SpanKind::kFaultDegraded;
      span.start_us = now;
      span.end_us = now;
      span.id = key;
      span.arg = batch.requests.size();
      span.replica = replica_id_;
      config_.obs->Emit(span);
    }
    ready_.push_back(batch_slot);
  } else {
    ++report_.tuner_retries;
    batch.not_before_us = now + RetryBackoffUs(faults_, key, batch.tune_retries);
    // Plain park (merging into a same-key waiter would lose the retry
    // state); the kick re-runs Dispatch at expiry.
    tune_wait_.push_back(batch_slot);
    EventRecord kick;
    kick.type = EventType::kRetryKick;
    kick.key = key;
    kick.handler = retry_handler_;
    kick.slot = batch_slot;
    kick.replica = replica_id_;
    events_->Push(batch.not_before_us, kick);
  }
  if (hooks_.tuning_aborted) {
    hooks_.tuning_aborted(key, now);
  }
  Dispatch(now);
}

size_t ServeSession::FailInFlightTuning() {
  size_t failed = 0;
  for (const uint32_t s : tuning_slots_) {
    Batch& batch = batch_pool_[s];
    if (!batch.cancelled && !batch.tune_failed) {
      batch.tune_failed = true;
      ++failed;
    }
  }
  return failed;
}

size_t ServeSession::ExtractPending(std::vector<KeyedRequest>* out) {
  FLO_CHECK(out != nullptr);
  size_t extracted = 0;
  auto evacuate = [&](uint32_t s, bool counted_pending) {
    Batch& batch = batch_pool_[s];
    for (ServeRequest& request : batch.requests) {
      out->emplace_back(std::move(request), batch.key);
      ++extracted;
      if (counted_pending) {
        FLO_CHECK_GT(pending_requests_, 0u);
        --pending_requests_;
      }
    }
    batch.requests.clear();
  };
  // Executor: the batch keeps running as a cancelled no-op (its service
  // time already elapsed on this replica's clock); its requests restart
  // elsewhere. ExecuteBatch already took them out of pending_requests_.
  if (executing_slot_ >= 0) {
    Batch& batch = batch_pool_[static_cast<uint32_t>(executing_slot_)];
    batch.cancelled = true;
    evacuate(static_cast<uint32_t>(executing_slot_), /*counted_pending=*/false);
  }
  // Ready and parked batches: their slots free immediately.
  for (const uint32_t s : ready_) {
    evacuate(s, /*counted_pending=*/true);
    ReleaseSlot(s);
  }
  ready_.clear();
  for (const uint32_t s : tune_wait_) {
    evacuate(s, /*counted_pending=*/true);
    ReleaseSlot(s);
  }
  tune_wait_.clear();
  // Tuning slots: the search is cancelled but the finish event still
  // holds the slot — it releases when the stale event fires.
  for (const uint32_t s : tuning_slots_) {
    Batch& batch = batch_pool_[s];
    if (batch.cancelled) {
      continue;  // already evacuated by an earlier crash
    }
    tuning_requests_ -= batch.requests.size();
    SetTuningKey(batch.key, false);
    batch.cancelled = true;
    evacuate(s, /*counted_pending=*/true);
  }
  // Admission queue last: lane order, FIFO within a lane.
  return extracted + ExtractQueued(out);
}

size_t ServeSession::ExtractQueued(std::vector<KeyedRequest>* out) {
  FLO_CHECK(out != nullptr);
  const size_t drained = queue_.DrainInto(out);
  FLO_CHECK_GE(pending_requests_, drained);
  pending_requests_ -= drained;
  LoadChanged();
  return drained;
}

void ServeSession::StartTuning(uint32_t batch_slot, SimTime now) {
  ++tuners_busy_;
  SetTuningKey(batch_pool_[batch_slot].key, true);
  // Build and cache the plan now; its cost lands on the tuning lane, so
  // the executor keeps serving warm batches meanwhile.
  const size_t searches_before = engine_->tuner().search_count();
  engine_->planner().Plan(batch_pool_[batch_slot].requests.front().spec,
                          batch_pool_[batch_slot].key, nullptr);
  const size_t searches = std::max(engine_->tuner().search_count() - searches_before,
                                   batch_pool_[batch_slot].charged_searches);
  FinishTuningAt(batch_slot, TuneCostUs(searches), searches, now);
}

void ServeSession::ExecuteBatch(uint32_t batch_slot, SimTime now) {
  Batch& batch = batch_pool_[batch_slot];
  if (sched_ != nullptr) {
    EndReservation(now);  // the executor is running again
  }
  executor_free_ = false;
  executing_slot_ = batch_slot;
  ++report_.batches;
  pending_requests_ -= batch.requests.size();
  // Hit/miss is a property of the batch's plan at dispatch time: if the
  // plan was cold, every request of the batch waited on it — including
  // the ones whose Execute hits the entry the first request just built.
  const size_t searches_before = engine_->tuner().search_count();
  // A degraded batch (tuner retry budget exhausted) runs the search-free
  // single-group safety plan: forced partition, no extra tiles — slower,
  // but it needs no tuning. The forced spec has its own canonical
  // fingerprint, so the memo and plan store never confuse it with the
  // real plan; it is the only batch whose spec is copied here.
  const ScenarioSpec& batch_spec = batch.requests.front().spec;
  std::optional<ScenarioSpec> safety_spec;
  if (batch.degraded) {
    safety_spec = batch_spec;
    safety_spec->extra_tiles = 0;
    safety_spec->forced_partition = WavePartition::SingleGroup(1);
  }
  const ScenarioSpec& spec = batch.degraded ? *safety_spec : batch_spec;
  // The degraded run looks up the safety key, so whether the batch's own
  // plan was warm needs its own peek. Every other batch runs under
  // batch.key, and the run's lookup below answers exactly that on this
  // thread with nothing in between.
  const bool degraded_warm =
      batch.degraded && !batch.tuned && engine_->plan_store().Contains(batch.key);
  // One canonical key means one spec, one seed, one deterministic
  // schedule: simulate once and charge the service per request. Fleet
  // runs replay the same spec thousands of times, so the deterministic
  // replay itself is memoized in the engine's run memo (a fleet's replicas
  // share one); the store lookup still happens per call.
  // The batch key is the spec's key, except for the degraded safety spec.
  const OverlapEngine::RunTiming run = engine_->ExecuteMemoizedTiming(
      spec, batch.degraded ? engine_->planner().CanonicalKey(spec) : batch.key);
  const bool hit = (batch.degraded ? degraded_warm : !batch.tuned) && run.plan_cache_hit;
  double service_us = run.total_us * static_cast<double>(batch.requests.size());
  const bool cold = !hit;
  if (cold) {
    ++report_.cold_batches;
  }
  // A plan-cache miss inside Execute means the plan was rebuilt inline
  // on the executor's critical path (evicted after tuning/dispatch):
  // charge the plan-build base plus any searches the tuner's own cache no
  // longer covered.
  const size_t inline_searches = engine_->tuner().search_count() - searches_before;
  if (!run.plan_cache_hit) {
    service_us += TuneCostUs(inline_searches);
  }
  if (cost_multiplier_ != 1.0) {
    service_us *= cost_multiplier_;  // straggler injection (src/fault)
  }
  if (sched_ != nullptr) {
    // Fair share charges served predicted-cost per request at dispatch,
    // on the shared fleet-wide scheduler.
    for (const ServeRequest& request : batch.requests) {
      sched_->Charge(request.tenant_id, run.total_us, now);
    }
  }
  report_.executor_busy_us += service_us;
  const SimTime finish = now + service_us;
  busy_until_ = finish;
  LoadChanged();
  batch.exec_start = now;
  batch.exec_hit = hit;
  if (Observing(config_)) {
    // Plan-store outcome at dispatch time, as an instant on this replica.
    SpanRecord span;
    span.kind = hit ? SpanKind::kPlanHit : SpanKind::kPlanMiss;
    span.start_us = now;
    span.end_us = now;
    span.id = batch.key;
    span.arg = batch.requests.size();
    span.replica = replica_id_;
    span.flags = hit ? 1 : 0;
    config_.obs->Emit(span);
  }
  EventRecord record;
  record.type = EventType::kBatchFinished;
  record.key = batch.key;
  record.handler = finish_handler_;
  record.slot = batch_slot;
  record.replica = replica_id_;
  events_->Push(finish, record);
}

void ServeSession::OnBatchFinished(const EventRecord& record, SimTime now) {
  const uint32_t batch_slot = record.slot;
  Batch& batch = batch_pool_[batch_slot];
  executing_slot_ = -1;
  if (batch.cancelled) {
    // The replica crashed mid-batch: its requests were evacuated and will
    // complete elsewhere. No stats, no spans, no hooks — just free the
    // lane.
    ReleaseSlot(batch_slot);
    executor_free_ = true;
    Dispatch(now);
    return;
  }
  const SimTime start = batch.exec_start;
  const SimTime finish = now;
  const bool hit = batch.exec_hit;
  const int batch_size = static_cast<int>(batch.requests.size());
  if (Observing(config_)) {
    ObsPlane& obs = *config_.obs;
    SpanRecord span;
    span.replica = replica_id_;
    span.flags = hit ? 1 : 0;
    span.kind = SpanKind::kExecute;
    span.start_us = start;
    span.end_us = finish;
    span.id = batch.key;
    span.arg = batch.requests.size();
    obs.Emit(span);
    // Per-request lifecycle spans: the request's full arrival->completion
    // interval, then its queueing prefix (same id, so the trace viewer
    // nests queue inside request).
    span.arg = static_cast<uint64_t>(batch_size);
    for (const ServeRequest& request : batch.requests) {
      span.id = static_cast<uint64_t>(request.id);
      span.tenant = request.tenant_id;
      span.kind = SpanKind::kRequest;
      span.start_us = request.arrival_us;
      span.end_us = finish;
      obs.Emit(span);
      span.kind = SpanKind::kQueue;
      span.end_us = start;
      obs.Emit(span);
    }
  }
  finished_scratch_.clear();
  for (ServeRequest& request : batch.requests) {
    if (sched_ != nullptr) {
      // Completed-latency feed for the SLO shed decision.
      sched_->ObserveLatency(request.tenant_id, finish - request.arrival_us);
    }
    RequestRecord finished;
    finished.id = request.id;
    finished.tenant = std::move(request.tenant);
    finished.tenant_id = request.tenant_id;
    finished.arrival_us = request.arrival_us;
    finished.start_us = start;
    finished.finish_us = finish;
    finished.plan_cache_hit = hit;
    finished.batch_size = batch_size;
    finished.retries = request.retries;
    finished.degraded = batch.degraded;
    if (hooks_.request_finished) {
      finished_scratch_.push_back(finished);
    }
    report_.stats.Record(std::move(finished));
  }
  if (batch.degraded) {
    report_.degraded_requests += batch.requests.size();
  }
  report_.makespan_us = std::max(report_.makespan_us, finish);
  ReleaseSlot(batch_slot);
  executor_free_ = true;
  Dispatch(now);
  // finished_scratch_ is only written above; Dispatch and the hooks never
  // touch it (OnBatchFinished cannot re-enter — one executor event in
  // flight at a time).
  for (const RequestRecord& finished : finished_scratch_) {
    hooks_.request_finished(finished, now);
  }
}

bool ServeSession::AcquireTuning(uint64_t key, std::set<uint64_t>* vetoed) {
  if (!hooks_.acquire_tuning || hooks_.acquire_tuning(key)) {
    return true;
  }
  vetoed->insert(key);
  return false;
}

void ServeSession::Dispatch(SimTime now) {
  if (stalled_) {
    return;  // crashed or hung replica: nothing starts until restored
  }
  sched_now_ = now;  // the lane picker's clock for this round
  // Release batches whose key went warm (an earlier same-key batch
  // finished tuning, or a peer shipped the plan into the store) from the
  // waiting room first — even while the lane is busy with another key, or
  // they would strand behind it with the executor idle.
  for (size_t i = 0; i < tune_wait_.size();) {
    const uint32_t s = tune_wait_[i];
    if (IsWarm(batch_pool_[s].key)) {
      tune_wait_.erase(tune_wait_.begin() + static_cast<Lane::difference_type>(i));
      MergeOrPark(&ready_, s);
    } else {
      ++i;
    }
  }
  // Feed idle tuning lanes: gather distinct-key cold batches — from the
  // waiting room first, then straight from the queue (a cold batch at
  // the rotation head must start tuning even while the executor is busy
  // with a warm batch; that concurrency is the point of the side lane).
  // The whole round is gathered before any batch starts: a start builds a
  // plan, and under a bounded store that build can evict the plan of the
  // next queue head before IsWarm looks at it, which would change the
  // round's picks.
  const int tuner_lanes = std::max(1, config_.tuner_lanes);
  std::vector<uint32_t> starting;
  // Keys the fleet vetoed this round (a peer owns the in-flight search);
  // their batches park until the shipped plan turns the key warm.
  std::set<uint64_t> vetoed;
  auto key_busy = [&](uint64_t key) {
    if (tuning_keys_.count(key) != 0) {
      return true;
    }
    for (const uint32_t s : starting) {
      if (batch_pool_[s].key == key) {
        return true;
      }
    }
    return false;
  };
  // The queue head this loop last found warm. If no tune starts this
  // round, the executor stage's first pass reuses the answer when it pops
  // that key: nothing before it executes or changes tuning_keys_, so the
  // store still holds the plan.
  std::optional<uint64_t> warm_head;
  while (tuners_busy_ + static_cast<int>(starting.size()) < tuner_lanes) {
    bool picked = false;
    for (size_t i = 0; i < tune_wait_.size(); ++i) {
      const uint64_t key = batch_pool_[tune_wait_[i]].key;
      if (batch_pool_[tune_wait_[i]].not_before_us > now) {
        continue;  // retry backoff still running (src/fault)
      }
      if (!key_busy(key) && vetoed.count(key) == 0 && AcquireTuning(key, &vetoed)) {
        starting.push_back(tune_wait_[i]);
        tune_wait_.erase(tune_wait_.begin() + static_cast<Lane::difference_type>(i));
        picked = true;
        break;
      }
    }
    if (picked) {
      continue;
    }
    if (!queue_.empty()) {
      const uint64_t head = queue_.PeekKey();
      if (IsWarm(head)) {
        warm_head = head;
        break;
      }
      if (key_busy(head) || vetoed.count(head) != 0) {
        break;
      }
      const bool acquired = AcquireTuning(head, &vetoed);
      const uint32_t s = AcquireSlot();
      PopQueueBatch(s);
      batch_pool_[s].tuned = true;
      if (acquired) {
        starting.push_back(s);
      } else {
        // Vetoed head: move it off the queue so warm work behind it keeps
        // flowing; it waits for the peer's plan like any parked cold batch.
        MergeOrPark(&tune_wait_, s);
      }
      continue;
    }
    break;
  }
  // Peak lanes put to use, for ServeReport.
  report_.tuner_lanes =
      std::max(report_.tuner_lanes, tuners_busy_ + static_cast<int>(starting.size()));
  if (!starting.empty()) {
    warm_head.reset();
  }
  for (const uint32_t s : starting) {
    StartTuning(s, now);
  }
  // The executor stage: one unit per pass until the executor is busy or
  // nothing can run. Only the pick depends on the scheduler.
  while (executor_free_) {
    Unit unit = Unit::kNone;
    size_t index = 0;
    if (sched_ == nullptr) {
      if (!ready_.empty()) {
        unit = Unit::kReady;
      } else if (!queue_.empty()) {
        unit = Unit::kQueue;
      }
    } else {
      unit = SchedPick(now, &index);
    }
    if (unit == Unit::kNone) {
      return;
    }
    if (unit == Unit::kBlocked) {
      BackfillOrReserve(tuning_slots_[index], now);
      return;
    }
    // Only this pass may reuse the loop's answer: it executes or starts a
    // tune before the next pass.
    const std::optional<uint64_t> known_warm = std::exchange(warm_head, std::nullopt);
    uint32_t s;
    if (unit == Unit::kReady) {
      s = ready_[index];
      ready_.erase(ready_.begin() + static_cast<Lane::difference_type>(index));
    } else {
      s = AcquireSlot();
      const uint64_t key = PopQueueBatch(s);
      if (known_warm != key && !IsWarm(key)) {
        batch_pool_[s].tuned = true;  // it will wait on the cold-plan path
        if (tuners_busy_ < tuner_lanes && tuning_keys_.count(key) == 0 &&
            vetoed.count(key) == 0 && AcquireTuning(key, &vetoed)) {
          StartTuning(s, now);
        } else {
          MergeOrPark(&tune_wait_, s);
        }
        continue;  // pick again: a warm batch may be waiting behind the cold one
      }
    }
    ExecuteBatch(s, now);
  }
}

// The scheduler's pick. Candidate units, each carrying a priority key:
//   ready batches        — can run immediately;
//   the queue's preview  — what the next pop would form (warm or cold);
//   tuning-lane batches  — blocked until their tune's ETA.
// The highest-priority unit wins (ties: ready, then queue, then tuning,
// then scan order — all deterministic).
ServeSession::Unit ServeSession::SchedPick(SimTime now, size_t* index) const {
  Unit best = Unit::kNone;
  FleetScheduler::Priority best_priority;
  auto offer = [&](Unit unit, size_t i, const FleetScheduler::Priority& priority) {
    if (best == Unit::kNone || FleetScheduler::Before(priority, best_priority)) {
      best = unit;
      *index = i;
      best_priority = priority;
    }
  };
  for (size_t i = 0; i < ready_.size(); ++i) {
    const Batch& batch = batch_pool_[ready_[i]];
    offer(Unit::kReady, i, sched_->KeyFor(batch.tenant_id, batch.oldest_arrival_us, now));
  }
  if (!queue_.empty()) {
    const RequestQueue::BatchPreview preview = queue_.PreviewBatch(config_.max_batch);
    offer(Unit::kQueue, 0, sched_->KeyFor(preview.tenant_id, preview.oldest_arrival_us, now));
  }
  for (size_t i = 0; i < tuning_slots_.size(); ++i) {
    const Batch& batch = batch_pool_[tuning_slots_[i]];
    if (batch.cancelled || batch.tune_failed) {
      continue;  // will never reach ready
    }
    offer(Unit::kBlocked, i, sched_->KeyFor(batch.tenant_id, batch.oldest_arrival_us, now));
  }
  return best;
}

// The head of the line is blocked on tuning: backfill its window or hold
// the executor for it. A candidate fits only against the earliest ETA
// among tuning batches that outrank it (predicted service x slack), so no
// tuned batch — this one or a later-finishing higher-priority one — is
// ever delayed by the backfill.
void ServeSession::BackfillOrReserve(uint32_t blocked_slot, SimTime now) {
  auto window_for = [&](const FleetScheduler::Priority& candidate) {
    double window = std::numeric_limits<double>::infinity();
    for (const uint32_t s : tuning_slots_) {
      const Batch& tuning = batch_pool_[s];
      if (tuning.cancelled || tuning.tune_failed) {
        continue;
      }
      const FleetScheduler::Priority priority =
          sched_->KeyFor(tuning.tenant_id, tuning.oldest_arrival_us, now);
      if (FleetScheduler::Before(priority, candidate) && tuning.tune_eta_us - now < window) {
        window = tuning.tune_eta_us - now;
      }
    }
    return window;
  };
  // The filler: a ready_ position, or a queue lane's tenant.
  bool found = false;
  std::optional<size_t> fill_ready;
  uint32_t fill_tenant = 0;
  FleetScheduler::Priority fill_priority;
  if (sched_->config().backfill) {
    for (size_t i = 0; i < ready_.size(); ++i) {
      const Batch& batch = batch_pool_[ready_[i]];
      const FleetScheduler::Priority priority =
          sched_->KeyFor(batch.tenant_id, batch.oldest_arrival_us, now);
      if (sched_->BackfillFits(PredictedServiceUs(batch), window_for(priority)) &&
          (!found || FleetScheduler::Before(priority, fill_priority))) {
        found = true;
        fill_ready = i;
        fill_priority = priority;
      }
    }
    // Every lane's head batch is a filler candidate, not just the
    // ranked pick's: the top lane is often the blocked tenant's own
    // (cold, unpoppable), while warm work waits in lanes it outranks.
    queue_.PreviewLanes(config_.max_batch, &lane_previews_);
    for (const RequestQueue::BatchPreview& lane : lane_previews_) {
      if (lane.size == 0 || IsTuningKey(lane.key)) {
        continue;
      }
      // With the tuning check above, a non-null peek is IsWarm, and it
      // carries the predicted latency.
      const PlanStore::Handle plan = engine_->plan_store().Peek(lane.key);
      if (plan == nullptr) {
        continue;
      }
      const FleetScheduler::Priority priority =
          sched_->KeyFor(lane.tenant_id, lane.oldest_arrival_us, now);
      if (sched_->BackfillFits(plan->predicted_us * static_cast<double>(lane.size) *
                                   cost_multiplier_,
                               window_for(priority)) &&
          (!found || FleetScheduler::Before(priority, fill_priority))) {
        found = true;
        fill_ready.reset();
        fill_tenant = lane.tenant_id;
        fill_priority = priority;
      }
    }
  }
  if (!found) {
    BeginReservation(batch_pool_[blocked_slot].key, now);
    return;
  }
  uint32_t s;
  if (fill_ready.has_value()) {
    s = ready_[*fill_ready];
    ready_.erase(ready_.begin() + static_cast<Lane::difference_type>(*fill_ready));
  } else {
    s = AcquireSlot();
    PopQueueBatch(s, fill_tenant);  // exactly the previewed lane batch
  }
  batch_pool_[s].backfilled = true;
  ++report_.backfills;
  if (Observing(config_)) {
    SpanRecord span;
    span.kind = SpanKind::kSchedBackfill;
    span.start_us = now;
    span.end_us = now;
    span.id = batch_pool_[s].key;
    span.arg = batch_pool_[s].requests.size();
    span.tenant = batch_pool_[s].tenant_id;
    span.replica = replica_id_;
    config_.obs->Emit(span);
  }
  ExecuteBatch(s, now);
}

void ServeSession::BeginReservation(uint64_t key, SimTime now) {
  if (reserving_) {
    return;  // already held (possibly for an earlier blocked head)
  }
  reserving_ = true;
  reserve_start_us_ = now;
  reserve_key_ = key;
  ++report_.sched_reserves;
}

void ServeSession::EndReservation(SimTime now) {
  if (!reserving_) {
    return;
  }
  reserving_ = false;
  report_.reserve_idle_us += now - reserve_start_us_;
  if (Observing(config_)) {
    SpanRecord span;
    span.kind = SpanKind::kSchedReserve;
    span.start_us = reserve_start_us_;
    span.end_us = now;
    span.id = reserve_key_;
    span.replica = replica_id_;
    config_.obs->Emit(span);
  }
}

}  // namespace flo
