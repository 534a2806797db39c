// The per-engine serving state machine, extracted from ServeLoop so an
// external scheduler can drive many of them on one shared event loop —
// the fleet of src/cluster/ runs one session per replica engine.
//
// A session owns one replica's serving state: the per-tenant admission
// queue, one executor lane, and the cold-tuning lanes. It is driven from
// outside: the owner pushes Admit calls (a router deciding placement) and
// the session schedules its own continuation events on the borrowed
// EventLoop — typed records dispatched to handlers the session registers
// at construction, not per-event closures. ServeLoop wraps exactly one
// session over a private loop — the single-replica special case.
//
// Hooks let a fleet coordinate across sessions without the session
// knowing about the fleet: acquire_tuning gates cold tunes (fleet-wide
// single-flight — a vetoed batch parks until its key turns warm, e.g.
// when a peer ships the plan into this session's store), tuning_finished
// announces a freshly cached plan (the publish point for plan shipping),
// request_finished streams completions (autoscaling signals).
#ifndef SRC_SERVE_SERVE_SESSION_H_
#define SRC_SERVE_SERVE_SESSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <vector>

#include "src/core/overlap_engine.h"
#include "src/fault/fault_config.h"
#include "src/serve/request_queue.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_loop.h"
#include "src/serve/serve_stats.h"
#include "src/sim/event_loop.h"

namespace flo {

class ServeSession {
 public:
  struct Hooks {
    // Called once before a cold batch's key starts tuning here. Return
    // false to veto (another replica owns the in-flight search); the batch
    // parks until the key turns warm in this session's store. Absent =
    // always granted.
    std::function<bool(uint64_t key)> acquire_tuning;
    // Called when a key's simulated tuning completes and its plan is
    // cached in the engine's store — the publish point for plan shipping.
    // `spec` is the scenario the batch was tuned for (the key's preimage,
    // so a shipper can also export the tuner-tier artifact).
    std::function<void(uint64_t key, const ScenarioSpec& spec, SimTime now)> tuning_finished;
    // Called for every request as its batch completes.
    std::function<void(const RequestRecord& record, SimTime now)> request_finished;
    // Called when an in-flight cold tune aborts (injected tuner-lane
    // fault): the plan was discarded and the key will retry with backoff
    // or degrade. A fleet releases its single-flight ownership here so a
    // peer may pick the search up.
    std::function<void(uint64_t key, SimTime now)> tuning_aborted;
    // Called for every request the scheduler sheds at the degraded-mode
    // boundary (SchedConfig::slo_shed): the request will never execute,
    // and the owner must count it as settled. Only fires with a fleet
    // scheduler attached.
    std::function<void(const ServeRequest& request, SimTime now)> request_shed;
    // Called whenever pending_requests() or busy_until() changes (admit,
    // batch dispatch, extraction, shed) with their new values — the feed
    // a fleet's placement table mirrors instead of polling every session
    // per arrival.
    std::function<void(size_t pending_requests, SimTime busy_until)> load_changed;
    // Called whenever IsTuningKey(key) flips: a tune starts, finishes,
    // aborts, or is cancelled by extraction.
    std::function<void(uint64_t key, bool tuning)> tuning_changed;
  };

  // The engine and event loop are borrowed and must outlive the session;
  // the session must outlive the drain of any events it scheduled (its
  // handlers live here). `replica_id` tags the session's event records
  // (-1 for standalone sessions).
  ServeSession(OverlapEngine* engine, ServeConfig config, EventLoop* events,
               Hooks hooks = {}, int replica_id = -1);

  // Admits one request and dispatches. `now` is the caller's simulated
  // time (the request's arrival as seen by this session). The request is
  // moved through to its queue lane.
  void Admit(ServeRequest&& request, SimTime now);
  // Keyed form: `key` must be the engine planner's CanonicalKey of the
  // request's spec. A fleet keys each request once, at placement, and
  // carries the key through batching and execution.
  void Admit(ServeRequest&& request, uint64_t key, SimTime now);

  // Re-evaluates every lane. Idempotent; owners call it after anything
  // that may unblock work (e.g. a peer shipped a plan into the store).
  void Dispatch(SimTime now);

  // No queued work, no tuning in flight, executor free. The session may
  // still receive Admit calls afterwards.
  bool idle() const;
  // Requests admitted but not yet dispatched to the executor. O(1): a
  // counter maintained by Admit/ExecuteBatch, not a lane scan.
  size_t pending_requests() const { return pending_requests_; }
  // Executor busy horizon (<= now when the lane is free).
  SimTime busy_until() const { return busy_until_; }
  bool IsTuningKey(uint64_t key) const { return tuning_keys_.count(key) != 0; }
  // Pending requests (queued, ready, or parked) batched around `key` —
  // the affinity signal for keys admitted but not yet tuning or warm.
  size_t PendingKeyCount(uint64_t key) const;

  OverlapEngine& engine() { return *engine_; }
  const ServeConfig& config() const { return config_; }
  const ServeReport& report() const { return report_; }
  // ServingCluster::Run moves the report out (its records included) into
  // the fleet report; only the counters stay readable here afterwards.
  ServeReport& report() { return report_; }

  // --- Fault-injection surface (src/fault) ---------------------------
  // A stalled session freezes its dispatch loop: admitted work queues but
  // nothing starts (crashed or hung replica). In-flight finish events
  // still fire; their batches are cancelled via ExtractPending first.
  void SetStalled(bool stalled) { stalled_ = stalled; }
  // Straggler injection: every executor service time is scaled by this
  // factor (1.0 = healthy). Applies to batches dispatched while set.
  void SetCostMultiplier(double multiplier) { cost_multiplier_ = multiplier; }
  // Recovery policy for injected tuner-lane faults: an aborted search
  // retries after RetryBackoffUs (keyed by the plan key) up to
  // tuner_retry_budget times, then degrades. A fleet passes its own
  // config before the run; the default is FaultConfig{}'s.
  void SetFaultConfig(const FaultConfig& faults) { faults_ = faults; }
  // Marks every in-flight cold tune failed: when its finish event fires
  // the plan is discarded and the key retries with backoff (or degrades
  // past the budget). Returns the number of searches failed.
  size_t FailInFlightTuning();
  // Evacuates every request that has not started executing — the
  // admission queue, ready and parked batches, and batches riding tuning
  // lanes (their searches are cancelled) — into *out for re-placement
  // elsewhere. Requests already on the executor are cancelled too: their
  // batch completes as a no-op and the requests ride out with the rest.
  // Each request is appended with its plan key, so the fleet re-places it
  // without re-keying. Returns the number extracted. Deterministic order:
  // executor batch, ready lane, tune-wait lane, tuning slots, then queue
  // lanes.
  size_t ExtractPending(std::vector<KeyedRequest>* out);

  // --- Fleet-scheduling surface (src/sched) --------------------------
  // Evacuates only the admission queue — requests never batched, tuned,
  // or dispatched — into *out (lane order, FIFO within a lane, each with
  // its plan key) for preemptive re-placement through the router.
  // Cheaper and safer than ExtractPending: in-flight tuning and ready
  // batches stay put.
  size_t ExtractQueued(std::vector<KeyedRequest>* out);

 private:
  struct Batch {
    std::vector<ServeRequest> requests;
    // The plan key the batch was formed around (from RequestQueue).
    uint64_t key = 0;
    // Routed through the cold-plan path: its requests waited on tuning.
    bool tuned = false;
    // Execution context, set by ExecuteBatch for the finish event.
    SimTime exec_start = 0.0;
    bool exec_hit = false;
    // Fault-recovery state (src/fault). A cancelled batch's requests were
    // evacuated (replica crash); its pending finish event completes as a
    // no-op and releases the slot. tune_failed marks an in-flight search
    // an injected fault aborted; tune_retries counts the re-attempts.
    // not_before_us keeps a retrying batch off the tuning lanes until its
    // backoff expires. degraded routes execution to the single-group
    // safety plan. charged_searches remembers the simulated search charge
    // so a retry (tuner cache now warm) re-pays the original cost.
    bool cancelled = false;
    bool degraded = false;
    bool tune_failed = false;
    int tune_retries = 0;
    SimTime not_before_us = 0.0;
    size_t charged_searches = 0;
    // Fleet-scheduling metadata (src/sched), set at pop time: the
    // tenant and oldest arrival behind the batch's priority key, the
    // in-flight tune's expected completion (the backfill window), and
    // whether the batch was slotted into another batch's tuning window
    // (the head-delay audit flags it if it overruns).
    uint32_t tenant_id = 0;
    SimTime oldest_arrival_us = 0.0;
    SimTime tune_eta_us = 0.0;
    bool backfilled = false;
  };
  // Lanes hold slots into the batch pool: batches (and their request
  // vectors) are recycled instead of allocated per dispatch.
  using Lane = std::deque<uint32_t>;

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);

  // Pops a queue batch into `batch_slot`, recording the priority metadata
  // (tenant, oldest arrival) every pop site needs. `lane_tenant` 0 pops
  // the queue's next batch (rotation, or the scheduler's lane pick); a
  // tenant id pops the batch formed around that tenant's lane head (the
  // backfill scan commits to a previewed lane that may not be the pick).
  uint64_t PopQueueBatch(uint32_t batch_slot, uint32_t lane_tenant = 0);
  // Predicted executor service time for a warm batch, from the stored
  // plan's estimate (no store stats, no LRU touch); +inf when the plan
  // is missing or the batch is degraded — i.e. never backfillable.
  double PredictedServiceUs(const Batch& batch) const;
  // The fleet's single-flight gate for a cold key's tune. A veto is
  // remembered in *vetoed for the rest of the dispatch round.
  bool AcquireTuning(uint64_t key, std::set<uint64_t>* vetoed);
  // The executor stage picks one unit per pass: a ready batch, the
  // queue's next batch, or a batch blocked on tuning. With no scheduler
  // the pick is FIFO (the oldest ready batch, else the rotation head,
  // never a blocked one); SchedPick ranks all three by priority.
  enum class Unit { kNone, kReady, kQueue, kBlocked };
  // `*index` is the winner's position in ready_ or tuning_slots_.
  Unit SchedPick(SimTime now, size_t* index) const;
  // A blocked head's turn: backfill its tuning window with the best
  // lower-priority warm batch that provably fits, or hold the executor
  // reserved for it.
  void BackfillOrReserve(uint32_t blocked_slot, SimTime now);
  void BeginReservation(uint64_t key, SimTime now);
  void EndReservation(SimTime now);

  bool IsWarm(uint64_t key) const;
  // SetTuningKey is the only writer of tuning_keys_ and fires
  // tuning_changed on a flip; LoadChanged fires load_changed and follows
  // every write of pending_requests_ or busy_until_.
  void SetTuningKey(uint64_t key, bool tuning);
  void LoadChanged();
  void MergeOrPark(Lane* lane, uint32_t batch_slot);
  double TuneCostUs(size_t searches) const;
  void FinishTuningAt(uint32_t batch_slot, double cost, size_t searches, SimTime now);
  void StartTuning(uint32_t batch_slot, SimTime now);
  void ExecuteBatch(uint32_t batch_slot, SimTime now);
  // Typed-event handlers (EventType::kTuningFinished / kBatchFinished /
  // kRetryKick — the latter just re-runs Dispatch when a retrying
  // batch's backoff expires).
  void OnTuningFinished(const EventRecord& record, SimTime now);
  void OnBatchFinished(const EventRecord& record, SimTime now);
  // OnTuningFinished tail for a tune_failed slot: discard the plan,
  // requeue the batch with deterministic backoff, or degrade it past the
  // retry budget.
  void AbortTuning(uint32_t batch_slot, uint64_t key, SimTime now);

  OverlapEngine* engine_;
  ServeConfig config_;
  EventLoop* events_;
  Hooks hooks_;
  int replica_id_;
  uint32_t tuning_handler_ = 0;
  uint32_t finish_handler_ = 0;
  uint32_t retry_handler_ = 0;

  RequestQueue queue_;
  Lane ready_;      // tuned batches awaiting the executor
  Lane tune_wait_;  // cold batches awaiting a tuning lane
  std::vector<Batch> batch_pool_;
  std::vector<uint32_t> free_slots_;
  // Keys whose plan is in the store but whose simulated tuning has not
  // completed yet: they must not be treated as warm, or later same-key
  // batches would execute before the tuning that produced their plan.
  std::set<uint64_t> tuning_keys_;
  // Requests riding batches currently on a tuning lane (the batches live
  // in their finish events' slots, not in a lane) — still pending work.
  size_t tuning_requests_ = 0;
  size_t pending_requests_ = 0;
  bool executor_free_ = true;
  int tuners_busy_ = 0;
  SimTime busy_until_ = 0.0;
  // Slots riding tuning lanes right now (their finish events are in
  // flight) — the set FailInFlightTuning and ExtractPending walk.
  std::vector<uint32_t> tuning_slots_;
  // Slot on the executor (-1 = free), so a crash can cancel it.
  int64_t executing_slot_ = -1;
  bool stalled_ = false;
  double cost_multiplier_ = 1.0;
  FaultConfig faults_;
  // Fleet scheduler (src/sched): non-null only when ServeConfig::sched
  // is set AND enabled, so every sched branch is one pointer test and a
  // null scheduler leaves the executor's pick FIFO.
  FleetScheduler* sched_ = nullptr;
  // The dispatch round's sim time, visible to the queue's lane picker
  // (the queue itself is clockless).
  SimTime sched_now_ = 0.0;
  // Executor-reservation state: while the highest-priority batch is
  // blocked on tuning and nothing fits its window, the executor idles
  // "reserved"; the span and idle total are settled when it next runs.
  bool reserving_ = false;
  SimTime reserve_start_us_ = 0.0;
  uint64_t reserve_key_ = 0;
  // Scratch for OnBatchFinished's hook fan-out; reused across events.
  std::vector<RequestRecord> finished_scratch_;
  // Scratch for the backfill scan's per-lane previews; reused across
  // dispatches.
  std::vector<RequestQueue::BatchPreview> lane_previews_;
  ServeReport report_;
};

}  // namespace flo

#endif  // SRC_SERVE_SERVE_SESSION_H_
