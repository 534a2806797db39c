// The multi-replica serving cluster: N replica engines behind a
// FleetRouter, on one shared simulated clock.
//
// Layering (the fleet analogue of ScenarioSpec -> Planner -> Executor):
//   trace -> RequestCursor/ArrivalPump (streamed admission) -> FleetRouter
//   (placement over the event-maintained ReplicaTable) -> Replica
//   ServeSessions (per-tenant queues, executor + tuning lanes) -> shared
//   EventLoop (typed records, calendar queue)
// with two fleet-level services threaded through the session hooks:
//   - PlanShipper: fleet-wide single-flight of tuner searches and
//     publication of freshly tuned plans to every replica's PlanStore, so
//     the fleet pays each distinct scenario's search exactly once (and a
//     saved snapshot warm-starts the next process with zero searches);
//   - Autoscaler: spawns/drains replicas from queue depth and SLO
//     pressure at fixed sim-clock checkpoints, deterministically.
//
// Everything is deterministic: the same trace and config produce
// bit-identical reports, plans are bit-identical at any replica count,
// and replica counts only change the timeline.
#ifndef SRC_CLUSTER_SERVING_CLUSTER_H_
#define SRC_CLUSTER_SERVING_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/autoscaler.h"
#include "src/cluster/fleet_router.h"
#include "src/cluster/plan_shipping.h"
#include "src/cluster/replica.h"
#include "src/cluster/replica_table.h"
#include "src/cluster/spec_catalog.h"
#include "src/core/overlap_engine.h"
#include "src/fault/fault_config.h"
#include "src/fault/fault_schedule.h"
#include "src/sched/fleet_scheduler.h"
#include "src/sched/sched_config.h"
#include "src/serve/serve_loop.h"
#include "src/serve/serve_stats.h"
#include "src/sim/event_loop.h"

namespace flo {

class ArrivalPump;
class RequestCursor;

struct ClusterConfig {
  // Initial replica count (the autoscaler may move it within its bounds).
  int replicas = 2;
  PlacementPolicy policy = PlacementPolicy::kPlanAffinity;
  // Per-replica serving knobs (lanes, batching, tuning costs).
  ServeConfig serve;
  // Publish freshly tuned plans to every peer store and single-flight
  // searches fleet-wide. Off, every replica tunes its own copy of every
  // key it serves — the baseline plan-affinity routing competes against.
  bool ship_plans = true;
  // Per-replica PlanStore capacity (0 = unbounded).
  size_t store_capacity = 0;
  AutoscaleConfig autoscale;
  // Deterministic fault injection (src/fault): the seed expands into a
  // FaultSchedule at Run time. Disabled (the default) injects nothing
  // and leaves runs bit-identical to a fault-free build. An explicit
  // SetFaultSchedule overrides the generated one.
  FaultConfig faults;
  // Fleet scheduler (src/sched): fair-share lane ordering, latency-
  // predicted backfill, and preemptive requeue. Disabled (the default)
  // constructs no scheduler and leaves runs bit-identical to a pre-sched
  // build.
  SchedConfig sched;
};

struct ReplicaReport {
  int id = 0;
  SimTime spawned_us = 0.0;
  // -1 while the replica was still active at the end of the run.
  SimTime retired_us = -1.0;
  // Empty for replicas already retired before the run started.
  ServeReport serve;
  size_t tuner_searches = 0;
  size_t plans_resident = 0;
};

struct FleetReport {
  std::vector<ReplicaReport> replicas;
  // Fleet-wide request records, merged in replica-id order.
  ServeStats stats;
  SimTime makespan_us = 0.0;
  size_t total_searches = 0;
  // Distinct plan keys in the served trace: with plan shipping on,
  // total_searches <= distinct_keys (each scenario tuned once fleet-wide).
  size_t distinct_keys = 0;
  int peak_replicas = 0;
  size_t spawns = 0;
  size_t drains = 0;
  // Spawns decided by the predictive rate-estimate tier alone (counted
  // inside `spawns` too); 0 unless AutoscaleConfig::predictive.
  size_t prespawns = 0;
  PlanShipperStats shipping;
  // Events dispatched by the shared loop during this run (arrivals,
  // batch/tuning completions, autoscale checkpoints).
  uint64_t events = 0;
  // Fault injection and recovery for this run (enabled false when the
  // run injected nothing).
  FaultReport fault;
  // Fleet-scheduler outcomes for this run (enabled false when the
  // scheduler was off).
  SchedReport sched;

  // Fraction of requests whose plan was warm on their replica at batch
  // formation — the global warm-hit rate plan-affinity routing optimizes.
  double WarmHitRate() const { return stats.CacheHitRate(); }
  double ThroughputPerSec() const {
    return makespan_us > 0.0 ? static_cast<double>(stats.count()) / makespan_us * 1e6 : 0.0;
  }
};

class ServingCluster {
 public:
  explicit ServingCluster(ClusterSpec hardware, ClusterConfig config = {},
                          TunerConfig tuner_config = {}, EngineOptions options = {});
  // Detaches the replica stores' residency feeds: a store handle kept
  // past the fleet must not write into its freed placement table.
  ~ServingCluster();

  // Serves the trace to completion. Replica engines and stores persist
  // across calls (a second run of the same trace serves warm); the report
  // covers this run only.
  FleetReport Run(std::vector<ServeRequest> requests);

  // Streaming form: requests are pulled from the cursor as simulated time
  // advances, so fleet memory stays O(pending) instead of O(trace) — the
  // path million-request runs take. The vector overload wraps this.
  FleetReport Run(RequestCursor* cursor);

  // Warm-start / persistence over the PlanShipper's published set:
  // SavePlans writes the fleet snapshot; LoadPlans/ImportPlans publish a
  // snapshot into every replica store (returning the plan count), so the
  // next run performs zero searches for covered scenarios.
  bool SavePlans(const std::string& path) const;
  size_t LoadPlans(const std::string& path);
  size_t ImportPlans(const std::string& text);

  // The canonical plan key requests are routed by (replica-independent).
  uint64_t KeyFor(const ScenarioSpec& spec) const { return keyer_.CanonicalKey(spec); }

  // Pins an explicit fault schedule (scripted chaos, e.g. from
  // FaultSchedule::ParseCsv) for subsequent Runs, overriding the one
  // ClusterConfig::faults would generate. An empty schedule clears the
  // override.
  void SetFaultSchedule(FaultSchedule schedule);

  const PlanShipper& shipper() const { return shipper_; }
  const ClusterConfig& config() const { return config_; }
  // All replicas ever spawned, in id order (including retired ones).
  const std::vector<std::unique_ptr<Replica>>& replicas() const { return replicas_; }

 private:
  Replica* SpawnReplica(SimTime now);
  // nullptr for ids never spawned (a replica's id is its index).
  Replica* FindReplica(int id);
  ServeSession::Hooks HooksFor(Replica* replica);
  // Starts the replica's session for this run and resets its table slot.
  void StartSession(Replica* replica);
  // Mirrors the replica's lifecycle and health into its table slot; called
  // after every change to either.
  void SyncAccepting(const Replica& replica);
  // The router's pick for a request keyed `key` (-1 when none accepts).
  int Place(uint64_t key, SimTime now, int avoid_id = -1);
  // Keys an arrival once, through the catalog, and routes it; the key
  // rides with the request through admission, requeues and preemption.
  void PlaceRequest(ServeRequest&& request, SimTime now);
  // The routing tail of arrivals and requeue firings: admits the request
  // where the router places it, or, with nothing accepting, counts a
  // placement stall and parks it for the base backoff. `retry` marks a
  // requeue firing, counted as a retry (with its span) once admitted.
  void Route(ServeRequest&& request, uint64_t key, SimTime now, bool retry);
  void DispatchAll(SimTime now);
  void MaybeRetire(Replica* replica, SimTime now);
  void AutoscaleCheck(SimTime now);
  double CostEstimateUs() const;
  // Preemptive-requeue scan (src/sched): pulls not-yet-dispatched
  // requests off draining, straggling, or overloaded replicas and
  // re-places them through the router, then re-arms itself.
  void SchedCheck(SimTime now);

  // Fault plane (src/fault). OnFaultEvent is the single typed-event
  // target for kFaultInject / kRequeue / kHealthRestore / kHangDetect;
  // the helpers below implement each arm.
  void OnFaultEvent(const EventRecord& record, SimTime now);
  void ApplyFault(const FaultEvent& event, SimTime now);
  void OnRequeue(const EventRecord& record, SimTime now);
  void OnHealthRestore(const EventRecord& record, SimTime now);
  void OnHangDetect(const EventRecord& record, SimTime now);
  // Recovery shared by a crash and a missed hang deadline: requeues every
  // pending request off `replica` for re-placement after its
  // deterministic backoff, releases the searches it owned, and dispatches
  // every session.
  void Evacuate(Replica* replica, SimTime now);
  // Parks one request (with its plan key) in the requeue pool and
  // schedules its kRequeue.
  void PushRequeue(ServeRequest&& request, uint64_t key, SimTime at);

  ClusterSpec hardware_;
  ClusterConfig config_;
  TunerConfig tuner_config_;
  EngineOptions options_;

  // Replica-independent plan keyer: CanonicalKey covers scenario x
  // hardware x tuner config, so any identically configured planner agrees.
  Tuner keyer_tuner_;
  PlanStore keyer_store_;
  OverlapPlanner keyer_;
  // Keys arrivals and counts each run's distinct keys.
  SpecCatalog catalog_;

  FleetRouter router_;
  PlanShipper shipper_;
  EventLoop events_;
  // Constructed exactly when ClusterConfig::sched enables it; every
  // session then borrows it through ServeConfig::sched. Null = FIFO
  // dispatch.
  std::unique_ptr<FleetScheduler> scheduler_;
  // The fleet's arrival account, held (fresh each run) exactly when the
  // predictive autoscale tier is on; it samples the rate at each
  // checkpoint.
  std::optional<ArrivalRate> arrival_rate_;
  // Typed-event targets for autoscale checkpoints, fault-plane events,
  // and scheduler preempt scans (registered once).
  uint32_t autoscale_handler_ = 0;
  uint32_t fault_handler_ = 0;
  uint32_t sched_handler_ = 0;
  // The fleet's run memo, shared by every replica's engine: each key's
  // schedule is replayed once per fleet and every other replica's run of
  // it is a memo hit. Replicas meet OverlapEngine::UseSharedRunMemo's
  // contract: all are built from hardware_, tuner_config_ and options_,
  // and the event loop drives them all from one thread.
  std::shared_ptr<RunMemo> run_memo_ = std::make_shared<RunMemo>();
  // Indexed by replica id; never erased.
  std::vector<std::unique_ptr<Replica>> replicas_;
  // Placement state, one slot per entry of replicas_.
  ReplicaTable table_;

  // Per-run state (reset by Run).
  std::unique_ptr<Autoscaler> autoscaler_;
  // The run's arrival pump; the autoscaler's continuation condition reads
  // its admitted()/done() because a streamed trace has no known size.
  ArrivalPump* pump_ = nullptr;
  size_t total_requests_ = 0;
  size_t completed_requests_ = 0;
  double cost_sum_us_ = 0.0;
  size_t cost_samples_ = 0;
  // Latencies of requests finished since the last autoscale check.
  std::vector<double> recent_latencies_;
  // The previous non-empty SLO window's p99, carried forward into
  // checkpoints that completed nothing while work was pending: a fleet
  // stalled behind a straggler or a long cold tune must not read as calm.
  double last_window_p99_us_ = 0.0;
  int peak_replicas_ = 0;
  size_t spawns_ = 0;
  size_t drains_ = 0;
  size_t prespawns_ = 0;

  // Fault plane (per-run unless noted). The scripted override persists
  // across runs; active_schedule_ is rebuilt by Run.
  FaultSchedule schedule_override_;
  FaultSchedule active_schedule_;
  bool faults_active_ = false;
  FaultReport fault_report_;
  // Requests awaiting their kRequeue firing, with their plan keys, pooled
  // so the 24-byte event record can carry a slot index instead.
  std::vector<KeyedRequest> requeue_pool_;
  std::vector<uint32_t> requeue_free_;
  // Scratch for Evacuate's and SchedCheck's extractions; reused across
  // events.
  std::vector<KeyedRequest> evacuated_;
  // shipper_ stats are cumulative across runs; this run's ship_drops are
  // reported as a delta from the Run-start baseline.
  size_t ship_drops_baseline_ = 0;
  // Scheduler per-run counters (the per-replica counters live in each
  // session's ServeReport and are aggregated at report time).
  size_t sched_preempt_scans_ = 0;
  size_t sched_preempted_ = 0;
};

}  // namespace flo

#endif  // SRC_CLUSTER_SERVING_CLUSTER_H_
