// Request placement for the serving fleet: which replica gets the next
// request.
//
// The router sees replicas through a per-replica view of load and plan
// warmth — a vector of snapshots, or the fleet's event-maintained
// ReplicaTable — and is deterministic: identical views produce identical
// placements, with the first (lowest-id) replica breaking every tie. One
// tiered implementation serves both views. Three policies:
//  - round-robin: rotate over accepting replicas, load-blind;
//  - least-loaded: minimize backlog cost — the executor's remaining busy
//    time plus queue depth x predicted per-request cost;
//  - plan-affinity: send a request to a replica whose PlanStore already
//    holds its plan key warm (least-loaded among the warm ones), else to
//    one already tuning the key (the request coalesces into the tuning
//    window instead of re-paying the search), else to one with same-key
//    requests still pending (the key's future home), else fall back to
//    least-loaded — the cluster-scheduler locality heuristic with plan
//    warmth as the locality signal.
#ifndef SRC_CLUSTER_FLEET_ROUTER_H_
#define SRC_CLUSTER_FLEET_ROUTER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/event_record.h"

namespace flo {

class ReplicaTable;

enum class PlacementPolicy {
  kRoundRobin,
  kLeastLoaded,
  kPlanAffinity,
};

const char* PlacementPolicyName(PlacementPolicy policy);
// Inverse of PlacementPolicyName; std::nullopt for unknown names.
std::optional<PlacementPolicy> TryPlacementPolicyFromName(const std::string& name);

// What the router sees of one replica when placing a request with a given
// plan key.
struct ReplicaSnapshot {
  int id = 0;
  // Active and not draining: eligible for new placements.
  bool accepting = true;
  // Requests admitted but not yet dispatched to the executor.
  size_t queued_requests = 0;
  // Executor busy time remaining, in us (0 when the lane is free).
  double busy_us = 0.0;
  // Predicted cost of the queued backlog, in us (queue depth x estimated
  // per-request service time).
  double pending_cost_us = 0.0;
  // The replica's PlanStore holds the request's plan key warm.
  bool plan_warm = false;
  // The replica is tuning the request's plan key right now.
  bool plan_tuning = false;
  // The replica holds pending requests of the same key (admitted, but the
  // key is neither warm nor tuning yet): the key's future home.
  bool plan_pending = false;
};

class FleetRouter {
 public:
  explicit FleetRouter(PlacementPolicy policy) : policy_(policy) {}

  PlacementPolicy policy() const { return policy_; }

  // Picks an accepting replica; -1 when none accepts. Deterministic.
  // `avoid_id` (when >= 0) excludes one replica from every tier — the
  // preemptive-requeue path re-places work pulled off an overloaded
  // replica and must not hand it straight back.
  int Place(const std::vector<ReplicaSnapshot>& replicas, int avoid_id = -1);

  // The same policy over the fleet's ReplicaTable, for a request with plan
  // key `key` at `now`, pricing queued requests at `cost_estimate_us`
  // each. The pending tier is read lazily through `pending(id)`, which is
  // only called for accepting replicas once no accepting replica is warm
  // or tuning for the key. Picks equal what Place(vector) returns on
  // snapshots of the same state (tests/router_differential_test.cc).
  int Place(const ReplicaTable& table, uint64_t key, SimTime now, double cost_estimate_us,
            const std::function<bool(int id)>& pending, int avoid_id = -1);

  // Plan-affinity tiers, in preference order; kAny is plain least-loaded.
  enum class Tier { kWarm, kTuning, kPending, kAny };

 private:
  // The one policy implementation, over a bitmask view of either form:
  // per 64-slot word, the eligible slots (accepting, not avoided) ANDed
  // with a tier's bits, then a least-load scan over the set bits. The
  // table form first looks for the lowest-id candidate of zero load
  // (ReplicaTable::LowestZeroLoad, outside the pending tier), which
  // nothing can beat, and scans only when there is none.
  template <typename View>
  int PlaceTiered(const View& view);
  template <typename View>
  int PlaceRoundRobin(const View& view);
  // Least load among the view's candidates in `tier`; -1 if none.
  template <typename View>
  static int LeastLoaded(const View& view, Tier tier);

  PlacementPolicy policy_;
  // Round-robin rotation state: the id after which the scan resumes.
  int last_placed_id_ = -1;
};

}  // namespace flo

#endif  // SRC_CLUSTER_FLEET_ROUTER_H_
