#include "src/cluster/fleet_router.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/cluster/replica_table.h"

namespace flo {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "RoundRobin";
    case PlacementPolicy::kLeastLoaded:
      return "LeastLoaded";
    case PlacementPolicy::kPlanAffinity:
      return "PlanAffinity";
  }
  return "Unknown";
}

std::optional<PlacementPolicy> TryPlacementPolicyFromName(const std::string& name) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kPlanAffinity}) {
    if (name == PlacementPolicyName(policy)) {
      return policy;
    }
  }
  return std::nullopt;
}

namespace {

// The views PlaceTiered reads. Slot i is bit i % 64 of word i / 64: position
// i of the snapshot vector, or replica id i of the table. Candidates(w,
// tier) is word w's eligible slots — accepting, and not `avoid_id` — that
// are in `tier`.
class SnapshotView {
 public:
  SnapshotView(const std::vector<ReplicaSnapshot>& replicas, int avoid_id)
      : replicas_(replicas), avoid_id_(avoid_id) {}
  size_t words() const { return (replicas_.size() + 63) / 64; }
  int id(size_t i) const { return replicas_[i].id; }
  double load(size_t i) const { return replicas_[i].busy_us + replicas_[i].pending_cost_us; }
  // The differential oracle: scans every candidate.
  bool finds_zero_loads() const { return false; }
  int LowestZeroLoad(size_t, uint64_t) const { return -1; }  // never called
  uint64_t Candidates(size_t w, FleetRouter::Tier tier) const {
    uint64_t mask = 0;
    for (size_t i = w * 64; i < std::min(replicas_.size(), w * 64 + 64); ++i) {
      const ReplicaSnapshot& r = replicas_[i];
      mask |= r.accepting && r.id != avoid_id_ && InTier(r, tier) ? uint64_t{1} << (i % 64) : 0;
    }
    return mask;
  }

 private:
  static bool InTier(const ReplicaSnapshot& r, FleetRouter::Tier tier) {
    switch (tier) {
      case FleetRouter::Tier::kWarm:
        return r.plan_warm;
      case FleetRouter::Tier::kTuning:
        return r.plan_tuning;
      case FleetRouter::Tier::kPending:
        return r.plan_pending;
      case FleetRouter::Tier::kAny:
        break;
    }
    return true;
  }

  const std::vector<ReplicaSnapshot>& replicas_;
  int avoid_id_;
};

class TableView {
 public:
  TableView(const ReplicaTable& table, uint64_t key, SimTime now, double cost_estimate_us,
            const std::function<bool(int id)>& pending, int avoid_id)
      : table_(table),
        bits_(table.Bits(key)),
        now_(now),
        cost_estimate_us_(cost_estimate_us),
        pending_(pending),
        avoid_id_(avoid_id) {}
  size_t words() const { return table_.words(); }
  int id(size_t i) const { return static_cast<int>(i); }
  double load(size_t i) const { return table_.Load(id(i), now_, cost_estimate_us_); }
  // Load() is never negative under a non-negative cost estimate, so under
  // the scan's strict `<` no slot after a zero load can win. The table's
  // zero-load test is exact for a finite estimate (an infinite one prices
  // an empty queue at 0 x inf = NaN, not 0).
  bool finds_zero_loads() const {
    return cost_estimate_us_ >= 0.0 && std::isfinite(cost_estimate_us_);
  }
  int LowestZeroLoad(size_t w, uint64_t among) const {
    return table_.LowestZeroLoad(w, among, now_, cost_estimate_us_);
  }
  uint64_t Candidates(size_t w, FleetRouter::Tier tier) const {
    uint64_t eligible = table_.accepting_word(w);
    if (avoid_id_ >= 0 && static_cast<size_t>(avoid_id_) / 64 == w) {
      eligible &= ~(uint64_t{1} << (avoid_id_ % 64));
    }
    switch (tier) {
      case FleetRouter::Tier::kWarm:  // resident & ~tuning
        return bits_ != nullptr ? eligible & bits_->resident[w] & ~bits_->tuning[w] : 0;
      case FleetRouter::Tier::kTuning:
        return bits_ != nullptr ? eligible & bits_->tuning[w] : 0;
      case FleetRouter::Tier::kPending:
        return Pending(w, eligible);
      case FleetRouter::Tier::kAny:
        break;
    }
    return eligible;
  }

 private:
  // Pending is not in the table: probes the slots of `among` one by one.
  uint64_t Pending(size_t w, uint64_t among) const {
    uint64_t mask = 0;
    for (; among != 0; among &= among - 1) {
      if (pending_(id(w * 64 + static_cast<size_t>(std::countr_zero(among))))) {
        mask |= among & (~among + 1);  // the lowest set bit
      }
    }
    return mask;
  }

  const ReplicaTable& table_;
  const ReplicaTable::KeyBits* bits_;
  SimTime now_;
  double cost_estimate_us_;
  const std::function<bool(int id)>& pending_;
  int avoid_id_;
};

}  // namespace

template <typename View>
int FleetRouter::LeastLoaded(const View& view, Tier tier) {
  // When any candidate has zero load, the scan below would pick the
  // lowest-id one: find it with the table's branch-free zero-load test
  // instead of computing and comparing the loads of the (typically busy,
  // low-id) candidates before it. The pending tier keeps the plain scan,
  // so its lazy probe runs exactly once per eligible slot.
  if (tier != Tier::kPending && view.finds_zero_loads()) {
    for (size_t w = 0; w < view.words(); ++w) {
      const uint64_t in_tier = view.Candidates(w, tier);
      const int zero = in_tier != 0 ? view.LowestZeroLoad(w, in_tier) : -1;
      if (zero >= 0) {
        return view.id(w * 64 + static_cast<size_t>(zero));
      }
    }
  }
  int best = -1;
  double best_load = 0.0;
  for (size_t w = 0; w < view.words(); ++w) {
    // INVARIANT: `accepting` gates every affinity tier, including the
    // warm-plan winner — a draining, retired, or unhealthy replica must
    // never receive a placement, no matter how attractive its plan cache
    // looks (cluster_test pins this). Candidates are eligible slots only,
    // so the lazy pending probe never reaches a non-accepting one.
    for (uint64_t in_tier = view.Candidates(w, tier); in_tier != 0; in_tier &= in_tier - 1) {
      const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(in_tier));
      const double load = view.load(i);
      if (best == -1 || load < best_load) {
        best = view.id(i);
        best_load = load;
      }
    }
  }
  return best;
}

template <typename View>
int FleetRouter::PlaceRoundRobin(const View& view) {
  // Rotate by id so the cycle survives spawns and drains: the next
  // accepting id after the previous placement, wrapping to the lowest.
  int next = -1;
  int lowest = -1;
  for (size_t w = 0; w < view.words(); ++w) {
    for (uint64_t eligible = view.Candidates(w, Tier::kAny); eligible != 0;
         eligible &= eligible - 1) {
      const int id = view.id(w * 64 + static_cast<size_t>(std::countr_zero(eligible)));
      if (lowest == -1 || id < lowest) {
        lowest = id;
      }
      if (id > last_placed_id_ && (next == -1 || id < next)) {
        next = id;
      }
    }
  }
  return next != -1 ? next : lowest;
}

template <typename View>
int FleetRouter::PlaceTiered(const View& view) {
  int placed = -1;
  switch (policy_) {
    case PlacementPolicy::kRoundRobin:
      placed = PlaceRoundRobin(view);
      break;
    case PlacementPolicy::kLeastLoaded:
      placed = LeastLoaded(view, Tier::kAny);
      break;
    case PlacementPolicy::kPlanAffinity:
      for (const Tier tier : {Tier::kWarm, Tier::kTuning, Tier::kPending, Tier::kAny}) {
        placed = LeastLoaded(view, tier);
        if (placed != -1) {
          break;
        }
      }
      break;
  }
  if (placed != -1) {
    last_placed_id_ = placed;
  }
  return placed;
}

int FleetRouter::Place(const std::vector<ReplicaSnapshot>& replicas, int avoid_id) {
  return PlaceTiered(SnapshotView(replicas, avoid_id));
}

int FleetRouter::Place(const ReplicaTable& table, uint64_t key, SimTime now,
                       double cost_estimate_us, const std::function<bool(int id)>& pending,
                       int avoid_id) {
  return PlaceTiered(TableView(table, key, now, cost_estimate_us, pending, avoid_id));
}

}  // namespace flo
