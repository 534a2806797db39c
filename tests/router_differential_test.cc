// Differential tests for snapshot-free placement.
//
// The fleet places requests by reading an event-maintained ReplicaTable;
// the vector-of-snapshots form of FleetRouter::Place is the oracle. The
// first test applies seeded random mutations to a table and to an
// independent shadow of the same state (slots added across a bitset word
// boundary, accept/drain/health flips, busy and queue changes, resident,
// tuning and pending flips) and, after every mutation, checks that the
// table-form pick equals Place(vector) on snapshots built from the shadow,
// with random keys, clocks, cost estimates and avoid ids. Loads come from
// small value sets, so equal-load ties are common. The second test walks
// tables to 1,024 slots in an idle-heavy regime, a busy one (zero loads
// rare, equal non-zero loads spread across many bitset words) and a fine
// one (small non-zero loads among zero loads). The third pins the edges
// of the table form's zero-load search (a horizon exactly at the clock, a
// zero or infinite cost estimate, avoided and non-accepting zero slots, a
// zero slot only in the second word, and the pending tier's probe count).
// The fourth test wires one serving session and its plan store to a table
// slot through the feeds the cluster uses and checks, after every event,
// that the slot mirrors the session and store exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/fleet_router.h"
#include "src/cluster/replica_table.h"
#include "src/core/overlap_engine.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_session.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"

namespace flo {
namespace {

// The fleet state the table should hold, kept independently of it.
struct Shadow {
  std::vector<bool> accepting;
  std::vector<SimTime> busy_until;
  std::vector<size_t> queued;
  // Per key, per slot.
  std::map<uint64_t, std::vector<bool>> resident;
  std::map<uint64_t, std::vector<bool>> tuning;
  std::map<uint64_t, std::vector<bool>> pending;

  static bool Bit(const std::map<uint64_t, std::vector<bool>>& bits, uint64_t key, int id) {
    const auto it = bits.find(key);
    return it != bits.end() && it->second[static_cast<size_t>(id)];
  }
};

constexpr uint64_t kKeys[] = {0x11, 0x22, 0x33};
// Never written to the table: no bit row exists for it.
constexpr uint64_t kUnseenKey = 0x44;
constexpr int kMaxSlots = 70;

// How a walk draws loads. Idle-heavy: busy_until in {0, 100, 200, 300}
// and queued in {0, 1, 2}, so many slots are idle at the probe clocks
// (0, 125, 250). Busy: every executor runs past the last probe clock and
// every queue holds work, except for one load draw in 512. Fine:
// busy_until on a 12.5 us grid and queued in {0, 1}, so small non-zero
// loads sit among zero loads and a scan that stopped early on a small
// load would pick wrong.
enum class Regime { kIdleHeavy, kBusy, kFine };

void SetLoad(ReplicaTable* table, Shadow* shadow, Rng* rng, Regime regime, int id) {
  SimTime busy_until = 0.0;
  size_t queued = 0;
  if (regime == Regime::kIdleHeavy) {
    busy_until = 100.0 * static_cast<double>(rng->NextBelow(4));
    queued = rng->NextBelow(3);
  } else if (regime == Regime::kFine) {
    busy_until = 12.5 * static_cast<double>(rng->NextBelow(24));
    queued = rng->NextBelow(2);
  } else if (rng->NextBelow(512) != 0) {
    busy_until = 300.0 + 100.0 * static_cast<double>(rng->NextBelow(2));
    queued = 1 + rng->NextBelow(2);
  }
  table->SetLoad(id, busy_until, queued);
  shadow->busy_until[static_cast<size_t>(id)] = busy_until;
  shadow->queued[static_cast<size_t>(id)] = queued;
}

void AddSlot(ReplicaTable* table, Shadow* shadow, Rng* rng, Regime regime = Regime::kIdleHeavy) {
  const int id = table->AddSlot();
  ASSERT_EQ(static_cast<size_t>(id), shadow->accepting.size());
  const bool accepting = rng->NextBelow(4) != 0;
  table->SetAccepting(id, accepting);
  shadow->accepting.push_back(accepting);
  shadow->busy_until.push_back(0.0);
  shadow->queued.push_back(0);
  for (const uint64_t key : kKeys) {
    shadow->resident[key].push_back(false);
    shadow->tuning[key].push_back(false);
    shadow->pending[key].push_back(false);
  }
  if (regime != Regime::kIdleHeavy) {
    SetLoad(table, shadow, rng, regime, id);  // a loaded fleet's new replica takes work at once
  }
}

void Mutate(ReplicaTable* table, Shadow* shadow, Rng* rng, Regime regime = Regime::kIdleHeavy,
            int max_slots = kMaxSlots) {
  const int size = table->size();
  const int id = static_cast<int>(rng->NextBelow(static_cast<uint64_t>(size)));
  const uint64_t key = kKeys[rng->NextBelow(3)];
  switch (rng->NextBelow(8)) {
    case 0:
      if (size < max_slots) {
        AddSlot(table, shadow, rng, regime);
      }
      break;
    case 1: {  // spawn, drain, retire, or a health change
      const bool accepting = !shadow->accepting[static_cast<size_t>(id)];
      table->SetAccepting(id, accepting);
      shadow->accepting[static_cast<size_t>(id)] = accepting;
      break;
    }
    case 2:
    case 3:  // admit, dispatch, extract
      SetLoad(table, shadow, rng, regime, id);
      break;
    case 4: {  // store put, evict, erase
      const bool on = !shadow->resident[key][static_cast<size_t>(id)];
      table->SetResident(id, key, on);
      shadow->resident[key][static_cast<size_t>(id)] = on;
      break;
    }
    case 5: {  // tune start, finish, abort
      const bool on = !shadow->tuning[key][static_cast<size_t>(id)];
      table->SetTuning(id, key, on);
      shadow->tuning[key][static_cast<size_t>(id)] = on;
      break;
    }
    case 6: {  // same-key requests admitted or drained (probed, not stored)
      std::vector<bool>& pending = shadow->pending[key];
      pending[static_cast<size_t>(id)] = !pending[static_cast<size_t>(id)];
      break;
    }
    case 7:  // a fresh session on the slot
      table->ResetSession(id);
      shadow->busy_until[static_cast<size_t>(id)] = 0.0;
      shadow->queued[static_cast<size_t>(id)] = 0;
      for (const uint64_t k : kKeys) {
        shadow->tuning[k][static_cast<size_t>(id)] = false;
      }
      if (regime != Regime::kIdleHeavy) {
        SetLoad(table, shadow, rng, regime, id);
      }
      break;
  }
}

// Places one request with a random key, clock, cost estimate and avoid id
// through both router forms and asserts equal picks. Counts a tie when two
// eligible candidates share a load, and a busy pick when no eligible
// candidate has zero load.
void ExpectSamePick(const ReplicaTable& table, const Shadow& shadow, FleetRouter* by_table,
                    FleetRouter* by_vector, Rng* rng, int step, size_t* ties,
                    size_t* busy_picks = nullptr) {
  const uint64_t key = rng->NextBelow(5) == 0 ? kUnseenKey : kKeys[rng->NextBelow(3)];
  const SimTime now = 125.0 * static_cast<double>(rng->NextBelow(3));
  const double cost = rng->NextBelow(2) == 0 ? 50.0 : 100.0;
  const int avoid = rng->NextBelow(3) == 0 ? static_cast<int>(rng->NextBelow(table.size())) : -1;

  std::vector<ReplicaSnapshot> snapshots;
  size_t candidates = 0;
  std::map<double, int> loads;
  for (int id = 0; id < table.size(); ++id) {
    const size_t i = static_cast<size_t>(id);
    // The cluster's old snapshots skipped retired replicas; a
    // non-accepting slot may be present or absent to the same effect.
    if (!shadow.accepting[i] && rng->NextBelow(2) == 0) {
      continue;
    }
    ReplicaSnapshot snapshot;
    snapshot.id = id;
    snapshot.accepting = shadow.accepting[i];
    snapshot.queued_requests = shadow.queued[i];
    snapshot.busy_us = std::max(0.0, shadow.busy_until[i] - now);
    snapshot.pending_cost_us = static_cast<double>(shadow.queued[i]) * cost;
    snapshot.plan_tuning = Shadow::Bit(shadow.tuning, key, id);
    snapshot.plan_warm = Shadow::Bit(shadow.resident, key, id) && !snapshot.plan_tuning;
    snapshot.plan_pending = Shadow::Bit(shadow.pending, key, id);
    snapshots.push_back(snapshot);
    if (snapshot.accepting && id != avoid) {
      ++candidates;
      ++loads[snapshot.busy_us + snapshot.pending_cost_us];
    }
  }
  *ties += loads.size() < candidates ? 1 : 0;
  if (busy_picks != nullptr && !loads.empty() && loads.begin()->first > 0.0) {
    ++*busy_picks;
  }
  const std::function<bool(int)> pending = [&](int id) {
    EXPECT_TRUE(shadow.accepting[static_cast<size_t>(id)])
        << "pending probed for non-accepting slot " << id;
    return Shadow::Bit(shadow.pending, key, id);
  };
  const int expected = by_vector->Place(snapshots, avoid);
  const int actual = by_table->Place(table, key, now, cost, pending, avoid);
  ASSERT_EQ(actual, expected) << "step " << step << " key " << key << " now " << now
                              << " avoid " << avoid << " slots " << table.size();
}

// The table's own view of every slot matches the shadow.
void ExpectSlotsMatchShadow(const ReplicaTable& table, const Shadow& shadow) {
  for (int id = 0; id < table.size(); ++id) {
    const size_t i = static_cast<size_t>(id);
    EXPECT_EQ(table.accepting(id), shadow.accepting[i]);
    EXPECT_EQ(table.busy_until(id), shadow.busy_until[i]);
    EXPECT_EQ(table.queued(id), shadow.queued[i]);
    for (const uint64_t key : kKeys) {
      EXPECT_EQ(table.resident(id, key), Shadow::Bit(shadow.resident, key, id));
      EXPECT_EQ(table.tuning(id, key), Shadow::Bit(shadow.tuning, key, id));
    }
  }
}

TEST(RouterDifferentialTest, TableFormMatchesSnapshotFormUnderRandomMutations) {
  size_t placements = 0;
  size_t ties = 0;
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kPlanAffinity}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(std::string(PlacementPolicyName(policy)) + " seed " + std::to_string(seed));
      Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(policy));
      ReplicaTable table;
      Shadow shadow;
      FleetRouter by_table(policy);
      FleetRouter by_vector(policy);
      AddSlot(&table, &shadow, &rng);
      for (int step = 0; step < 600; ++step) {
        Mutate(&table, &shadow, &rng);
        // Half the runs grow past one bitset word early.
        if (seed % 2 == 0 && step == 10) {
          while (table.size() < 66) {
            AddSlot(&table, &shadow, &rng);
          }
        }
        ASSERT_NO_FATAL_FAILURE(
            ExpectSamePick(table, shadow, &by_table, &by_vector, &rng, step, &ties));
        ++placements;
      }
      ExpectSlotsMatchShadow(table, shadow);
    }
  }
  EXPECT_EQ(placements, 3u * 12u * 600u);
  EXPECT_GT(ties, placements / 10) << "the load sets should produce frequent ties";
}

TEST(RouterDifferentialTest, TableFormMatchesSnapshotFormUpTo1024Slots) {
  // Growth bursts to these sizes cross many bitset words; single AddSlot
  // mutations between bursts cross some word boundaries one slot at a
  // time.
  constexpr int kTargets[] = {40, 150, 300, 600, 1024};
  constexpr int kStepsPerTarget = 80;
  size_t placements = 0;
  size_t ties = 0;
  size_t busy_picks = 0;
  for (const Regime regime : {Regime::kIdleHeavy, Regime::kBusy, Regime::kFine}) {
    for (const PlacementPolicy policy :
         {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
          PlacementPolicy::kPlanAffinity}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(std::string(regime == Regime::kBusy   ? "busy "
                                 : regime == Regime::kFine ? "fine "
                                                           : "idle-heavy ") +
                     PlacementPolicyName(policy) + " seed " + std::to_string(seed));
        Rng rng(seed * 0xd1b54a32d192ed03ull + static_cast<uint64_t>(policy));
        ReplicaTable table;
        Shadow shadow;
        FleetRouter by_table(policy);
        FleetRouter by_vector(policy);
        int step = 0;
        for (const int target : kTargets) {
          while (table.size() < target) {
            AddSlot(&table, &shadow, &rng, regime);
          }
          for (int i = 0; i < kStepsPerTarget; ++i, ++step) {
            Mutate(&table, &shadow, &rng, regime, target + 8);
            ASSERT_NO_FATAL_FAILURE(ExpectSamePick(table, shadow, &by_table, &by_vector, &rng,
                                                   step, &ties, &busy_picks));
            ++placements;
          }
        }
        ExpectSlotsMatchShadow(table, shadow);
      }
    }
  }
  EXPECT_EQ(placements, 3u * 3u * 3u * 5u * kStepsPerTarget);
  EXPECT_GT(ties, placements / 2) << "equal loads should be common";
  // The busy regime (and the fine one at early clocks) leaves the table
  // form's zero-load exit unused on many picks, so it has to compare
  // non-zero loads across the whole table.
  EXPECT_GT(busy_picks, placements / 5) << "non-zero least loads should be common";
}

// One explicit table state placed through both router forms: asserts equal
// picks and returns the table form's. Snapshots are built from the table
// itself; `pending` lists the slots holding same-key requests, and
// *probes counts the table form's pending-probe calls.
int PickBoth(PlacementPolicy policy, const ReplicaTable& table, uint64_t key, SimTime now,
             double cost, const std::vector<int>& pending, int avoid = -1,
             size_t* probes = nullptr) {
  std::vector<ReplicaSnapshot> snapshots;
  for (int id = 0; id < table.size(); ++id) {
    ReplicaSnapshot snapshot;
    snapshot.id = id;
    snapshot.accepting = table.accepting(id);
    snapshot.queued_requests = table.queued(id);
    snapshot.busy_us = std::max(0.0, table.busy_until(id) - now);
    snapshot.pending_cost_us = static_cast<double>(table.queued(id)) * cost;
    snapshot.plan_tuning = table.tuning(id, key);
    snapshot.plan_warm = table.resident(id, key) && !snapshot.plan_tuning;
    snapshot.plan_pending = std::find(pending.begin(), pending.end(), id) != pending.end();
    snapshots.push_back(snapshot);
  }
  const std::function<bool(int)> probe = [&](int id) {
    if (probes != nullptr) {
      ++*probes;
    }
    return std::find(pending.begin(), pending.end(), id) != pending.end();
  };
  FleetRouter by_vector(policy);
  FleetRouter by_table(policy);
  const int expected = by_vector.Place(snapshots, avoid);
  const int actual = by_table.Place(table, key, now, cost, probe, avoid);
  EXPECT_EQ(actual, expected) << "now " << now << " cost " << cost << " avoid " << avoid;
  return actual;
}

// One accepting slot per (busy_until, queued) pair, in id order.
ReplicaTable TableOf(const std::vector<std::pair<SimTime, size_t>>& loads) {
  ReplicaTable table;
  for (const auto& [busy_until, queued] : loads) {
    const int id = table.AddSlot();
    table.SetAccepting(id, true);
    table.SetLoad(id, busy_until, queued);
  }
  return table;
}

TEST(RouterDifferentialTest, ZeroLoadSetEdgeCases) {
  constexpr PlacementPolicy kLeast = PlacementPolicy::kLeastLoaded;
  constexpr PlacementPolicy kAffinity = PlacementPolicy::kPlanAffinity;
  constexpr uint64_t kKey = 0x11;
  {
    // An executor horizon exactly at the clock, nothing queued: zero load.
    const ReplicaTable table = TableOf({{150.0, 0}, {100.0, 0}, {50.0, 0}});
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 50.0, {}), 1);
    // Just past the clock: the lowest zero is the next slot.
    EXPECT_EQ(PickBoth(kLeast, table, kKey, std::nextafter(100.0, 0.0), 50.0, {}), 2);
  }
  {
    // A zero cost estimate prices queued work at 0: an idle executor with a
    // backlog has zero load then, and only then.
    ReplicaTable table = TableOf({{300.0, 0}, {0.0, 3}, {0.0, 0}});
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 0.0, {}), 1);
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 50.0, {}), 2);
    // An infinite estimate makes an empty queue cost NaN, not 0: the
    // zero-load search is not used and the scan decides.
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, std::numeric_limits<double>::infinity(), {}),
              0);
    // The backlog drains: slot 1 is a zero again; it refills: it is not.
    table.SetLoad(1, 0.0, 0);
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 50.0, {}), 1);
    table.SetLoad(1, 0.0, 1);
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 50.0, {}), 2);
  }
  {
    // avoid_id on the lowest zero slot moves the pick to the next zero.
    const ReplicaTable table = TableOf({{300.0, 1}, {0.0, 0}, {200.0, 0}, {0.0, 0}});
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 50.0, {}, /*avoid=*/1), 3);
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 50.0, {}, /*avoid=*/3), 1);
  }
  {
    // A non-accepting zero slot below an accepting one.
    ReplicaTable table = TableOf({{300.0, 0}, {0.0, 0}, {0.0, 0}});
    table.SetAccepting(1, false);
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 50.0, {}), 2);
    table.SetAccepting(2, false);
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 50.0, {}), 0);
  }
  {
    // The only zero slot sits in the second bitset word, behind 64 busy
    // slots whose least load is in the middle of the first word.
    std::vector<std::pair<SimTime, size_t>> loads;
    for (int i = 0; i < 70; ++i) {
      loads.emplace_back(i == 30 ? 110.0 : 400.0, i == 30 ? 0 : 2);
    }
    loads[67] = {90.0, 0};
    ReplicaTable table = TableOf(loads);
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 50.0, {}), 67);
    table.SetLoad(67, 120.0, 0);  // now busy too: the scan's least load wins
    EXPECT_EQ(PickBoth(kLeast, table, kKey, 100.0, 50.0, {}), 30);
    // Warm tier: the set is ANDed with the warm slots only.
    table.SetLoad(67, 0.0, 0);
    table.SetResident(5, kKey, true);
    table.SetResident(64, kKey, true);
    EXPECT_EQ(PickBoth(kAffinity, table, kKey, 100.0, 50.0, {}), 5);
    table.SetResident(67, kKey, true);
    EXPECT_EQ(PickBoth(kAffinity, table, kKey, 100.0, 50.0, {}), 67);
    // A tuning zero slot is not warm; the tuning tier is used only when no
    // slot is warm.
    table.SetTuning(67, kKey, true);
    EXPECT_EQ(PickBoth(kAffinity, table, kKey, 100.0, 50.0, {}), 5);
  }
  {
    // Pending tier: no slot is warm or tuning for the key. The probe runs
    // once per eligible slot (accepting, not avoided), zero load or not,
    // and the least-loaded pending slot wins.
    ReplicaTable table = TableOf({{300.0, 1}, {0.0, 0}, {250.0, 0}, {0.0, 0}, {0.0, 2}});
    table.SetAccepting(4, false);
    size_t probes = 0;
    EXPECT_EQ(PickBoth(kAffinity, table, kKey, 100.0, 50.0, {0, 2, 4}, -1, &probes), 2);
    EXPECT_EQ(probes, 4u);
    probes = 0;
    EXPECT_EQ(PickBoth(kAffinity, table, kKey, 100.0, 50.0, {0, 2, 3}, /*avoid=*/2, &probes), 3);
    EXPECT_EQ(probes, 3u);
    // Nothing pending: the any tier's lowest zero, after one probe each.
    probes = 0;
    EXPECT_EQ(PickBoth(kAffinity, table, kKey, 100.0, 50.0, {}, -1, &probes), 1);
    EXPECT_EQ(probes, 4u);
  }
}

ScenarioSpec SmallSpec(int64_t m) {
  return ScenarioSpec::Overlap(GemmShape{m, 2048, 1024}, CommPrimitive::kAllReduce);
}

TEST(RouterDifferentialTest, SessionFeedsKeepTheTableSlotInStep) {
  // One replica's worth of wiring, as ServingCluster does it: the store's
  // change callback feeds resident bits, the session's hooks feed the load
  // pair and tuning bits. A two-plan store over four keys evicts, a
  // scripted tuner failure aborts and retries, and extractions move work
  // out mid-run.
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  auto store = std::make_shared<PlanStore>(2);
  engine.UseSharedPlanStore(store);
  ReplicaTable table;
  const int id = table.AddSlot();
  table.SetAccepting(id, true);
  store->SetChangeCallback(
      [&](uint64_t key, bool resident) { table.SetResident(id, key, resident); });
  ServeSession::Hooks hooks;
  hooks.load_changed = [&](size_t pending, SimTime busy_until) {
    table.SetLoad(id, busy_until, pending);
  };
  size_t tuning_flips = 0;
  hooks.tuning_changed = [&](uint64_t key, bool tuning) {
    ++tuning_flips;
    table.SetTuning(id, key, tuning);
  };
  EventLoop events;
  ServeConfig config;
  config.tuner_lanes = 2;
  ServeSession session(&engine, config, &events, hooks, id);

  std::vector<uint64_t> keys;
  std::vector<ScenarioSpec> specs;
  for (int k = 0; k < 4; ++k) {
    specs.push_back(SmallSpec(1024 + 512 * k));
    keys.push_back(engine.planner().CanonicalKey(specs.back()));
  }
  auto expect_in_step = [&](const char* where) {
    SCOPED_TRACE(where);
    EXPECT_EQ(table.queued(id), session.pending_requests());
    EXPECT_EQ(table.busy_until(id), session.busy_until());
    for (const uint64_t key : keys) {
      EXPECT_EQ(table.tuning(id, key), session.IsTuningKey(key));
      EXPECT_EQ(table.resident(id, key), store->Contains(key));
    }
  };

  Rng rng(17);
  SimTime now = 0.0;
  int64_t next_id = 0;
  std::vector<KeyedRequest> extracted;
  size_t failed_tunes = 0;
  size_t moved = 0;
  for (int step = 0; step < 400; ++step) {
    const uint64_t action = rng.NextBelow(20);
    if (action < 12) {
      const size_t k = rng.NextBelow(specs.size());
      ServeRequest request{next_id++, rng.NextBelow(2) == 0 ? "llm" : "moe", now, specs[k]};
      if (rng.NextBelow(2) == 0) {
        session.Admit(std::move(request), keys[k], now);
      } else {
        session.Admit(std::move(request), now);
      }
      expect_in_step("admit");
    } else if (action == 12) {
      failed_tunes += session.FailInFlightTuning();
    } else if (action == 13) {
      extracted.clear();
      const size_t count = session.ExtractQueued(&extracted);
      ASSERT_EQ(extracted.size(), count);
      moved += count;
      for (const KeyedRequest& keyed : extracted) {
        EXPECT_EQ(keyed.key, engine.planner().CanonicalKey(keyed.request.spec));
      }
      expect_in_step("extract queued");
    } else if (action == 14) {
      extracted.clear();
      const size_t count = session.ExtractPending(&extracted);
      ASSERT_EQ(extracted.size(), count);
      moved += count;
      for (const KeyedRequest& keyed : extracted) {
        EXPECT_EQ(keyed.key, engine.planner().CanonicalKey(keyed.request.spec));
      }
      expect_in_step("extract pending");
    } else if (!events.empty()) {
      events.RunOne(&now);
      expect_in_step("event");
    } else {
      now += 1000.0;
    }
  }
  events.RunToCompletion();
  expect_in_step("drained");
  // The walk really exercised every feed.
  EXPECT_GT(store->stats().evictions, 0u);
  EXPECT_GT(tuning_flips, 4u);
  EXPECT_GT(failed_tunes, 0u);
  EXPECT_GT(moved, 0u);

  // A fresh session on the slot: idle, nothing tuning, residency kept.
  table.ResetSession(id);
  for (const uint64_t key : keys) {
    EXPECT_FALSE(table.tuning(id, key));
    EXPECT_EQ(table.resident(id, key), store->Contains(key));
  }
  store->Clear();
  for (const uint64_t key : keys) {
    EXPECT_FALSE(table.resident(id, key));
  }
}

}  // namespace
}  // namespace flo
