#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/autoscaler.h"
#include "src/cluster/fleet_router.h"
#include "src/cluster/plan_shipping.h"
#include "src/cluster/serving_cluster.h"
#include "src/core/overlap_engine.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_loop.h"

namespace flo {
namespace {

// --- FleetRouter ------------------------------------------------------------

ReplicaSnapshot Snap(int id, double busy = 0.0, double pending = 0.0, bool warm = false,
                     bool tuning = false, bool accepting = true) {
  ReplicaSnapshot snapshot;
  snapshot.id = id;
  snapshot.accepting = accepting;
  snapshot.busy_us = busy;
  snapshot.pending_cost_us = pending;
  snapshot.plan_warm = warm;
  snapshot.plan_tuning = tuning;
  return snapshot;
}

TEST(FleetRouterTest, RoundRobinCyclesAcceptingReplicasOnly) {
  FleetRouter router(PlacementPolicy::kRoundRobin);
  const std::vector<ReplicaSnapshot> replicas = {
      Snap(0), Snap(1, 0, 0, false, false, /*accepting=*/false), Snap(2), Snap(5)};
  std::vector<int> placements;
  for (int i = 0; i < 6; ++i) {
    placements.push_back(router.Place(replicas));
  }
  EXPECT_EQ(placements, (std::vector<int>{0, 2, 5, 0, 2, 5}));
}

TEST(FleetRouterTest, RoundRobinSurvivesFleetChanges) {
  FleetRouter router(PlacementPolicy::kRoundRobin);
  EXPECT_EQ(router.Place({Snap(0), Snap(1)}), 0);
  // Replica 2 spawns: the rotation continues after the last placement.
  EXPECT_EQ(router.Place({Snap(0), Snap(1), Snap(2)}), 1);
  // Replica 2 drains before its first turn: wrap to the lowest id.
  EXPECT_EQ(router.Place({Snap(0), Snap(1), Snap(2, 0, 0, false, false, false)}), 0);
  EXPECT_EQ(router.Place({}), -1);
}

TEST(FleetRouterTest, LeastLoadedMinimizesBacklogCost) {
  FleetRouter router(PlacementPolicy::kLeastLoaded);
  // Backlog = executor busy remaining + queued predicted cost.
  EXPECT_EQ(router.Place({Snap(0, 100.0, 50.0), Snap(1, 20.0, 40.0), Snap(2, 90.0, 0.0)}), 1);
  // Ties break to the lowest id.
  EXPECT_EQ(router.Place({Snap(0, 10.0, 0.0), Snap(1, 0.0, 10.0)}), 0);
}

TEST(FleetRouterTest, PlanAffinityPrefersWarmThenTuningThenLoad) {
  FleetRouter router(PlacementPolicy::kPlanAffinity);
  // Warm beats lighter-loaded cold replicas.
  EXPECT_EQ(router.Place({Snap(0, 0.0, 0.0), Snap(1, 500.0, 0.0, /*warm=*/true)}), 1);
  // Least-loaded among several warm replicas.
  EXPECT_EQ(router.Place({Snap(0, 500.0, 0.0, true), Snap(1, 100.0, 0.0, true), Snap(2)}), 1);
  // No warm replica: join the one already tuning the key (coalesce into
  // the open tuning window).
  EXPECT_EQ(router.Place({Snap(0), Snap(1, 300.0, 0.0, false, /*tuning=*/true)}), 1);
  // No warm or tuning replica: follow pending same-key requests (the
  // key's future home), so a key never splits across replicas.
  ReplicaSnapshot pending = Snap(2, 400.0);
  pending.plan_pending = true;
  EXPECT_EQ(router.Place({Snap(0), Snap(1), pending}), 2);
  // Universal cold: plain least-loaded fallback.
  EXPECT_EQ(router.Place({Snap(0, 50.0), Snap(1, 10.0)}), 1);
  // A draining warm replica is never chosen.
  EXPECT_EQ(router.Place({Snap(0), Snap(1, 0.0, 0.0, true, false, /*accepting=*/false)}), 0);
}

TEST(FleetRouterTest, NonAcceptingReplicaNeverWinsAnyAffinityTier) {
  // `accepting` covers draining and retired replicas and fault-plane
  // health states (crashed, hung, straggling). Whatever the reason, a
  // non-accepting replica must lose every tier, warm plan or not.
  FleetRouter router(PlacementPolicy::kPlanAffinity);
  // Warm tier: the warm winner is draining — fall through to a cold peer.
  EXPECT_EQ(router.Place({Snap(0, 500.0),
                          Snap(1, 0.0, 0.0, /*warm=*/true, false, /*accepting=*/false)}),
            0);
  // Tuning tier: the open tuning window is on a non-accepting replica.
  EXPECT_EQ(router.Place({Snap(0, 500.0),
                          Snap(1, 0.0, 0.0, false, /*tuning=*/true, /*accepting=*/false)}),
            0);
  // Pending tier: same-key pending requests on a non-accepting replica
  // do not pull new placements onto it.
  ReplicaSnapshot pending = Snap(1);
  pending.plan_pending = true;
  pending.accepting = false;
  EXPECT_EQ(router.Place({Snap(0, 500.0), pending}), 0);
  // Nothing accepting at all: the router reports failure instead of
  // placing onto a doomed replica.
  EXPECT_EQ(router.Place({Snap(0, 0.0, 0.0, true, false, /*accepting=*/false),
                          Snap(1, 0.0, 0.0, false, false, /*accepting=*/false)}),
            -1);
  // Same contract for the non-affinity policies.
  FleetRouter least(PlacementPolicy::kLeastLoaded);
  EXPECT_EQ(least.Place({Snap(0, 0.0, 0.0, false, false, /*accepting=*/false)}), -1);
  FleetRouter rr(PlacementPolicy::kRoundRobin);
  EXPECT_EQ(rr.Place({Snap(0, 0.0, 0.0, false, false, /*accepting=*/false)}), -1);
}

TEST(FleetRouterTest, PolicyNamesRoundTrip) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kPlanAffinity}) {
    EXPECT_EQ(TryPlacementPolicyFromName(PlacementPolicyName(policy)), policy);
  }
  EXPECT_FALSE(TryPlacementPolicyFromName("Sideways").has_value());
}

// --- PlanShipper ------------------------------------------------------------

ExecutionPlan MarkedPlan(int marker) {
  ExecutionPlan plan;
  plan.kind = ScenarioKind::kOverlap;
  plan.primitive = CommPrimitive::kAllReduce;
  plan.partition = WavePartition{{1, 2}};
  plan.group_tiles = {{marker + 1, marker + 2}};
  plan.segments = {CommSegment{0, 1024.0, 10.0}, CommSegment{1, 2048.0, 20.0}};
  plan.predicted_us = marker;
  return plan;
}

TEST(PlanShipperTest, PublishShipsBitIdenticalCopiesToAllPeers) {
  PlanShipper shipper;
  auto a = std::make_shared<PlanStore>();
  auto b = std::make_shared<PlanStore>();
  shipper.Subscribe(0, a);
  shipper.Subscribe(1, b);
  a->Put(42, MarkedPlan(7));
  ASSERT_TRUE(shipper.Publish(42, *a));
  // The peer receives the owner's plan object itself.
  ASSERT_TRUE(b->Contains(42));
  EXPECT_EQ(a->Find(42).get(), b->Find(42).get());
  EXPECT_EQ(*b->FindCopy(42), MarkedPlan(7));
  EXPECT_EQ(shipper.stats().published, 1u);
  EXPECT_TRUE(shipper.Published(42));
  EXPECT_FALSE(shipper.Publish(43, *a));  // absent from the source
}

// A re-publish (the owner's store lost the plan and re-tuned it at zero
// searches, as a new, equal object) keeps the published object: the
// fan-out peer and a later subscriber share one plan object, and neither
// the publish count nor the snapshot bytes move.
TEST(PlanShipperTest, RepublishKeepsThePublishedPlanObject) {
  PlanShipper shipper;
  auto owner = std::make_shared<PlanStore>();
  auto peer = std::make_shared<PlanStore>();
  shipper.Subscribe(0, owner);
  shipper.Subscribe(1, peer);
  owner->Put(1, MarkedPlan(1));
  ASSERT_TRUE(shipper.Publish(1, *owner));
  const std::string snapshot = shipper.SerializeSnapshot();
  ASSERT_TRUE(owner->Erase(1));
  owner->Put(1, MarkedPlan(1));
  EXPECT_TRUE(shipper.Publish(1, *owner));
  auto late = std::make_shared<PlanStore>();
  shipper.Subscribe(2, late);
  ASSERT_NE(peer->Find(1), nullptr);
  EXPECT_EQ(peer->Find(1).get(), late->Find(1).get());
  EXPECT_EQ(shipper.stats().published, 1u);
  EXPECT_EQ(shipper.SerializeSnapshot(), snapshot);
}

TEST(PlanShipperTest, BeginTuningSingleFlightsAcrossTheFleet) {
  PlanShipper shipper;
  auto a = std::make_shared<PlanStore>();
  auto b = std::make_shared<PlanStore>();
  shipper.Subscribe(0, a);
  shipper.Subscribe(1, b);
  EXPECT_TRUE(shipper.BeginTuning(42, 0));   // replica 0 owns the search
  EXPECT_TRUE(shipper.BeginTuning(42, 0));   // re-asking is idempotent
  EXPECT_FALSE(shipper.BeginTuning(42, 1));  // replica 1 must wait
  EXPECT_EQ(shipper.stats().duplicate_tunes_avoided, 1u);
  a->Put(42, MarkedPlan(1));
  shipper.Publish(42, *a);
  // Published: a later BeginTuning re-ships instead of granting a search
  // (replica 1's bounded store may have evicted the copy meanwhile).
  b->Clear();
  EXPECT_TRUE(shipper.BeginTuning(42, 1));
  EXPECT_TRUE(b->Contains(42));
}

TEST(PlanShipperTest, LateSubscriberBootstrapsFromThePublishedSet) {
  PlanShipper shipper;
  auto a = std::make_shared<PlanStore>();
  shipper.Subscribe(0, a);
  a->Put(1, MarkedPlan(1));
  a->Put(2, MarkedPlan(2));
  shipper.Publish(1, *a);
  shipper.Publish(2, *a);
  auto late = std::make_shared<PlanStore>();
  shipper.Subscribe(7, late);
  EXPECT_EQ(late->size(), 2u);
  EXPECT_EQ(*late->FindCopy(2), MarkedPlan(2));
}

TEST(PlanShipperTest, TunerTierArtifactsReachPeersAndLateSubscribers) {
  const GemmShape shape{4096, 8192, 4096};
  PlanShipper shipper;
  auto a = std::make_shared<PlanStore>();
  auto b = std::make_shared<PlanStore>();
  Tuner tuner_a(MakeA800Cluster(4));
  Tuner tuner_b(MakeA800Cluster(4));
  shipper.Subscribe(0, a, &tuner_a);
  shipper.Subscribe(1, b, &tuner_b);
  const TunedPlan& tuned = tuner_a.Tune(shape, CommPrimitive::kAllReduce);
  const StoredPlan artifact{shape, CommPrimitive::kAllReduce, tuned.partition,
                            tuned.predicted_us, tuned.predicted_non_overlap_us};
  a->Put(9, MarkedPlan(9));
  ASSERT_TRUE(shipper.Publish(9, *a, &artifact));
  // The peer's tuner holds the search result: even if its store evicts
  // the shipped plan, rebuilding it costs zero searches.
  EXPECT_TRUE(tuner_b.Contains(shape, CommPrimitive::kAllReduce));
  EXPECT_EQ(tuner_b.search_count(), 0u);
  // A replica spawned after the publish bootstraps both tiers.
  auto late = std::make_shared<PlanStore>();
  Tuner tuner_late(MakeA800Cluster(4));
  shipper.Subscribe(2, late, &tuner_late);
  EXPECT_TRUE(late->Contains(9));
  EXPECT_TRUE(tuner_late.Contains(shape, CommPrimitive::kAllReduce));
  // A re-ship after eviction restores both tiers too.
  b->Clear();
  EXPECT_TRUE(shipper.BeginTuning(9, 1));
  EXPECT_TRUE(b->Contains(9));
  EXPECT_EQ(tuner_b.search_count(), 0u);
}

TEST(PlanShipperTest, SnapshotRoundTripsThroughImport) {
  PlanShipper shipper;
  auto a = std::make_shared<PlanStore>();
  shipper.Subscribe(0, a);
  a->Put(5, MarkedPlan(5));
  shipper.Publish(5, *a);
  const std::string snapshot = shipper.SerializeSnapshot();

  PlanShipper other;
  auto b = std::make_shared<PlanStore>();
  other.Subscribe(0, b);
  EXPECT_EQ(other.ImportSnapshot(snapshot), 1u);
  EXPECT_TRUE(other.Published(5));
  EXPECT_TRUE(b->Contains(5));
  EXPECT_EQ(other.SerializeSnapshot(), snapshot);
  EXPECT_EQ(other.ImportSnapshot("plan garbage\n"), 0u);
}

// What a subscriber saw of shipping: its store (bytes, counters, and the
// order keys entered and left) and its tuner cache.
struct Peer {
  std::shared_ptr<PlanStore> store;
  std::unique_ptr<Tuner> tuner;
  std::vector<std::pair<uint64_t, bool>> log;
};

std::unique_ptr<Peer> BoundedPeer(size_t capacity) {
  auto peer = std::make_unique<Peer>();
  peer->store = std::make_shared<PlanStore>(capacity);
  peer->tuner = std::make_unique<Tuner>(MakeA800Cluster(4));
  peer->store->SetChangeCallback(
      [log = &peer->log](uint64_t key, bool resident) { log->emplace_back(key, resident); });
  return peer;
}

// The bytes of a store holding MarkedPlan(key) for each key.
std::string MarkedStoreBytes(const std::vector<uint64_t>& keys) {
  PlanStore store;
  for (const uint64_t key : keys) {
    store.Put(key, MarkedPlan(static_cast<int>(key)));
  }
  return store.Serialize();
}

StoredPlan MarkedArtifact(int marker) {
  return StoredPlan{GemmShape{1024 * marker, 4096, 4096}, CommPrimitive::kAllReduce,
                    WavePartition{{1}}, 0.0, 0.0};
}

void ExpectStoreStats(const PlanStore& store, size_t hits, size_t misses, size_t evictions) {
  const PlanStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.misses, misses);
  EXPECT_EQ(stats.evictions, evictions);
}

void ExpectShipperStats(const PlanShipper& shipper, size_t published, size_t shipped,
                        size_t duplicates, size_t drops) {
  const PlanShipperStats stats = shipper.stats();
  EXPECT_EQ(stats.published, published);
  EXPECT_EQ(stats.shipped, shipped);
  EXPECT_EQ(stats.duplicate_tunes_avoided, duplicates);
  EXPECT_EQ(stats.ship_drops, drops);
}

// Shrinks the store to one plan; the evictions this appends to the log
// spell out the LRU order shipping left behind.
void RevealLruOrder(Peer* peer) { peer->store->set_capacity(1); }

using Log = std::vector<std::pair<uint64_t, bool>>;

// Pins the publish fan-out and re-ship paths into bounded stores: which
// keys each peer receives, in which order, what that evicts, and what the
// shipper counts — including a dropped delivery recovered by a re-ship.
TEST(PlanShipperTest, FanOutAndReshipIntoBoundedStoresArePinned) {
  PlanShipper shipper;
  auto owner = std::make_shared<PlanStore>();
  Tuner owner_tuner(MakeA800Cluster(4));
  shipper.Subscribe(0, owner, &owner_tuner);
  std::vector<std::unique_ptr<Peer>> peers;
  for (int id = 1; id <= 3; ++id) {
    peers.push_back(BoundedPeer(/*capacity=*/2));
    EXPECT_EQ(shipper.Subscribe(id, peers.back()->store, peers.back()->tuner.get()), 0u);
  }
  PlanStore& p1 = *peers[0]->store;
  PlanStore& p2 = *peers[1]->store;
  PlanStore& p3 = *peers[2]->store;

  for (int key : {10, 11}) {
    const StoredPlan artifact = MarkedArtifact(key);
    owner->Put(key, MarkedPlan(key));
    ASSERT_TRUE(shipper.Publish(key, *owner, &artifact));
  }
  EXPECT_NE(p1.Find(10), nullptr);  // p1's LRU victim is now 11

  // Replica 2 loses key 12's delivery; the others evict to make room.
  shipper.SetDropFilter([](uint64_t key, int id) { return key == 12 && id == 2; });
  owner->Put(12, MarkedPlan(12));
  ASSERT_TRUE(shipper.Publish(12, *owner));
  shipper.SetDropFilter(nullptr);
  // A re-publish refreshes the published set and ships nothing.
  ASSERT_TRUE(shipper.Publish(12, *owner));
  ExpectShipperStats(shipper, 3, 8, 0, 1);

  // The victim pulls the plan it never got; replica 3 re-fetches the
  // copy its bounded store evicted.
  EXPECT_EQ(p2.Find(12), nullptr);
  EXPECT_TRUE(shipper.BeginTuning(12, 2));
  EXPECT_TRUE(shipper.BeginTuning(10, 3));

  // Replica 1 tunes key 13 itself (replica 3 loses the race) and
  // publishes it to everyone but itself, the unbounded owner included.
  EXPECT_TRUE(shipper.BeginTuning(13, 1));
  EXPECT_FALSE(shipper.BeginTuning(13, 3));
  p1.Put(13, MarkedPlan(13));
  const StoredPlan artifact13 = MarkedArtifact(13);
  ASSERT_TRUE(shipper.Publish(13, p1, &artifact13));
  EXPECT_NE(p3.Find(10), nullptr);
  EXPECT_EQ(p3.Find(11), nullptr);

  ExpectShipperStats(shipper, 4, 13, 1, 1);
  EXPECT_EQ(owner->Serialize(), MarkedStoreBytes({10, 11, 12, 13}));
  EXPECT_EQ(p1.Serialize(), MarkedStoreBytes({12, 13}));
  EXPECT_EQ(p2.Serialize(), MarkedStoreBytes({12, 13}));
  EXPECT_EQ(p3.Serialize(), MarkedStoreBytes({10, 13}));
  ExpectStoreStats(p1, 1, 0, 2);
  ExpectStoreStats(p2, 0, 1, 2);
  ExpectStoreStats(p3, 1, 1, 3);
  EXPECT_EQ(owner_tuner.cache_size(), 1u);
  EXPECT_EQ(peers[0]->tuner->cache_size(), 2u);
  EXPECT_EQ(peers[1]->tuner->cache_size(), 3u);
  EXPECT_EQ(peers[2]->tuner->cache_size(), 3u);
  for (const auto& peer : peers) {
    EXPECT_EQ(peer->tuner->search_count(), 0u);
    RevealLruOrder(peer.get());
  }
  EXPECT_EQ(peers[0]->log, (Log{{10, true}, {11, true}, {12, true}, {11, false},
                                {13, true}, {10, false}, {12, false}}));
  EXPECT_EQ(peers[1]->log, (Log{{10, true}, {11, true}, {12, true}, {10, false},
                                {13, true}, {11, false}, {12, false}}));
  EXPECT_EQ(peers[2]->log, (Log{{10, true}, {11, true}, {12, true}, {10, false}, {10, true},
                                {11, false}, {13, true}, {12, false}, {13, false}}));

  // The published set is what the owner tuned, with the artifacts that
  // came with it.
  std::vector<std::pair<uint64_t, StoredPlan>> artifacts;
  for (int key : {10, 11, 13}) {
    artifacts.emplace_back(key, MarkedArtifact(key));
  }
  EXPECT_EQ(shipper.SerializeSnapshot(),
            MarkedStoreBytes({10, 11, 12, 13}) + SerializeTunerTier(artifacts));
}

// Pins the bulk delivery paths into a bounded store: a late subscriber's
// bootstrap and a snapshot import that overwrites one key and adds two,
// then a re-ship of a plan the import evicted.
TEST(PlanShipperTest, BootstrapAndSnapshotImportIntoBoundedStoresArePinned) {
  PlanShipper shipper;
  auto owner = std::make_shared<PlanStore>();
  shipper.Subscribe(0, owner);
  for (int key : {20, 21, 22}) {
    const StoredPlan artifact = MarkedArtifact(key);
    owner->Put(key, MarkedPlan(key));
    ASSERT_TRUE(shipper.Publish(key, *owner, &artifact));
  }
  const std::unique_ptr<Peer> late = BoundedPeer(/*capacity=*/2);
  EXPECT_EQ(shipper.Subscribe(5, late->store, late->tuner.get()), 3u);
  EXPECT_EQ(late->tuner->cache_size(), 3u);
  ExpectShipperStats(shipper, 3, 3, 0, 0);

  PlanShipper other;
  PlanStore source;
  for (int key : {21, 30, 31}) {
    source.Put(key, MarkedPlan(key));
  }
  const StoredPlan artifact30 = MarkedArtifact(30);
  ASSERT_TRUE(other.Publish(21, source));
  ASSERT_TRUE(other.Publish(30, source, &artifact30));
  ASSERT_TRUE(other.Publish(31, source));
  EXPECT_EQ(shipper.ImportSnapshot(other.SerializeSnapshot()), 3u);
  EXPECT_EQ(shipper.published_size(), 5u);
  EXPECT_EQ(late->tuner->cache_size(), 4u);
  ExpectShipperStats(shipper, 3, 9, 0, 0);

  EXPECT_EQ(late->store->Find(21), nullptr);
  EXPECT_TRUE(shipper.BeginTuning(21, 5));
  ExpectShipperStats(shipper, 3, 10, 0, 0);

  EXPECT_EQ(owner->Serialize(), MarkedStoreBytes({20, 21, 22, 30, 31}));
  EXPECT_EQ(late->store->Serialize(), MarkedStoreBytes({21, 31}));
  ExpectStoreStats(*late->store, 0, 1, 4);
  EXPECT_EQ(late->tuner->search_count(), 0u);
  RevealLruOrder(late.get());
  EXPECT_EQ(late->log, (Log{{20, true}, {21, true}, {22, true}, {20, false}, {30, true},
                            {22, false}, {31, true}, {21, false}, {21, true}, {30, false},
                            {31, false}}));
}

// A replica whose publish delivery was dropped gets both tiers back from
// the re-ship pull: the plan and the tuner artifact behind it.
TEST(PlanShipperTest, ReshipRestoresBothTiersOfADroppedDelivery) {
  PlanShipper shipper;
  const std::unique_ptr<Peer> owner = BoundedPeer(/*capacity=*/0);
  const std::unique_ptr<Peer> victim = BoundedPeer(/*capacity=*/0);
  shipper.Subscribe(0, owner->store, owner->tuner.get());
  shipper.Subscribe(1, victim->store, victim->tuner.get());
  shipper.SetDropFilter([](uint64_t, int id) { return id == 1; });
  const StoredPlan artifact = MarkedArtifact(5);
  owner->store->Put(5, MarkedPlan(5));
  ASSERT_TRUE(shipper.Publish(5, *owner->store, &artifact));
  EXPECT_EQ(victim->store->size(), 0u);
  EXPECT_EQ(victim->tuner->cache_size(), 0u);

  EXPECT_TRUE(shipper.BeginTuning(5, 1));
  EXPECT_EQ(victim->store->Serialize(), MarkedStoreBytes({5}));
  EXPECT_TRUE(victim->tuner->Contains(artifact.shape, artifact.primitive));
  EXPECT_EQ(victim->tuner->search_count(), 0u);
  ExpectShipperStats(shipper, 1, 1, 0, 1);
}

// --- Autoscaler -------------------------------------------------------------

TEST(AutoscalerTest, SpawnsOnQueuePressure) {
  AutoscaleConfig config;
  config.enabled = true;
  config.max_replicas = 3;
  config.spawn_queue_per_replica = 4.0;
  Autoscaler scaler(config);
  EXPECT_EQ(scaler.Evaluate({2, 4, 0.0}), Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Evaluate({2, 20, 0.0}), Autoscaler::Decision::kSpawn);
  // At the ceiling the pressure is acknowledged but no replica spawns.
  EXPECT_EQ(scaler.Evaluate({3, 30, 0.0}), Autoscaler::Decision::kHold);
}

TEST(AutoscalerTest, SpawnsOnSloPressureAlone) {
  AutoscaleConfig config;
  config.enabled = true;
  config.slo_p99_us = 1000.0;
  Autoscaler scaler(config);
  // Queue looks calm but the tail is burning.
  EXPECT_EQ(scaler.Evaluate({1, 0, 5000.0}), Autoscaler::Decision::kSpawn);
  EXPECT_EQ(scaler.Evaluate({1, 0, 500.0}), Autoscaler::Decision::kHold);
}

TEST(AutoscalerTest, DrainsOnlyAfterConsecutiveCalmChecks) {
  AutoscaleConfig config;
  config.enabled = true;
  config.drain_queue_per_replica = 2.0;
  config.drain_after_calm_checks = 3;
  Autoscaler scaler(config);
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0}), Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Evaluate({3, 0, 0.0}), Autoscaler::Decision::kHold);
  // A busy check resets the calm streak.
  EXPECT_EQ(scaler.Evaluate({3, 40, 0.0}), Autoscaler::Decision::kSpawn);
  EXPECT_EQ(scaler.Evaluate({4, 0, 0.0}), Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Evaluate({4, 0, 0.0}), Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Evaluate({4, 0, 0.0}), Autoscaler::Decision::kDrain);
  // Never below the floor.
  Autoscaler floor(config);
  EXPECT_EQ(floor.Evaluate({1, 0, 0.0}), Autoscaler::Decision::kHold);
  EXPECT_EQ(floor.Evaluate({1, 0, 0.0}), Autoscaler::Decision::kHold);
  EXPECT_EQ(floor.Evaluate({1, 0, 0.0}), Autoscaler::Decision::kHold);
}

// --- ServingCluster ---------------------------------------------------------

ScenarioSpec SmallSpec(int64_t m) {
  return ScenarioSpec::Overlap(GemmShape{m, 2048, 1024}, CommPrimitive::kAllReduce);
}

// A two-tenant mix over `keys` distinct specs, dense enough that every
// replica of a small fleet sees every key under round-robin.
std::vector<ServeRequest> MixedTrace(int keys, int per_tenant) {
  std::vector<ScenarioSpec> specs;
  for (int k = 0; k < keys; ++k) {
    specs.push_back(SmallSpec(1024 + 512 * k));
  }
  return MergeStreams(
      {MakeRequestStream("llm", specs, PoissonArrivals(800.0, per_tenant, 3), 0),
       MakeRequestStream("moe", specs, BurstyArrivals(1600.0, 4.0, 6, per_tenant, 5), 100000)});
}

FleetReport RunFleet(const ClusterConfig& config, const std::vector<ServeRequest>& trace) {
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  return fleet.Run(trace);
}

TEST(ServingClusterTest, SingleReplicaMatchesServeLoopBitForBit) {
  const auto trace = MixedTrace(3, 20);
  ClusterConfig config;
  config.replicas = 1;
  config.ship_plans = false;
  const FleetReport fleet = RunFleet(config, trace);

  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  const ServeReport solo = ServeLoop(&engine).Run(trace);
  EXPECT_DOUBLE_EQ(fleet.makespan_us, solo.makespan_us);
  ASSERT_EQ(fleet.stats.count(), solo.stats.count());
  for (size_t i = 0; i < solo.stats.count(); ++i) {
    EXPECT_DOUBLE_EQ(fleet.stats.records()[i].finish_us, solo.stats.records()[i].finish_us);
    EXPECT_EQ(fleet.stats.records()[i].plan_cache_hit, solo.stats.records()[i].plan_cache_hit);
  }
  EXPECT_EQ(fleet.total_searches, engine.tuner().search_count());
}

TEST(ServingClusterTest, PlanAffinityBeatsRoundRobinWithoutShipping) {
  const auto trace = MixedTrace(4, 60);
  ClusterConfig config;
  config.replicas = 4;
  config.ship_plans = false;

  config.policy = PlacementPolicy::kRoundRobin;
  const FleetReport round_robin = RunFleet(config, trace);
  config.policy = PlacementPolicy::kPlanAffinity;
  const FleetReport affinity = RunFleet(config, trace);

  ASSERT_EQ(affinity.stats.count(), trace.size());
  ASSERT_EQ(round_robin.stats.count(), trace.size());
  // Affinity keeps every key on the replica that tuned it: one search per
  // key fleet-wide. Round-robin spreads each key over all four replicas,
  // so each re-tunes it.
  EXPECT_EQ(affinity.total_searches, affinity.distinct_keys);
  EXPECT_GT(round_robin.total_searches, round_robin.distinct_keys);
  EXPECT_GT(affinity.WarmHitRate(), round_robin.WarmHitRate());
}

TEST(ServingClusterTest, PlanShippingCapsFleetSearchesAtDistinctKeys) {
  const auto trace = MixedTrace(4, 60);
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kPlanAffinity}) {
    ClusterConfig config;
    config.replicas = 4;
    config.policy = policy;
    config.ship_plans = true;
    const FleetReport report = RunFleet(config, trace);
    ASSERT_EQ(report.stats.count(), trace.size());
    // The fleet pays each distinct scenario's search exactly once.
    EXPECT_LE(report.total_searches, report.distinct_keys) << PlacementPolicyName(policy);
    EXPECT_EQ(report.shipping.published, report.distinct_keys);
    // Every publish reached the other three replicas.
    EXPECT_GE(report.shipping.shipped, 3 * report.distinct_keys);
  }
}

TEST(ServingClusterTest, FleetReplaysEachKeyOncePerFleet) {
  const auto trace = MixedTrace(4, 60);
  ClusterConfig config;
  config.replicas = 4;
  config.policy = PlacementPolicy::kRoundRobin;  // spreads each key over replicas
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  const FleetReport report = fleet.Run(trace);
  ASSERT_EQ(report.stats.count(), trace.size());
  ASSERT_EQ(report.distinct_keys, 4u);
  // The events of replaying each distinct spec exactly once.
  OverlapEngine reference(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  for (int k = 0; k < 4; ++k) {
    reference.ExecuteMemoized(SmallSpec(1024 + 512 * k));
  }
  ASSERT_GT(reference.executor().replay_events(), 0u);
  uint64_t fleet_events = 0;
  for (const auto& replica : fleet.replicas()) {
    EXPECT_GT(replica->session()->report().batches, 0u) << "replica " << replica->id();
    EXPECT_EQ(replica->engine().run_memo_size(), 4u) << "replica " << replica->id();
    fleet_events += replica->engine().executor().replay_events();
  }
  // Every key was replayed once fleet-wide: each other replica's first
  // batch of it was a memo hit.
  EXPECT_EQ(fleet_events, reference.executor().replay_events());
}

// One offline stage per fleet: every replica's tuner is pointed at the
// keyer's stage when it spawns, so all of them return the same GEMM
// configuration and latency curve objects.
TEST(ServingClusterTest, ReplicasShareOneOfflineStage) {
  const auto trace = MixedTrace(4, 60);
  ClusterConfig config;
  config.replicas = 4;
  config.policy = PlacementPolicy::kRoundRobin;
  ServingCluster fleet(Make4090Cluster(4), config);
  fleet.Run(trace);
  ASSERT_EQ(fleet.replicas().size(), 4u);
  Tuner& first = fleet.replicas()[0]->engine().tuner();
  for (const auto& replica : fleet.replicas()) {
    Tuner& tuner = replica->engine().tuner();
    for (int k = 0; k < 4; ++k) {
      const GemmShape shape = SmallSpec(1024 + 512 * k).shapes[0];
      EXPECT_EQ(&tuner.GemmConfigFor(shape), &first.GemmConfigFor(shape))
          << "replica " << replica->id();
    }
    for (const CommPrimitive primitive :
         {CommPrimitive::kAllReduce, CommPrimitive::kReduceScatter}) {
      EXPECT_EQ(&tuner.LatencyCurveFor(primitive), &first.LatencyCurveFor(primitive))
          << "replica " << replica->id();
    }
  }
}

// Expects every replica store to hold `key` as one shared plan object.
void ExpectOnePlanObject(const ServingCluster& fleet, uint64_t key) {
  const ExecutionPlan* shared = nullptr;
  for (const auto& replica : fleet.replicas()) {
    const ExecutionPlan* plan = replica->store()->Find(key).get();
    ASSERT_NE(plan, nullptr) << "replica " << replica->id();
    if (shared == nullptr) {
      shared = plan;
    }
    EXPECT_EQ(plan, shared) << "replica " << replica->id() << " holds its own copy";
  }
}

// Snapshot import and bootstrap, publish fan-out, a late autoscaler spawn
// and a crash restart's re-warm all hand replicas the published plan
// object, not a copy of it; a published plan is the tuning replica's own.
TEST(ServingClusterTest, ReplicasHoldOnePlanObjectPerKey) {
  std::string snapshot;
  {
    ClusterConfig single;
    single.replicas = 1;
    ServingCluster source(Make4090Cluster(4), single, {}, EngineOptions{.jitter = false});
    source.Run(MixedTrace(2, 10));
    snapshot = source.shipper().SerializeSnapshot();
  }
  ClusterConfig config;
  config.replicas = 2;
  config.policy = PlacementPolicy::kRoundRobin;
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = 2;
  config.autoscale.max_replicas = 4;
  config.autoscale.check_interval_us = 20000.0;
  config.autoscale.spawn_queue_per_replica = 4.0;
  config.autoscale.drain_after_calm_checks = 1000;  // keep every replica subscribed
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  ASSERT_EQ(fleet.ImportPlans(snapshot), 2u);
  const uint64_t warm[] = {fleet.KeyFor(SmallSpec(1024)), fleet.KeyFor(SmallSpec(1536))};
  fleet.Run(std::vector<ServeRequest>{});
  ASSERT_EQ(fleet.replicas().size(), 2u);
  for (const uint64_t key : warm) {
    ExpectOnePlanObject(fleet, key);
  }

  // A burst with one cold key: one replica tunes and publishes it, the
  // others receive it, and the autoscaler spawns late replicas.
  std::vector<ServeRequest> burst;
  for (int i = 0; i < 60; ++i) {
    burst.push_back({i, "burst", static_cast<double>(i), SmallSpec(1024 + 512 * (i % 3))});
  }
  const FleetReport report = fleet.Run(burst);
  ASSERT_EQ(report.stats.count(), burst.size());
  ASSERT_GT(report.spawns, 0u);
  ASSERT_EQ(report.total_searches, 1u);
  for (const uint64_t key : warm) {
    ExpectOnePlanObject(fleet, key);
  }
  // The replica that tuned the cold key holds the object it built, and
  // so does every other replica.
  ExpectOnePlanObject(fleet, fleet.KeyFor(SmallSpec(2048)));

  // A crash empties replica 0's store; the restart re-warms it from the
  // published set.
  ClusterConfig crashing;
  crashing.replicas = 2;
  ServingCluster crashed(Make4090Cluster(4), crashing, {}, EngineOptions{.jitter = false});
  ASSERT_EQ(crashed.ImportPlans(snapshot), 2u);
  FaultSchedule schedule;
  schedule.Add(FaultEvent{5000.0, FaultKind::kCrash, 0, 8000.0, 0.0});
  crashed.SetFaultSchedule(schedule);
  const FleetReport recovered = crashed.Run(MixedTrace(2, 20));
  ASSERT_EQ(recovered.fault.replica_restarts, 1u);
  ASSERT_EQ(recovered.fault.plans_rewarmed, 2u);
  for (const uint64_t key : warm) {
    ExpectOnePlanObject(crashed, key);
  }
}

TEST(ServingClusterTest, ReportsAreDeterministicAndPlansReplicaCountInvariant) {
  const auto trace = MixedTrace(3, 40);
  ClusterConfig config;
  config.replicas = 4;
  const FleetReport a = RunFleet(config, trace);
  const FleetReport b = RunFleet(config, trace);
  EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
  ASSERT_EQ(a.stats.count(), b.stats.count());
  for (size_t i = 0; i < a.stats.count(); ++i) {
    EXPECT_DOUBLE_EQ(a.stats.records()[i].finish_us, b.stats.records()[i].finish_us);
  }

  // The published plans are bit-identical at any replica count: the
  // snapshot depends only on the scenario mix and deployment.
  std::string snapshot;
  for (const int replicas : {1, 2, 4}) {
    ClusterConfig sized;
    sized.replicas = replicas;
    ServingCluster fleet(Make4090Cluster(4), sized, {}, EngineOptions{.jitter = false});
    fleet.Run(trace);
    const std::string serialized = fleet.shipper().SerializeSnapshot();
    if (snapshot.empty()) {
      snapshot = serialized;
    }
    EXPECT_EQ(serialized, snapshot) << replicas << " replicas";
  }
}

TEST(ServingClusterTest, AutoscalerSpawnsUnderBurstAndDrainsInTheCalm) {
  // A hard burst at t=0 followed by a long sparse tail: the fleet must
  // widen for the burst and give the capacity back during the tail.
  std::vector<ServeRequest> trace;
  int64_t id = 0;
  for (int i = 0; i < 60; ++i) {
    trace.push_back({id++, "burst", static_cast<double>(i), SmallSpec(1024 + 512 * (i % 3))});
  }
  for (int i = 0; i < 12; ++i) {
    trace.push_back({id++, "tail", 2.0e6 + 400000.0 * i, SmallSpec(1024)});
  }
  ClusterConfig config;
  config.replicas = 1;
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = 1;
  config.autoscale.max_replicas = 4;
  config.autoscale.check_interval_us = 20000.0;
  config.autoscale.spawn_queue_per_replica = 4.0;
  config.autoscale.drain_queue_per_replica = 1.0;
  config.autoscale.drain_after_calm_checks = 3;
  const FleetReport report = RunFleet(config, trace);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_GT(report.peak_replicas, 1);
  EXPECT_GT(report.spawns, 0u);
  EXPECT_GT(report.drains, 0u);
  for (const ReplicaReport& replica : report.replicas) {
    if (replica.retired_us >= 0.0) {
      EXPECT_GT(replica.retired_us, replica.spawned_us);
    }
  }
  // Deterministic at any scale: the same burst scales the same way twice.
  const FleetReport again = RunFleet(config, trace);
  EXPECT_EQ(report.spawns, again.spawns);
  EXPECT_EQ(report.drains, again.drains);
  EXPECT_DOUBLE_EQ(report.makespan_us, again.makespan_us);

  // A second run on the same (shrunken) fleet reports that run only: no
  // stale requests, searches, or makespan leak from retired replicas'
  // first-run sessions, and the warm stores serve without searching.
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  const FleetReport first = fleet.Run(trace);
  ASSERT_GT(first.drains, 0u);
  const FleetReport second = fleet.Run(trace);
  EXPECT_EQ(second.stats.count(), trace.size());
  EXPECT_EQ(second.total_searches, 0u);
  // The sparse tail's last arrival dominates the makespan in both runs;
  // the warm run can only be at least as fast.
  EXPECT_LE(second.makespan_us, first.makespan_us);
}

TEST(ServingClusterTest, DrainRacingColdTuningStillPublishesEveryKey) {
  // A cold burst wide enough to spawn extra replicas, then a calm tail
  // that drains them while ~20ms cold searches may still be in flight on
  // the draining replicas. The drain must not lose those searches: every
  // key the run touched ends up in the published set (the draining
  // owner finishes and publishes, or a peer re-acquires and tunes), the
  // tail serves warm, and the fleet still pays at most one search per
  // distinct key.
  std::vector<ServeRequest> trace;
  int64_t id = 0;
  for (int i = 0; i < 48; ++i) {
    trace.push_back({id++, "burst", static_cast<double>(i), SmallSpec(1024 + 512 * (i % 6))});
  }
  for (int i = 0; i < 12; ++i) {
    trace.push_back({id++, "tail", 1.5e6 + 400000.0 * i, SmallSpec(1024 + 512 * (i % 6))});
  }
  ClusterConfig config;
  config.replicas = 1;
  config.ship_plans = true;
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = 1;
  config.autoscale.max_replicas = 4;
  config.autoscale.check_interval_us = 10000.0;
  config.autoscale.spawn_queue_per_replica = 4.0;
  config.autoscale.drain_queue_per_replica = 1.0;
  config.autoscale.drain_after_calm_checks = 2;
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  const FleetReport report = fleet.Run(trace);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_GT(report.spawns, 0u);
  EXPECT_GT(report.drains, 0u);
  EXPECT_LE(report.total_searches, report.distinct_keys);
  for (int k = 0; k < 6; ++k) {
    EXPECT_TRUE(fleet.shipper().Published(fleet.KeyFor(SmallSpec(1024 + 512 * k))))
        << "key " << k << " lost to a drained replica";
  }
}

TEST(ServingClusterTest, SavedSnapshotWarmStartsAFreshFleet) {
  const auto trace = MixedTrace(3, 30);
  const std::string path = ::testing::TempDir() + "/fleet_plans.txt";
  ClusterConfig config;
  config.replicas = 2;
  {
    ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
    const FleetReport cold = fleet.Run(trace);
    EXPECT_GT(cold.total_searches, 0u);
    ASSERT_TRUE(fleet.SavePlans(path));
  }
  ServingCluster warm_fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  ASSERT_GT(warm_fleet.LoadPlans(path), 0u);
  const FleetReport warm = warm_fleet.Run(trace);
  EXPECT_EQ(warm.total_searches, 0u);
  EXPECT_DOUBLE_EQ(warm.WarmHitRate(), 1.0);
  std::remove(path.c_str());
}

TEST(ServingClusterTest, BoundedStoresChurnButTheFleetStillServes) {
  const auto trace = MixedTrace(4, 30);
  ClusterConfig config;
  config.replicas = 2;
  config.store_capacity = 1;  // every publish evicts something
  const FleetReport report = RunFleet(config, trace);
  ASSERT_EQ(report.stats.count(), trace.size());
  // Eviction re-pays shipping (re-ships) but never a duplicate search.
  EXPECT_LE(report.total_searches, report.distinct_keys);
  for (const ReplicaReport& replica : report.replicas) {
    EXPECT_LE(replica.plans_resident, 1u);
  }
}

// A trace mixing balanced keys with imbalanced All-to-All keys — including
// two that share a heaviest rank but differ in light ranks, the pre-tune
// collision case.
std::vector<ServeRequest> MixedImbalancedTrace(int per_tenant) {
  const GemmShape heavy{8192, 2048, 1024};
  std::vector<ScenarioSpec> specs;
  specs.push_back(SmallSpec(1024));
  specs.push_back(SmallSpec(1536));
  specs.push_back(ScenarioSpec::Imbalanced(
      {heavy, GemmShape{1024, 2048, 1024}, GemmShape{1024, 2048, 1024},
       GemmShape{1024, 2048, 1024}},
      CommPrimitive::kAllToAll));
  specs.push_back(ScenarioSpec::Imbalanced(
      {heavy, GemmShape{4096, 2048, 1024}, GemmShape{4096, 2048, 1024},
       GemmShape{4096, 2048, 1024}},
      CommPrimitive::kAllToAll));
  // Sparse relative to the 20 ms simulated search cost, so most requests
  // land after their key's tuning window and can actually serve warm.
  return MergeStreams(
      {MakeRequestStream("llm", specs, PoissonArrivals(8000.0, per_tenant, 3), 0),
       MakeRequestStream("moe", specs, BurstyArrivals(16000.0, 4.0, 6, per_tenant, 5),
                         400000)});
}

// Shipped plans are the tuning replicas' objects, not parses of record
// text, so an on-disk warm start must load equal plans: after a fleet
// run that publishes cold keys, every replica's plan equals, by value,
// what a parse of the fleet snapshot holds for its key, and the shipped
// objects and that parse both serialize to the snapshot's plan tier.
TEST(ServingClusterTest, ShippedPlansEqualTheirSnapshotParse) {
  ClusterConfig config;
  config.replicas = 3;
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  const FleetReport report = fleet.Run(MixedImbalancedTrace(10));
  ASSERT_EQ(report.shipping.published, 4u);
  const std::string snapshot = fleet.shipper().SerializeSnapshot();
  const std::optional<PlanStore> parsed = PlanStore::Parse(snapshot);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 4u);
  const std::string plan_tier = parsed->Serialize();
  EXPECT_EQ(snapshot.compare(0, plan_tier.size(), plan_tier), 0);
  for (const auto& replica : fleet.replicas()) {
    SCOPED_TRACE("replica " + std::to_string(replica->id()));
    PlanStore shipped;
    for (const auto& [key, entry] : parsed->plans()) {
      const PlanStore::Handle plan = replica->store()->Peek(key);
      ASSERT_NE(plan, nullptr);
      EXPECT_EQ(*plan, *entry.plan);
      shipped.Put(key, plan);
    }
    EXPECT_EQ(shipped.Serialize(), plan_tier);
  }
}

TEST(ServingClusterTest, ImbalancedKeysShipWarmAndStayDeterministic) {
  const auto trace = MixedImbalancedTrace(40);
  ClusterConfig config;
  config.replicas = 4;
  config.policy = PlacementPolicy::kPlanAffinity;
  config.ship_plans = true;
  const FleetReport report = RunFleet(config, trace);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_EQ(report.distinct_keys, 4u);
  // Each key — the imbalanced multisets included — is searched at most
  // once fleet-wide; shipped plans serve everyone else warm.
  EXPECT_LE(report.total_searches, report.distinct_keys);
  EXPECT_EQ(report.shipping.published, report.distinct_keys);
  EXPECT_GT(report.WarmHitRate(), 0.8);

  // Bit-deterministic across reruns.
  const FleetReport again = RunFleet(config, trace);
  EXPECT_DOUBLE_EQ(again.makespan_us, report.makespan_us);
  EXPECT_EQ(again.total_searches, report.total_searches);
  ASSERT_EQ(again.stats.count(), report.stats.count());
  for (size_t i = 0; i < report.stats.count(); ++i) {
    EXPECT_DOUBLE_EQ(again.stats.records()[i].finish_us,
                     report.stats.records()[i].finish_us)
        << i;
  }

  // Plan-affinity without shipping still pays each imbalanced key once:
  // the router keeps every key on the replica that tuned it.
  ClusterConfig affinity_only = config;
  affinity_only.ship_plans = false;
  const FleetReport affinity = RunFleet(affinity_only, trace);
  EXPECT_EQ(affinity.total_searches, affinity.distinct_keys);
}

}  // namespace
}  // namespace flo
