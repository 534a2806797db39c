// Plan shipping: the fleet pays each tuner search once.
//
// Replicas subscribe their PlanStores; when one replica finishes a cold
// tune it publishes the plan. A publish ships a handle, not text: the
// owner's immutable plan object goes into the published set and peer
// stores receive that same handle, so the fleet holds one plan object per
// key, the owner's included, however many stores it is delivered to. A
// re-publish of a key already published changes nothing. Record text is
// only the snapshot boundary (SerializeSnapshot / ImportSnapshot); the
// codec writes every field of a plan exactly, so a snapshot reloads plans
// equal to the shipped objects.
//
// The shipper also single-flights searches fleet-wide: BeginTuning grants
// each key to the first replica that asks; peers that lose the race park
// their batches until the owner's plan arrives. A key whose plan is
// already published is re-shipped on demand (a capacity-bounded store may
// have evicted it), so losing a plan never re-pays its search.
//
// The published set doubles as the fleet snapshot: save it to disk and a
// future cluster (or a replica spawned mid-run by the autoscaler) warm-
// starts from it with zero searches.
#ifndef SRC_CLUSTER_PLAN_SHIPPING_H_
#define SRC_CLUSTER_PLAN_SHIPPING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/plan_store.h"
#include "src/core/tuner.h"

namespace flo {

struct PlanShipperStats {
  // Plans published (one per key tuned anywhere in the fleet).
  size_t published = 0;
  // Plan deliveries into subscriber stores (publishes, re-ships,
  // snapshot imports and bootstrap deliveries); each delivery puts the
  // published plan's handle, not a copy.
  size_t shipped = 0;
  // BeginTuning calls denied because a peer owned the in-flight search —
  // duplicate searches the fleet did not pay.
  size_t duplicate_tunes_avoided = 0;
  // Publish fan-out deliveries suppressed by an injected shipping-loss
  // window (src/fault). The victims recover through the BeginTuning
  // re-ship pull path, which the filter never touches.
  size_t ship_drops = 0;
};

class PlanShipper {
 public:
  // Registers a replica's store (and optionally its tuner) as a shipment
  // target and warm-starts both tiers with everything already published —
  // a replica spawned mid-run starts warm. Returns the number of plans
  // bootstrapped into the store (a restarting crashed replica reports
  // this as its re-warm count). The tuner pointer is borrowed; the caller
  // must Unsubscribe before destroying either.
  size_t Subscribe(int replica_id, std::shared_ptr<PlanStore> store, Tuner* tuner = nullptr);
  void Unsubscribe(int replica_id);

  // Crash teardown: releases every in-flight search `replica_id` owns, so
  // the keys are acquirable again (the crashed replica will never publish
  // them). Returns the number released.
  size_t ReleaseReplica(int replica_id);
  // Aborted-search release for one key (injected tuner fault): the owner
  // gives the key up without publishing. No-op unless `replica_id` owns it.
  void AbandonTuning(uint64_t key, int replica_id);

  // Shipping-loss injection (src/fault): while set, a Publish fan-out
  // delivery to (key, replica) is dropped when the filter returns true.
  // Only the push path is filtered — BeginTuning re-ships, Subscribe
  // bootstraps, and ImportSnapshot stay reliable, which is exactly the
  // recovery path a dropped victim falls back to. nullptr clears.
  using DropFilter = std::function<bool(uint64_t key, int replica_id)>;
  void SetDropFilter(DropFilter filter);

  // Fleet-wide single-flight. Returns true when `replica_id` should tune
  // `key` itself: it acquired ownership, or it already owns it. Returns
  // false when a peer owns the in-flight search (park until the publish
  // ships the plan). When the key is already published, the plan (both
  // tiers) is re-shipped into the caller and the call returns true — the
  // caller's "tune" then finds the store warm and costs no search.
  bool BeginTuning(uint64_t key, int replica_id);

  // Releases the in-flight ownership of `key` and publishes `source`'s
  // plan object for it: the published set and every other subscribed
  // store receive its handle. `artifact`, when given, is the tuner-tier
  // StoredPlan behind the key's search: it is delivered to peer tuners
  // (and kept for late subscribers), so a bounded store that later evicts
  // the shipped ExecutionPlan rebuilds it without re-paying the search.
  // Nothing is published (false) when `source` does not hold the key; a
  // key already published keeps its published plan and ships nothing
  // (true).
  bool Publish(uint64_t key, const PlanStore& source, const StoredPlan* artifact = nullptr);

  // The published set, serialized — the fleet snapshot for on-disk
  // warm starts (feed it back via ImportSnapshot or PlanStore::Parse).
  // Two tiers in one file: the ExecutionPlan records, then the tuner-tier
  // StoredPlan artifacts as '#tuner' lines (comments to plan-tier
  // parsers, so old readers load the plan tier unchanged and old
  // snapshots import as an empty tuner tier).
  std::string SerializeSnapshot() const;
  bool SaveSnapshot(const std::string& path) const;
  // Imports both tiers into the published set and ships them to every
  // subscriber (stores and tuners); returns the number of plans imported
  // (0 on malformed text in either tier — nothing is applied).
  size_t ImportSnapshot(const std::string& text);

  size_t published_size() const;
  bool Published(uint64_t key) const;
  PlanShipperStats stats() const;

 private:
  struct Subscriber {
    std::shared_ptr<PlanStore> store;
    Tuner* tuner = nullptr;
  };

  using PlanIterator = std::map<uint64_t, PlanStore::Entry>::const_iterator;

  // The one delivery path (bootstrap, snapshot import, publish fan-out,
  // re-ship): puts the plans in [first, last), by handle, into the
  // subscriber's store in key order, hands `artifacts` to its tuner, and
  // returns the number of plans delivered. Requires mu_.
  size_t DeliverLocked(PlanIterator first, PlanIterator last,
                       const std::vector<StoredPlan>& artifacts, Subscriber* subscriber);
  // The tuner-tier artifact kept for `key`, as a delivery list (empty
  // when none is kept). Requires mu_.
  std::vector<StoredPlan> ArtifactsForLocked(uint64_t key) const;

  mutable std::mutex mu_;
  // The authoritative published set (unbounded: one entry per distinct
  // key the fleet ever tuned). Written only under mu_, so reading its
  // plans() map under mu_ is safe.
  PlanStore published_;
  // The tuner-tier artifact behind each published key's search. Persisted
  // alongside the plan tier by SerializeSnapshot, so a warm-started fleet
  // with bounded stores rebuilds evicted ExecutionPlans from the tuner
  // cache instead of re-paying the search.
  std::map<uint64_t, StoredPlan> artifacts_;
  std::map<int, Subscriber> subscribers_;
  std::map<uint64_t, int> in_flight_;  // key -> owning replica id
  DropFilter drop_filter_;
  PlanShipperStats stats_;
};

}  // namespace flo

#endif  // SRC_CLUSTER_PLAN_SHIPPING_H_
