#include "src/cluster/plan_shipping.h"

#include <iterator>
#include <utility>

#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/logging.h"

namespace flo {

size_t PlanShipper::DeliverLocked(PlanIterator first, PlanIterator last,
                                  const std::vector<StoredPlan>& artifacts,
                                  Subscriber* subscriber) {
  size_t delivered = 0;
  for (; first != last; ++first) {
    subscriber->store->Put(first->first, first->second.plan);
    ++delivered;
  }
  stats_.shipped += delivered;
  if (subscriber->tuner != nullptr && !artifacts.empty()) {
    subscriber->tuner->ImportPlans(artifacts);
  }
  return delivered;
}

std::vector<StoredPlan> PlanShipper::ArtifactsForLocked(uint64_t key) const {
  const auto artifact = artifacts_.find(key);
  if (artifact == artifacts_.end()) {
    return {};
  }
  return {artifact->second};
}

size_t PlanShipper::Subscribe(int replica_id, std::shared_ptr<PlanStore> store,
                              Tuner* tuner) {
  FLO_CHECK(store != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  // Bootstrap: a late subscriber (autoscaler spawn) starts warm — both
  // tiers — with every plan the fleet has already paid for.
  Subscriber subscriber{std::move(store), tuner};
  std::vector<StoredPlan> artifacts;
  if (tuner != nullptr) {
    artifacts.reserve(artifacts_.size());
    for (const auto& [key, artifact] : artifacts_) {
      artifacts.push_back(artifact);
    }
  }
  const auto& published = published_.plans();
  const size_t bootstrapped =
      DeliverLocked(published.begin(), published.end(), artifacts, &subscriber);
  subscribers_[replica_id] = std::move(subscriber);
  return bootstrapped;
}

void PlanShipper::Unsubscribe(int replica_id) {
  std::lock_guard<std::mutex> lock(mu_);
  subscribers_.erase(replica_id);
}

size_t PlanShipper::ReleaseReplica(int replica_id) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t released = 0;
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (it->second == replica_id) {
      it = in_flight_.erase(it);
      ++released;
    } else {
      ++it;
    }
  }
  return released;
}

void PlanShipper::AbandonTuning(uint64_t key, int replica_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = in_flight_.find(key);
  if (it != in_flight_.end() && it->second == replica_id) {
    in_flight_.erase(it);
  }
}

void PlanShipper::SetDropFilter(DropFilter filter) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_filter_ = std::move(filter);
}

bool PlanShipper::BeginTuning(uint64_t key, int replica_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto& published = published_.plans();
  if (const auto plan = published.find(key); plan != published.end()) {
    // Already tuned fleet-wide: re-ship into the caller (its bounded
    // store evicted the plan) instead of letting it re-search.
    const auto it = subscribers_.find(replica_id);
    if (it != subscribers_.end()) {
      DeliverLocked(plan, std::next(plan), ArtifactsForLocked(key), &it->second);
    }
    return true;
  }
  const auto [it, inserted] = in_flight_.try_emplace(key, replica_id);
  if (inserted || it->second == replica_id) {
    return true;
  }
  ++stats_.duplicate_tunes_avoided;
  return false;
}

bool PlanShipper::Publish(uint64_t key, const PlanStore& source, const StoredPlan* artifact) {
  const PlanStore::Handle plan = source.Peek(key);
  std::lock_guard<std::mutex> lock(mu_);
  // Release ownership unconditionally: if the owner's bounded store
  // evicted the plan before the publish (nothing to ship), a peer must be
  // able to acquire the key and tune it, not stay parked forever.
  in_flight_.erase(key);
  if (plan == nullptr) {
    return false;
  }
  // A re-publish (an evicted plan re-tuned at zero searches) is not a new
  // plan: the published object stays and nothing fans out. Peers that
  // lost their plan re-fetch through BeginTuning.
  if (published_.Contains(key)) {
    return true;
  }
  if (artifact != nullptr) {
    artifacts_[key] = *artifact;
  }
  ++stats_.published;
  // The owner's plan object becomes the fleet's: peers receive its handle.
  published_.Put(key, plan);
  const auto published = published_.plans().find(key);
  const std::vector<StoredPlan> artifacts = ArtifactsForLocked(key);
  for (auto& [id, subscriber] : subscribers_) {
    if (subscriber.store.get() == &source) {
      continue;  // the owner already holds this plan object
    }
    if (drop_filter_ && drop_filter_(key, id)) {
      // Injected shipping loss: the delivery vanishes. The victim's
      // parked batches re-acquire through BeginTuning, whose re-ship
      // pull is not filtered.
      ++stats_.ship_drops;
      continue;
    }
    DeliverLocked(published, std::next(published), artifacts, &subscriber);
  }
  return true;
}

std::string PlanShipper::SerializeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = published_.Serialize();
  // Tuner tier rides along as '#tuner' comment lines: plan-tier parsers
  // skip them, so the combined file stays loadable by PlanStore::Parse.
  std::vector<std::pair<uint64_t, StoredPlan>> artifacts(artifacts_.begin(),
                                                         artifacts_.end());
  out += SerializeTunerTier(artifacts);
  return out;
}

bool PlanShipper::SaveSnapshot(const std::string& path) const {
  return WriteStringToFile(path, SerializeSnapshot());
}

size_t PlanShipper::ImportSnapshot(const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  // Tuner tier first: a malformed tier rejects the snapshot whole, before
  // any plan-tier record lands in the published set.
  auto tuner_tier = ParseTunerTier(text);
  if (!tuner_tier.has_value()) {
    return 0;
  }
  // The plan tier is parsed once and put into the published set and every
  // subscriber store in key order, as a per-store Parse and Put of each
  // plan would apply it.
  const std::optional<PlanStore> parsed = PlanStore::Parse(text);
  if (!parsed.has_value()) {
    FLO_LOG(kError) << "snapshot import rejected: malformed or truncated plan tier ("
                    << text.size() << " bytes); nothing applied";
    return 0;
  }
  const auto& plans = parsed->plans();
  if (plans.empty()) {
    return 0;
  }
  for (const auto& [key, entry] : plans) {
    published_.Put(key, entry.plan);
  }
  std::vector<StoredPlan> artifacts;
  artifacts.reserve(tuner_tier->size());
  for (const auto& [key, artifact] : *tuner_tier) {
    artifacts.push_back(artifact);
  }
  for (auto& [key, artifact] : *tuner_tier) {
    artifacts_[key] = std::move(artifact);
  }
  // Ship only the records just imported — re-shipping the whole
  // published set would churn the LRU order of bounded subscriber stores.
  for (auto& [id, subscriber] : subscribers_) {
    DeliverLocked(plans.begin(), plans.end(), artifacts, &subscriber);
  }
  return plans.size();
}

size_t PlanShipper::published_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_.size();
}

bool PlanShipper::Published(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_.Contains(key);
}

PlanShipperStats PlanShipper::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace flo
