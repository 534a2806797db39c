#include "src/cluster/plan_shipping.h"

#include <fstream>
#include <utility>

#include "src/util/check.h"
#include "src/util/logging.h"

namespace flo {

namespace {

// Puts every plan of `from` into `into`, in key order: the order in which
// ImportRecords of from.Serialize() would put them. Returns the count.
size_t PutAll(const PlanStore& from, PlanStore* into) {
  for (const auto& [key, plan] : from.plans()) {
    into->Put(key, plan);
  }
  return from.size();
}

}  // namespace

void PlanShipper::ShipToLocked(uint64_t key, const std::string& record,
                               Subscriber* subscriber) {
  stats_.shipped += subscriber->store->ImportRecords(record);
  if (subscriber->tuner != nullptr) {
    const auto artifact = artifacts_.find(key);
    if (artifact != artifacts_.end()) {
      subscriber->tuner->ImportPlans({artifact->second});
    }
  }
}

size_t PlanShipper::Subscribe(int replica_id, std::shared_ptr<PlanStore> store,
                              Tuner* tuner) {
  FLO_CHECK(store != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  // Bootstrap: a late subscriber (autoscaler spawn) starts warm — both
  // tiers — with every plan the fleet has already paid for. The published
  // set holds parsed records already (and only changes under mu_), so its
  // plans are put directly instead of re-serialized and re-parsed.
  const size_t bootstrapped = PutAll(published_, store.get());
  stats_.shipped += bootstrapped;
  if (tuner != nullptr && !artifacts_.empty()) {
    std::vector<StoredPlan> artifacts;
    artifacts.reserve(artifacts_.size());
    for (const auto& [key, artifact] : artifacts_) {
      artifacts.push_back(artifact);
    }
    tuner->ImportPlans(artifacts);
  }
  subscribers_[replica_id] = Subscriber{std::move(store), tuner};
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
  if (const std::optional<std::string> record = published_.ExportRecord(key)) {
    // Already tuned fleet-wide: re-ship into the caller (its bounded
    // store evicted the copy) instead of letting it re-search.
    const auto it = subscribers_.find(replica_id);
    if (it != subscribers_.end()) {
      ShipToLocked(key, *record, &it->second);
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
  const std::optional<std::string> record = source.ExportRecord(key);
  std::lock_guard<std::mutex> lock(mu_);
  // Release ownership unconditionally: if the owner's bounded store
  // evicted the plan before the publish (nothing to export), a peer must
  // be able to acquire the key and tune it, not stay parked forever.
  in_flight_.erase(key);
  if (!record.has_value()) {
    return false;
  }
  // A re-publish (an evicted copy re-tuned at zero searches) refreshes
  // the published set but is not a new plan and fans out nothing: peers
  // that lost their copy re-fetch through BeginTuning.
  const bool fresh = !published_.Contains(key);
  if (published_.ImportRecords(*record) == 0) {
    return false;
  }
  if (!fresh) {
    return true;
  }
  if (artifact != nullptr) {
    artifacts_[key] = *artifact;
  }
  ++stats_.published;
  for (auto& [id, subscriber] : subscribers_) {
    if (subscriber.store.get() == &source) {
      continue;  // the owner already holds what it just tuned
    }
    if (drop_filter_ && drop_filter_(key, id)) {
      // Injected shipping loss: the delivery vanishes. The victim's
      // parked batches re-acquire through BeginTuning, whose re-ship
      // pull is not filtered.
      ++stats_.ship_drops;
      continue;
    }
    ShipToLocked(key, *record, &subscriber);
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
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  file << SerializeSnapshot();
  return static_cast<bool>(file);
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
  // subscriber store in the same (key) order a per-store ImportRecords of
  // the text would apply.
  const std::optional<PlanStore> parsed = PlanStore::Parse(text);
  if (!parsed.has_value()) {
    FLO_LOG(kError) << "snapshot import rejected: malformed or truncated plan tier ("
                    << text.size() << " bytes); nothing applied";
    return 0;
  }
  const size_t imported = PutAll(*parsed, &published_);
  if (imported == 0) {
    return 0;
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
    stats_.shipped += PutAll(*parsed, subscriber.store.get());
    if (subscriber.tuner != nullptr && !artifacts.empty()) {
      subscriber.tuner->ImportPlans(artifacts);
    }
  }
  return imported;
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
