#include "src/cluster/spec_catalog.h"

#include "src/util/check.h"

namespace flo {

namespace {

uint64_t MixWord(uint64_t hash, uint64_t word) {
  hash = (hash ^ word) * 0x9E3779B97F4A7C15ull;
  return hash ^ (hash >> 29);
}

}  // namespace

SpecCatalog::SpecCatalog(const OverlapPlanner* keyer) : keyer_(keyer) {
  FLO_CHECK(keyer_ != nullptr);
}

uint64_t SpecCatalog::Hash(const ScenarioSpec& spec) {
  uint64_t hash = MixWord(0, static_cast<uint64_t>(spec.kind));
  hash = MixWord(hash, static_cast<uint64_t>(spec.primitive));
  hash = MixWord(hash, static_cast<uint64_t>(spec.extra_tiles));
  for (const GemmShape& shape : spec.shapes) {
    hash = MixWord(hash, static_cast<uint64_t>(shape.m));
    hash = MixWord(hash, static_cast<uint64_t>(shape.n));
    hash = MixWord(hash, static_cast<uint64_t>(shape.k));
  }
  return hash;
}

uint64_t SpecCatalog::Key(const ScenarioSpec& spec) {
  const uint64_t hash = Hash(spec);
  const Entry* entry = nullptr;
  const auto [first, last] = by_hash_.equal_range(hash);
  for (auto it = first; it != last && entry == nullptr; ++it) {
    if (it->second.spec == spec) {
      entry = &it->second;
    }
  }
  if (entry == nullptr) {
    const uint64_t key = keyer_->CanonicalKey(spec);
    uint64_t* run_stamp = &key_run_stamps_.try_emplace(key, 0).first->second;
    entry = &by_hash_.emplace(hash, Entry{spec, key, run_stamp})->second;
  }
  if (*entry->run_stamp != run_) {
    *entry->run_stamp = run_;
    ++run_keys_;
  }
  return entry->key;
}

void SpecCatalog::BeginRun() {
  if (by_hash_.size() > kMaxSpecs) {
    by_hash_.clear();
    key_run_stamps_.clear();
  }
  ++run_;
  run_keys_ = 0;
}

}  // namespace flo
