#include "src/cluster/replica_table.h"

#include "src/util/check.h"

namespace flo {

int ReplicaTable::AddSlot() {
  const int id = size();
  busy_until_.push_back(0.0);
  queued_.push_back(0);
  if (Index(id) / 64 == accepting_.size()) {
    accepting_.push_back(0);
    for (auto& [key, bits] : keys_) {
      bits.resident.push_back(0);
      bits.tuning.push_back(0);
    }
  }
  return id;
}

void ReplicaTable::ResetSession(int id) {
  SetLoad(id, 0.0, 0);
  for (auto& [key, bits] : keys_) {
    SetBit(&bits.tuning, id, false);
  }
}

void ReplicaTable::SetLoad(int id, SimTime busy_until, size_t queued) {
  busy_until_[Slot(id)] = busy_until;
  queued_[Slot(id)] = queued;
}

void ReplicaTable::SetResident(int id, uint64_t key, bool resident) {
  SetBit(&RowFor(key).resident, id, resident);
}

void ReplicaTable::SetTuning(int id, uint64_t key, bool tuning) {
  SetBit(&RowFor(key).tuning, id, tuning);
}

const ReplicaTable::KeyBits* ReplicaTable::Bits(uint64_t key) const {
  const auto it = keys_.find(key);
  return it == keys_.end() ? nullptr : &it->second;
}

bool ReplicaTable::resident(int id, uint64_t key) const {
  const KeyBits* bits = Bits(key);
  return bits != nullptr && Test(bits->resident, id);
}

bool ReplicaTable::tuning(int id, uint64_t key) const {
  const KeyBits* bits = Bits(key);
  return bits != nullptr && Test(bits->tuning, id);
}

size_t ReplicaTable::Slot(int id) const {
  FLO_CHECK(id >= 0 && id < size()) << "replica slot " << id << " out of range";
  return Index(id);
}

void ReplicaTable::SetBit(std::vector<uint64_t>* words, int id, bool on) {
  const uint64_t mask = uint64_t{1} << (Slot(id) % 64);
  uint64_t& word = (*words)[Index(id) / 64];
  word = on ? (word | mask) : (word & ~mask);
}

ReplicaTable::KeyBits& ReplicaTable::RowFor(uint64_t key) {
  const auto [it, inserted] = keys_.try_emplace(key);
  if (inserted) {
    it->second.resident.assign(words(), 0);
    it->second.tuning.assign(words(), 0);
  }
  return it->second;
}

}  // namespace flo
