#include "src/cluster/replica_table.h"

#include <bit>

#include "src/util/check.h"

namespace flo {

int ReplicaTable::AddSlot() {
  const int id = size();
  busy_until_.push_back(0.0);
  queued_.push_back(0);
  if (Index(id) / 64 == slot_words_.size()) {
    slot_words_.emplace_back();
    for (auto& [key, bits] : keys_) {
      bits.resident.push_back(0);
      bits.tuning.push_back(0);
    }
  }
  SetBit(&Word(id).queue_empty, id, true);
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
  SetBit(&Word(id).queue_empty, id, queued == 0);
}

void ReplicaTable::SetResident(int id, uint64_t key, bool resident) {
  SetBit(&RowFor(key).resident, id, resident);
}

void ReplicaTable::SetTuning(int id, uint64_t key, bool tuning) {
  SetBit(&RowFor(key).tuning, id, tuning);
}

int ReplicaTable::LowestZeroLoad(size_t w, uint64_t among, SimTime now,
                                 double cost_estimate_us) const {
  if (cost_estimate_us != 0.0) {
    among &= slot_words_[w].queue_empty;
  }
  const size_t base = w * 64;
  const size_t slots = std::min<size_t>(64, busy_until_.size() - base);
  while (among != 0) {
    const size_t chunk = static_cast<size_t>(std::countr_zero(among)) & ~size_t{7};
    uint64_t zero = 0;
    for (size_t j = chunk; j < std::min(chunk + 8, slots); ++j) {
      zero |= static_cast<uint64_t>(busy_until_[base + j] <= now ? 1 : 0) << j;
    }
    zero &= among;
    if (zero != 0) {
      return std::countr_zero(zero);
    }
    among &= ~(uint64_t{0xff} << chunk);
  }
  return -1;
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

void ReplicaTable::SetBit(uint64_t* word, int id, bool on) {
  const uint64_t mask = uint64_t{1} << (Slot(id) % 64);
  *word = on ? (*word | mask) : (*word & ~mask);
}

void ReplicaTable::SetBit(std::vector<uint64_t>* words, int id, bool on) {
  SetBit(&(*words)[Slot(id) / 64], id, on);
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
