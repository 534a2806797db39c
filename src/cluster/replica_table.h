// The fleet's placement state as a persistent table, kept current by the
// events that change it instead of rebuilt from every replica on every
// arrival.
//
// One slot per replica; a replica's id is its slot index (the cluster
// never erases replicas). Per slot, as structure-of-arrays (`accepting` as
// a bitset, so the router can AND it with a key's bits a word at a time):
//   accepting   - active, not draining, healthy: written at spawn, drain,
//                 retire, and every health change;
//   busy_until  - the executor's busy horizon, and
//   queued      - requests admitted but not yet dispatched: both written
//                 from the session's load feed (admit, batch dispatch,
//                 extraction, shed); `queued == 0` is mirrored as a
//                 bitset, so the zero-load search skips whole words of
//                 backlogged slots.
// Per plan key, two bitsets over slots:
//   resident    - the replica's PlanStore holds the key (store Put, evict,
//                 Erase, Clear, via the store's change callback);
//   tuning      - the replica is tuning the key (tune start, finish,
//                 abort, and extraction, via the session's tuning feed).
// A key is warm on a replica when it is resident and not tuning there.
// The router reads the table directly (FleetRouter::Place overload).
#ifndef SRC_CLUSTER_REPLICA_TABLE_H_
#define SRC_CLUSTER_REPLICA_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/sim/event_record.h"

namespace flo {

class ReplicaTable {
 public:
  // One key's bitsets. In every bitset here, bit `id % 64` of word
  // `id / 64` is slot `id`, and every bitset holds words() words.
  struct KeyBits {
    std::vector<uint64_t> resident;
    std::vector<uint64_t> tuning;
  };

  // Appends a slot and returns its id (the previous size()): not
  // accepting, idle, no key bits.
  int AddSlot();
  // A fresh session on slot `id`: idle load, no tuning bits. Resident bits
  // stay — the replica's store outlives its sessions.
  void ResetSession(int id);

  void SetAccepting(int id, bool accepting) { SetBit(&Word(id).accepting, id, accepting); }
  void SetLoad(int id, SimTime busy_until, size_t queued);
  void SetResident(int id, uint64_t key, bool resident);
  void SetTuning(int id, uint64_t key, bool tuning);

  int size() const { return static_cast<int>(busy_until_.size()); }
  size_t words() const { return slot_words_.size(); }
  bool accepting(int id) const {
    return ((slot_words_[Index(id) / 64].accepting >> (Index(id) % 64)) & 1) != 0;
  }
  // Word `w` of the accepting bitset.
  uint64_t accepting_word(size_t w) const { return slot_words_[w].accepting; }
  SimTime busy_until(int id) const { return busy_until_[Index(id)]; }
  size_t queued(int id) const { return queued_[Index(id)]; }
  // The load the router minimizes: executor time still owed plus the
  // queued backlog priced at `cost_estimate_us` per request.
  double Load(int id, SimTime now, double cost_estimate_us) const {
    const size_t i = Index(id);
    return std::max(0.0, busy_until_[i] - now) +
           static_cast<double>(queued_[i]) * cost_estimate_us;
  }
  // The lowest slot of word `w` among the bits of `among` whose
  // Load(id, now, cost_estimate_us) is exactly 0, as a bit index in the
  // word; -1 when there is none. Zero load means busy_until <= now and
  // (nothing queued, or a zero cost estimate), exact for any finite
  // non-negative estimate. Narrows `among` to the empty-queue bits, then
  // tests horizons 8 slots at a time without branching on any one slot,
  // from the chunk of the lowest bit up, stopping at the first chunk that
  // holds a zero.
  int LowestZeroLoad(size_t w, uint64_t among, SimTime now, double cost_estimate_us) const;
  // nullptr when no slot has ever held or tuned `key`.
  const KeyBits* Bits(uint64_t key) const;
  bool resident(int id, uint64_t key) const;
  bool tuning(int id, uint64_t key) const;

 private:
  static size_t Index(int id) { return static_cast<size_t>(id); }
  static bool Test(const std::vector<uint64_t>& words, int id) {
    return ((words[Index(id) / 64] >> (Index(id) % 64)) & 1) != 0;
  }
  // Index of slot `id`, checked against size().
  size_t Slot(int id) const;
  // The per-slot bitsets, one word of each per 64 slots.
  struct SlotWords {
    uint64_t accepting = 0;
    uint64_t queue_empty = 0;  // queued_ == 0
  };
  SlotWords& Word(int id) { return slot_words_[Slot(id) / 64]; }
  // Sets or clears slot `id`'s bit in `word`, the word holding it.
  void SetBit(uint64_t* word, int id, bool on);
  void SetBit(std::vector<uint64_t>* words, int id, bool on);
  KeyBits& RowFor(uint64_t key);

  std::vector<SlotWords> slot_words_;
  std::vector<SimTime> busy_until_;
  std::vector<size_t> queued_;
  std::unordered_map<uint64_t, KeyBits> keys_;
};

}  // namespace flo

#endif  // SRC_CLUSTER_REPLICA_TABLE_H_
