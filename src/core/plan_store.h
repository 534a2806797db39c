// Persistence and memoization for plans.
//
// The paper's deployment flow runs the tuning "before runtime" and reuses
// the results (Sec. 4.2.2); the artifact ships a preparation script that
// materializes configurations on disk. This header is that artifact:
// PlanStore, the OverlapPlanner's memo of full ExecutionPlans keyed by the
// canonical scenario hash, with a multi-line text format so a serving
// process can start with every scenario pre-planned, and the tuner tier,
// the tuner's (shape, primitive) -> partition cache as keyed StoredPlans
// carried in the same snapshot file.
//
// Snapshot text, both tiers. The plan tier (PlanStore::Serialize) is a
// comment line, one multi-line record per plan, and a count footer:
//   plan <key> <kind> <primitive> <partition-csv> <predicted_us> <non_overlap_us>
//   tiles <csv>                            one line per rank: tiles per group
//   seg <group> <max_bytes> <latency_us>   one line per group
//   end
//   # count <records>
// The tuner tier (SerializeTunerTier) is one line per StoredPlan and a
// count footer, every line '#'-prefixed, so the plan tier reads a combined
// file as comments and a snapshot without the tier reads as an empty one:
//   #tuner <key> <m> <n> <k> <primitive> <partition-csv> <predicted_us> <non_overlap_us>
//   #tuner-count <records>
// One codec writes and reads every line, and a line parses only when
// spelled exactly as it is written: fields one space apart; a key as 16
// lower-case hex digits; integers in plain decimal, with no '+' or
// leading zero (shapes and partition sizes positive, counts not
// negative); doubles finite, in %.17g form; kinds and primitives by their
// canonical names. Within a
// tier each record's key must be greater than the previous record's, the
// order every serializer writes. A count footer, when present, must match
// its tier's record count, so a text truncated at a record boundary is
// rejected whole. Other '#' lines and empty lines are comments. A text
// that breaks any rule is rejected whole, so whatever parses re-exports
// as the same bytes.
#ifndef SRC_CORE_PLAN_STORE_H_
#define SRC_CORE_PLAN_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/primitive.h"
#include "src/core/execution_plan.h"
#include "src/core/wave_partition.h"
#include "src/gemm/tile.h"

namespace flo {

class MetricsRegistry;

// One entry of the tuner's cache (Tuner::ExportPlans / ImportPlans).
struct StoredPlan {
  GemmShape shape;
  CommPrimitive primitive = CommPrimitive::kAllReduce;
  WavePartition partition;
  double predicted_us = 0.0;
  double predicted_non_overlap_us = 0.0;

  bool operator==(const StoredPlan&) const = default;
};

// The tuner tier of a two-tier snapshot (format above), in the order
// given: pass keys in ascending order, or the tier does not parse back.
std::string SerializeTunerTier(const std::vector<std::pair<uint64_t, StoredPlan>>& plans);
// Extracts the tuner tier from snapshot text: empty vector when the
// text carries none, std::nullopt when it breaks any rule above.
std::optional<std::vector<std::pair<uint64_t, StoredPlan>>> ParseTunerTier(
    const std::string& text);

// Hit/miss counts from Find/FindCopy lookups, evictions from capacity
// enforcement. Contains() and Peek() are peeks and do not count.
struct PlanStoreStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;

  double HitRate() const {
    const size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// Keyed store of immutable ExecutionPlans. The key is the OverlapPlanner's
// canonical scenario hash (scenario fields x cluster x tuner config), so a
// store survives process restarts only between identical deployments —
// exactly the paper's "prepare once, serve many" contract.
//
// Capacity: an optional cap on the number of resident plans; exceeding it
// evicts the least-recently-used entry (lookups and inserts count as use).
// 0 means unbounded. Capacity is a runtime knob, not part of the
// serialized format.
//
// Concurrency: every member is guarded by an internal mutex, so one store
// can be shared by multiple serving loops (the paper's plans are "cached
// and reusable across serving processes"). A stored plan is an immutable
// object behind a Handle: Find, Peek and Put return the handle, which
// keeps the plan alive after its entry is evicted, erased or overwritten,
// so it may be held and read on any thread. Stores may hold the same
// handle (a fleet ships the tuning replica's plan object to every other
// replica), and copying a store shares its plans. plans() exposes the
// underlying map and is only safe while no other thread mutates the
// store.
//
// Text format: the plan tier above.
class PlanStore {
 public:
  PlanStore() = default;
  explicit PlanStore(size_t capacity) : capacity_(capacity) {}

  // A stored plan: immutable and shared.
  using Handle = std::shared_ptr<const ExecutionPlan>;
  // One resident plan and its LRU use tick.
  struct Entry {
    Handle plan;
    mutable uint64_t last_use = 0;
  };

  PlanStore(const PlanStore& other);
  PlanStore(PlanStore&& other) noexcept;
  PlanStore& operator=(const PlanStore& other);
  PlanStore& operator=(PlanStore&& other) noexcept;

  // nullptr when absent. Counts a hit/miss and refreshes LRU recency.
  Handle Find(uint64_t key) const;
  // Find without the plan: counts the hit/miss and refreshes LRU recency
  // exactly as Find/FindCopy do, and returns whether the key is resident.
  // For callers that only need the lookup's side effects (a memoized run).
  bool Touch(uint64_t key) const;
  // Find, returning a copy of the plan.
  std::optional<ExecutionPlan> FindCopy(uint64_t key) const;
  // Inserts or overwrites; returns the stored handle. May evict the
  // least-recently-used *other* entry when over capacity.
  Handle Put(uint64_t key, Handle plan);
  Handle Put(uint64_t key, ExecutionPlan plan);
  // Peek: no stats, no recency update.
  bool Contains(uint64_t key) const;
  // The stored plan (nullptr when absent), as a peek: no stats, no
  // recency update. For readers that must not perturb hit rates or LRU
  // order: plan shipping takes the tuning owner's plan object with it,
  // and the fleet scheduler's backfill fit checks read the predicted
  // latency per dispatch.
  Handle Peek(uint64_t key) const;
  // Drops one entry (no eviction stats: this is an explicit discard, e.g.
  // an aborted tuner search invalidating the plan it cached). False when
  // absent.
  bool Erase(uint64_t key);
  size_t size() const;
  void Clear();

  // 0 = unbounded. Shrinking below the current size evicts immediately.
  size_t capacity() const;
  void set_capacity(size_t capacity);

  // Residency feed: `on_change(key, resident)` fires whenever a key enters
  // the store (Put of a new key) or leaves it (eviction, Erase, Clear).
  // It runs under the store's lock, so a mirror of the resident set sees
  // changes in exactly the order the store applies them; it must not
  // call back into the store. Overwrites and lookups do not fire. The callback belongs to this
  // store object: copies and moves do not carry it, and assigning a whole
  // store over one that has a callback fires nothing. Pass nullptr to
  // detach.
  using ChangeCallback = std::function<void(uint64_t key, bool resident)>;
  void SetChangeCallback(ChangeCallback on_change);

  PlanStoreStats stats() const;
  void ResetStats();

  // Observability mirror: writes the store's lookup totals and resident
  // plan count into registry gauges ("plan_store.hits", ".misses",
  // ".evictions", ".resident"). Registration is name-idempotent, so every
  // export lands on one shared column set; serving layers call this from
  // their checkpoint pollers.
  void ExportMetrics(MetricsRegistry* registry) const;

  const std::map<uint64_t, Entry>& plans() const { return entries_; }

  std::string Serialize() const;
  // Returns std::nullopt when the text breaks any rule of the format above
  // (a value not spelled as Serialize writes it, such as "02", "1.0" or an
  // upper-case key; a repeated or descending key; a count mismatch) or a
  // record is not a loadable plan, so a record that parses re-exports as
  // the same bytes.
  static std::optional<PlanStore> Parse(const std::string& text);
  bool SaveToFile(const std::string& path) const;
  static std::optional<PlanStore> LoadFromFile(const std::string& path);

 private:
  // The lookup behind Find, Touch and FindCopy: counts a hit or a miss and
  // refreshes the entry's recency. nullptr on a miss. Requires mu_.
  const Entry* LookupLocked(uint64_t key) const;
  // Evicts least-recently-used entries until size() <= capacity().
  void EnforceCapacityLocked();

  mutable std::mutex mu_;
  size_t capacity_ = 0;
  // LRU bookkeeping: each entry's last_use is a monotonic use tick, unique
  // per store. Eviction takes the minimum — O(n), but stores hold at most
  // thousands of plans and the flat layout keeps the class copyable (tests
  // snapshot stores by value).
  std::map<uint64_t, Entry> entries_;
  mutable uint64_t use_clock_ = 0;
  mutable PlanStoreStats stats_;
  ChangeCallback on_change_;
};

}  // namespace flo

#endif  // SRC_CORE_PLAN_STORE_H_
