// The fleet's spec catalog: the plan key of every distinct ScenarioSpec a
// fleet serves, computed once, plus the count of distinct keys per run.
//
// A trace holds few distinct specs (tens) behind millions of arrivals, and
// deriving a plan key (OverlapPlanner::CanonicalKey) re-mixes the spec and
// the constant cluster and tuner identity byte by byte. The catalog hashes
// an arriving spec word-wise over (kind, primitive, shapes, extra tiles),
// confirms the match with ScenarioSpec::operator==, and returns the key it
// derived on first sight. Key derivation itself is unchanged, because keys
// persist in plan snapshots and shipped records.
//
// Memory: one entry per distinct spec (a full ScenarioSpec copy, so specs
// that differ only in per-scenario options are separate entries). Entries
// outlive a run so a warm fleet keys nothing twice, but BeginRun drops
// them all once they pass kMaxSpecs: a fleet that keeps seeing new shapes
// holds at most kMaxSpecs entries plus one run's distinct specs, the same
// per-run bound the distinct-key count always had.
#ifndef SRC_CLUSTER_SPEC_CATALOG_H_
#define SRC_CLUSTER_SPEC_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "src/core/overlap_planner.h"
#include "src/core/scenario.h"

namespace flo {

class SpecCatalog {
 public:
  static constexpr size_t kMaxSpecs = 4096;

  // `keyer` derives each new spec's plan key; it must outlive the catalog.
  explicit SpecCatalog(const OverlapPlanner* keyer);

  // keyer->CanonicalKey(spec), derived on the spec's first sighting. The
  // key counts toward run_keys().
  uint64_t Key(const ScenarioSpec& spec);
  // Starts a run: run_keys() restarts from zero, and the entries are
  // dropped when they number more than kMaxSpecs.
  void BeginRun();
  // Distinct keys returned by Key() since BeginRun().
  size_t run_keys() const { return run_keys_; }

 private:
  struct Entry {
    ScenarioSpec spec;
    uint64_t key = 0;
    // The key's slot in key_run_stamps_; specs that differ only in fields
    // outside the key (per-scenario options) share one.
    uint64_t* run_stamp = nullptr;
  };

  // The lookup hash: not persisted, so it only has to spread specs.
  static uint64_t Hash(const ScenarioSpec& spec);

  const OverlapPlanner* keyer_;
  // Hash(spec) -> entry; equal hashes are told apart by operator==.
  std::unordered_multimap<uint64_t, Entry> by_hash_;
  // Plan key -> the run that last counted it: a key counts toward
  // run_keys() when its stamp is not yet run_. Entries point into it
  // (unordered_map elements never move).
  std::unordered_map<uint64_t, uint64_t> key_run_stamps_;
  uint64_t run_ = 1;
  size_t run_keys_ = 0;
};

}  // namespace flo

#endif  // SRC_CLUSTER_SPEC_CATALOG_H_
