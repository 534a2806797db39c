// Fused branch-and-bound search over the wave-partition design space.
//
// Rather than materialize candidate partitions (EnumeratePruned) and score
// each with PredictOverlapLatency — heap-allocating GroupTiles/Prediction
// vectors and a piecewise-linear curve lookup per group — the search is a
// single DFS over the partition tree that carries the predictor's
// (t_p_acc, t_m_acc) recurrence incrementally: every node costs one
// multiply, one add, one max and one latency-table read (no curve
// evaluation, no allocation). Three cuts keep the walk small. Each is
// exact: it never removes the winner, so winners and predicted latencies
// are bit-identical to exhaustive scoring.
//
//  - Comm-chain bound. A prefix is cut when a lower bound on every
//    completion exceeds the target by more than a rounding slack. The
//    bound is the larger of the compute term (the remaining waves at full
//    rate, then the best-case final collective) and the comm chain: t_m
//    plus chain[r], the least collective time r remaining waves can still
//    add (full[g] per non-final group, tail[g] for the final one, g <= sp
//    when bounded). The compute term alone sits within the slack of the
//    optimum on whole plateaus of prefixes; the chain closes them. It
//    costs O(T^2) per search.
//  - Optimum first. A layered Pareto DP over assigned-wave counts computes
//    the exact optimum L* of the space: it keeps every (t_p_acc, t_m_acc)
//    pair no other prefix beats on both, with the DFS's arithmetic, so it
//    needs no tie handling. The lexicographic DFS then runs with L* as its
//    target and stops at its first exact hit, the lexicographically
//    smallest partition at L*. Safety seeds still compete by the same
//    lexicographic rule, and a seed strictly better than L* skips the DFS.
//  - Dominance. A prefix is cut when an earlier prefix reached the same
//    assigned-wave count with both accumulators no worse (latency is
//    monotone in (t_p_acc, t_m_acc) for a fixed suffix, and the earlier
//    prefix is lexicographically smaller). t_m_acc is kept in a canonical
//    form, raised to the earliest time the next group can be ready: no
//    completion changes, and prefixes whose collectives are all hidden
//    become comparable on t_p_acc alone.
//
// With `bounded == false` the search returns the same best partition and
// latency as exhaustively scoring EnumerateAllPartitions. Ties are broken
// toward the lexicographically smallest group-size vector, which makes the
// winner independent of traversal details and bit-reproducible.
#ifndef SRC_CORE_PARTITION_SEARCH_H_
#define SRC_CORE_PARTITION_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/predictor.h"
#include "src/core/wave_partition.h"

namespace flo {

struct PartitionSearchOptions {
  // Pruning bounds (paper Sec. 4.1.4): first group <= s1, last group <= sp
  // waves. Only consulted when `bounded`.
  int s1 = 2;
  int sp = 4;
  // false: search the full 2^(T-1) composition space (the accuracy
  // baseline); true: restrict to the (s1, sp)-bounded space plus the
  // safety families below.
  bool bounded = true;
  // Safety valve: give up refining (keeping the best found so far) after
  // this many group extensions, counting the optimum DP's and the DFS's.
  // The single-group fallback and the equal-sized families are always
  // scored first (they keep the bounded search a superset of the
  // EnumeratePruned candidate set), so even immediate exhaustion returns
  // a valid plan.
  size_t max_nodes = static_cast<size_t>(1) << 24;
};

struct PartitionSearchResult {
  WavePartition partition;
  double predicted_us = 0.0;
  // Group extensions examined by the optimum DP and the DFS (the B&B
  // analogue of "candidates": each is one O(1) step of incremental
  // evaluation).
  size_t nodes_visited = 0;
  // Complete partitions whose final latency was scored.
  size_t candidates_evaluated = 0;
  bool budget_exhausted = false;
};

// Reusable searcher: the DFS path, incumbent buffers, comm chain, DP
// fronts and per-wave-count dominance sets are preallocated members, so
// steady-state searches make zero heap allocations per candidate (and,
// after the first search at a given wave count, zero allocations per
// search apart from the returned partition).
class PartitionSearcher {
 public:
  PartitionSearcher() = default;

  // Exact best partition for the setup `table` was built from.
  PartitionSearchResult Search(const GroupLatencyTable& table,
                               const PartitionSearchOptions& options);

 private:
  struct DomPoint {
    double t_p;
    double t_m;
  };

  // Charges one group extension to the node budget; false once it is
  // exhausted.
  bool Spend();
  // Largest group that may follow `assigned` waves.
  int MaxTake(int assigned) const;
  // Latency of closing with a final group of `take` waves after `assigned`
  // (t_p_new includes the group); +infinity outside the space.
  double CloseLatency(int assigned, int take, double t_p_new, double t_m) const;
  // t_m after a non-final group of `take` waves, in canonical form.
  double CommitGroup(int take, double t_p_new, double t_m) const;
  // Lower bound on the final latency of any completion of a prefix that
  // ends with a non-final group (`rest` >= 1 waves still unassigned).
  double Bound(int rest, double t_p, double t_m) const;
  // The layered Pareto DP: the exact optimum over the search space, or
  // +infinity when nothing in the space is as good as the incumbent.
  double OptimumLatency();
  // Lexicographic DFS toward target_us_; stops at its first exact hit.
  void Dfs(int assigned, double t_p, double t_m, int depth);
  // Records (t_p, t_m) in `set` (at most `cap` points) unless a recorded
  // point is no worse on both axes; true then (prune).
  static bool DominatedOrRecord(std::vector<DomPoint>* set, double t_p, double t_m, size_t cap);
  void ConsiderCandidate(const int* sizes, int groups, double latency_us);

  const GroupLatencyTable* table_ = nullptr;
  PartitionSearchOptions options_;
  std::vector<int> path_;
  std::vector<int> seed_path_;
  std::vector<int> best_path_;
  int best_groups_ = 0;
  double best_us_ = 0.0;
  // The DFS target (the DP's optimum) and whether the DFS has reached it.
  double target_us_ = 0.0;
  bool hit_ = false;
  // chain_[r]: least collective time r remaining waves can still add to
  // t_m (see the file comment); spine_[n] is the least collective time of
  // n waves in non-final groups only.
  std::vector<double> chain_;
  std::vector<double> spine_;
  // DP fronts, one per assigned-wave count.
  std::vector<std::vector<DomPoint>> front_;
  std::vector<std::vector<DomPoint>> dominance_;
  size_t nodes_ = 0;
  size_t candidates_ = 0;
  bool budget_exhausted_ = false;
};

struct MultiRankSearchResult {
  // Best base composition (over MultiRankLatencyTable::base_waves); every
  // rank executes its prefix-local projection (ProjectPartition).
  WavePartition base;
  double predicted_us = 0.0;
  size_t nodes_visited = 0;
  size_t candidates_evaluated = 0;
  bool budget_exhausted = false;
};

// Fused multi-rank branch-and-bound for imbalanced All-to-All
// (Sec. 4.2.2): walks the base composition space carrying per-rank
// (boundary, t_p_acc) state plus the shared rendezvous t_m_acc — the
// incremental form of PredictOverlapLatencyMultiRank, one table read and
// one multiply-add-max per rank per node, no full-timeline replays.
//
// Pruning mirrors the single-rank searcher: the bound takes the compute
// term across ranks and the largest per-rank comm chain (every remaining
// rendezvous collective costs at least each rank's own), t_m_acc is kept
// in canonical form, and dominance compares per-rank accumulator vectors
// only at equal (assigned base waves, boundary vector) keys, through a
// hashed table. Each rank's projected boundaries are tabulated per search.
// The optimum-first DP is not applied here: on skewed Mixtral shapes
// nearly every prefix the joint search expands can still complete to
// within rounding of L* (a real near-tie plateau, not a loose bound), so
// a DP would cost about as much as the DFS it shortens. Ties break toward the lexicographically smallest base
// composition, so with `bounded == false` the result is bit-identical
// (base AND latency) to exhaustively scoring every projectable member of
// EnumerateAllPartitions with PredictOverlapLatencyMultiRank.
class MultiRankPartitionSearcher {
 public:
  MultiRankPartitionSearcher() = default;

  // `seed`, when given, is scored first as the incumbent (skipped when its
  // projection is infeasible). It must be a composition of
  // `tables.base_waves` — e.g. the heaviest rank's single-rank plan.
  MultiRankSearchResult Search(const MultiRankLatencyTable& tables,
                               const PartitionSearchOptions& options,
                               const WavePartition* seed = nullptr);

 private:
  // Dominance records keyed on (assigned base waves, per-rank boundary
  // vector): prefixes are comparable only at equal keys, since different
  // boundaries imply different suffixes. An open-addressed table maps each
  // key to a list of its non-dominated accumulator vectors (one t_p per
  // rank, then t_m). Slots carry the search's stamp instead of being
  // cleared, and every buffer keeps its capacity, so steady-state searches
  // do not allocate.
  class DominanceTable {
   public:
    // Starts a search over `ranks`-rank keys, holding at most `entry_cap`
    // live entries (overflow merely forfeits pruning).
    void Reset(int ranks, size_t entry_cap);
    // True if an entry under (cum, prev) is no worse than (t_p, t_m) on
    // every accumulator (prune). Otherwise drops the entries the newcomer
    // dominates and records it.
    bool DominatedOrRecord(int cum, const int* prev, const double* t_p, double t_m);

   private:
    struct Slot {
      uint64_t hash;
      uint32_t stamp;  // live when equal to stamp_
      int32_t cum;
      int32_t key;    // boundary vector at keys_[key * ranks_]
      int32_t head;   // first entry of the key's list, -1 when empty
      int32_t count;  // entries in the list
    };
    uint64_t Hash(int cum, const int* prev) const;
    void Grow();

    std::vector<Slot> slots_;
    std::vector<int> keys_;
    // Entry pool: accumulator vectors (stride ranks_ + 1) and list links;
    // unlinked entries go on the free list.
    std::vector<double> vals_;
    std::vector<int32_t> next_;
    int ranks_ = 0;
    size_t entry_cap_ = 0;
    size_t key_count_ = 0;
    size_t pool_used_ = 0;
    size_t live_ = 0;
    int32_t free_ = -1;
    uint32_t stamp_ = 0;
  };

  void Dfs(int cum, double t_m, int depth);
  void ConsiderCandidate(const int* sizes, int groups, double latency_us);
  void ScoreSeed(const int* sizes, int groups);

  const MultiRankLatencyTable* tables_ = nullptr;
  PartitionSearchOptions options_;
  int rank_count_ = 0;
  std::vector<int> path_;
  std::vector<int> seed_path_;
  std::vector<int> best_path_;
  int best_groups_ = 0;
  double best_us_ = 0.0;
  // Per-depth per-rank DFS state, stride rank_count_: row d holds the
  // boundaries/accumulators after d groups.
  std::vector<int> prev_;
  std::vector<double> t_p_;
  // scaled_[cum * rank_count_ + r]: ScaledBoundary of a base prefix of cum
  // waves on rank r, tabulated once per search.
  std::vector<int> scaled_;
  // Per-rank bound terms of a non-final boundary b, tabulated once per
  // search at terms_[r * (base_waves + 1) + b]: the remaining waves at full
  // rate, the best-case final collective, and the rank's comm chain (see
  // the single-rank searcher; chain_ and spine_ are scratch for it).
  struct BoundaryTerms {
    double rest_compute;
    double min_tail;
    double chain;
  };
  std::vector<BoundaryTerms> terms_;
  std::vector<double> chain_;
  std::vector<double> spine_;
  // Flat per-rank views of the tables the DFS reads on every node.
  struct RankView {
    int waves;
    double wave_time_us;
    const double* full;
    const double* tail;
    const BoundaryTerms* terms;
  };
  std::vector<RankView> rank_views_;
  DominanceTable dominance_;
  MultiRankScratch seed_scratch_;
  // Rendezvous single-group latency, precomputed per Search (the depth-0
  // closing candidate and the first safety seed share it).
  double single_group_us_ = 0.0;
  size_t nodes_ = 0;
  size_t candidates_ = 0;
  bool budget_exhausted_ = false;
};

}  // namespace flo

#endif  // SRC_CORE_PARTITION_SEARCH_H_
