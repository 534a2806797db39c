#include "src/core/partition_search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace flo {
namespace {

// How many non-dominated (t_p, t_m) prefixes the DFS remembers per
// assigned-wave count. The sets stay tiny in practice (compute-bound
// regimes collapse to a handful of points); the cap only bounds the
// workspace, overflow merely forfeits some pruning, never correctness.
// The optimum DP's fronts are uncapped: dropping a point there could lose
// the optimum.
constexpr size_t kDominanceCap = 64;
constexpr size_t kUncapped = std::numeric_limits<size_t>::max();

// Relative slack applied to the lower bound before pruning on it. The
// bound sums remaining compute as one multiply-add and the comm chain in
// its own order, while real prefixes accumulate both group by group, so
// the two can differ by a few ULPs; the slack keeps the bound admissible
// despite that, at no practical cost in pruning power. It also keeps ties
// open: a pruned prefix is strictly worse than the target.
constexpr double kBoundSlack = 1e-9;

bool OutOfReach(double bound, double target_us) {
  return bound * (1.0 - kBoundSlack) > target_us;
}

// Shared incumbent update for both searchers: accept strict improvements,
// break latency ties toward the lexicographically smallest group-size
// vector. One body so the bit-reproducibility contract cannot diverge.
void UpdateIncumbent(const int* sizes, int groups, double latency_us, double* best_us,
                     int* best_groups, std::vector<int>* best_path) {
  if (latency_us > *best_us) {
    return;
  }
  if (latency_us == *best_us &&
      !std::lexicographical_compare(sizes, sizes + groups, best_path->data(),
                                    best_path->data() + *best_groups)) {
    return;
  }
  *best_us = latency_us;
  *best_groups = groups;
  std::copy(sizes, sizes + groups, best_path->begin());
}

// Writes the equal-sized safety family with `body`-wave groups into
// `path`, returning the group count (shared by both searchers' seeding).
int FillEqualSized(int waves, int body, int* path) {
  int groups = 0;
  int remaining = waves;
  while (remaining > 0) {
    const int take = std::min(body, remaining);
    path[groups++] = take;
    remaining -= take;
  }
  return groups;
}

// Fills chain[r] for r in 1..table.waves-1: the least collective time r
// remaining waves can still add to t_m — any split into non-final groups
// (full[g] each) and one final group (tail[g], g <= final_cap). spine[n],
// the least full-group cost of n waves, is its O(T^2) first half.
void FillCommChain(const GroupLatencyTable& table, int final_cap, double* spine,
                   double* chain) {
  const double inf = std::numeric_limits<double>::infinity();
  spine[0] = 0.0;
  for (int n = 1; n < table.waves; ++n) {
    double least = inf;
    for (int g = 1; g <= n; ++g) {
      least = std::min(least, spine[n - g] + table.full[g]);
    }
    spine[n] = least;
  }
  for (int r = 1; r < table.waves; ++r) {
    double least = inf;
    for (int g = 1; g <= std::min(r, final_cap); ++g) {
      least = std::min(least, spine[r - g] + table.tail[g]);
    }
    chain[r] = least;
  }
}

}  // namespace

PartitionSearchResult PartitionSearcher::Search(const GroupLatencyTable& table,
                                                const PartitionSearchOptions& options) {
  FLO_CHECK_GE(table.waves, 1);
  table_ = &table;
  options_ = options;
  const int waves = table.waves;
  const size_t size = static_cast<size_t>(waves) + 1;
  if (path_.size() < size) {
    path_.resize(size);
    seed_path_.resize(size);
    best_path_.resize(size);
    chain_.resize(size);
    spine_.resize(size);
  }
  if (dominance_.size() < size) {
    dominance_.resize(size);
    front_.resize(size);
    for (auto& set : dominance_) {
      set.reserve(kDominanceCap);
    }
  }
  for (int a = 0; a <= waves; ++a) {
    dominance_[a].clear();
  }
  best_groups_ = 0;
  best_us_ = std::numeric_limits<double>::infinity();
  nodes_ = 0;
  candidates_ = 0;
  budget_exhausted_ = false;

  // Single-group fallback, then the equal-sized families. Cheap (O(T^2)
  // table arithmetic total) and they hand the DP a strong incumbent.
  seed_path_[0] = waves;
  ConsiderCandidate(seed_path_.data(), 1, table.single_group_us);
  for (int body = 1; body < waves; ++body) {
    const int groups = FillEqualSized(waves, body, seed_path_.data());
    ConsiderCandidate(seed_path_.data(), groups,
                      PredictLatencyWithTable(table, seed_path_.data(), groups));
  }

  FillCommChain(table, options_.bounded ? options_.sp : waves, spine_.data(), chain_.data());
  // A seed strictly better than everything in the space wins outright;
  // otherwise the DFS finds the space's lexicographically smallest
  // partition at the optimum, which then meets the seeds under the tie
  // rule.
  const double optimum = OptimumLatency();
  if (!budget_exhausted_ && optimum <= best_us_) {
    target_us_ = optimum;
    hit_ = false;
    Dfs(/*assigned=*/0, /*t_p=*/table.launch_overhead_us, /*t_m=*/0.0, /*depth=*/0);
    FLO_CHECK(hit_ || budget_exhausted_) << "the DFS missed the DP optimum " << optimum;
  }

  PartitionSearchResult result;
  FLO_CHECK_GE(best_groups_, 1) << "search produced no candidate";
  result.partition.group_sizes.assign(best_path_.begin(), best_path_.begin() + best_groups_);
  result.predicted_us = best_us_;
  result.nodes_visited = nodes_;
  result.candidates_evaluated = candidates_;
  result.budget_exhausted = budget_exhausted_;
  return result;
}

bool PartitionSearcher::Spend() {
  if (nodes_ >= options_.max_nodes) {
    budget_exhausted_ = true;
    return false;
  }
  ++nodes_;
  return true;
}

int PartitionSearcher::MaxTake(int assigned) const {
  const int remaining = table_->waves - assigned;
  return (assigned == 0 && options_.bounded) ? std::min(options_.s1, remaining) : remaining;
}

double PartitionSearcher::CloseLatency(int assigned, int take, double t_p_new,
                                       double t_m) const {
  // The single-group partition follows the predictor's special case
  // (full-width GEMM, sequential collective); any other closer commits the
  // tail-adjusted final collective.
  if (assigned == 0) {
    return table_->single_group_us;
  }
  if (options_.bounded && take > options_.sp) {
    return std::numeric_limits<double>::infinity();
  }
  return std::max(t_p_new, t_m) + table_->tail[take];
}

double PartitionSearcher::CommitGroup(int take, double t_p_new, double t_m) const {
  // Non-final group: its collective overlaps the next group's compute —
  // committed here with t_p through this group, exactly as the
  // group-by-group replay would. Then the canonical form: the next group
  // ends no earlier than t_p_new + wave_time, so any t_m up to that value
  // leaves every completion unchanged; raising t_m to it merges such
  // states for dominance and tightens the bound.
  return std::max(std::max(t_p_new, t_m) + table_->full[take], t_p_new + table_->wave_time_us);
}

double PartitionSearcher::Bound(int rest, double t_p, double t_m) const {
  // Compute term: the remaining waves at full rate, then the best-case
  // final collective. Comm term: t_m plus the least collective time the
  // remaining waves can add (it subsumes t_m + the best final collective).
  const int tail_cap = options_.bounded ? std::min(options_.sp, rest) : rest;
  return std::max(t_p + rest * table_->wave_time_us + table_->min_tail_prefix[tail_cap],
                  t_m + chain_[rest]);
}

double PartitionSearcher::OptimumLatency() {
  // front_[a] holds every non-dominated (t_p, t_m) over the prefixes that
  // assign a waves. The transitions are the DFS's, operation for
  // operation, and correctly rounded arithmetic is monotone, so dropping
  // dominated points (and points the bound puts out of reach of the best
  // latency known) keeps the optimum bit-exact.
  const int waves = table_->waves;
  for (int a = 0; a <= waves; ++a) {
    front_[a].clear();
  }
  front_[0].push_back(DomPoint{table_->launch_overhead_us, 0.0});
  double optimum = std::numeric_limits<double>::infinity();
  for (int a = 0; a < waves; ++a) {
    const int remaining = waves - a;
    const int max_take = MaxTake(a);
    // front_[a] is final here: every insertion lands on a larger count.
    for (const DomPoint& point : front_[a]) {
      if (a > 0 && OutOfReach(Bound(remaining, point.t_p, point.t_m),
                              std::min(optimum, best_us_))) {
        continue;
      }
      for (int take = 1; take <= max_take; ++take) {
        if (!Spend()) {
          return optimum;
        }
        const double t_p_new = point.t_p + take * table_->wave_time_us;
        if (take == remaining) {
          const double latency = CloseLatency(a, take, t_p_new, point.t_m);
          candidates_ += std::isinf(latency) ? 0 : 1;
          optimum = std::min(optimum, latency);
          continue;
        }
        const double t_m_new = CommitGroup(take, t_p_new, point.t_m);
        if (!OutOfReach(Bound(remaining - take, t_p_new, t_m_new), std::min(optimum, best_us_))) {
          DominatedOrRecord(&front_[a + take], t_p_new, t_m_new, kUncapped);
        }
      }
    }
  }
  return optimum;
}

void PartitionSearcher::Dfs(int assigned, double t_p, double t_m, int depth) {
  const int remaining = table_->waves - assigned;
  const int max_take = MaxTake(assigned);
  for (int take = 1; take <= max_take; ++take) {
    if (!Spend()) {
      return;
    }
    const double t_p_new = t_p + take * table_->wave_time_us;
    if (take == remaining) {
      const double latency = CloseLatency(assigned, take, t_p_new, t_m);
      if (std::isinf(latency)) {
        continue;
      }
      ++candidates_;
      FLO_CHECK_GE(latency, target_us_) << "the DP optimum is not exact";
      if (latency == target_us_) {
        // DFS order is lexicographic, so the first hit is the smallest.
        path_[depth] = take;
        ConsiderCandidate(path_.data(), depth + 1, latency);
        hit_ = true;
        return;
      }
      continue;
    }
    const double t_m_new = CommitGroup(take, t_p_new, t_m);
    if (OutOfReach(Bound(remaining - take, t_p_new, t_m_new), target_us_)) {
      continue;
    }
    if (DominatedOrRecord(&dominance_[assigned + take], t_p_new, t_m_new, kDominanceCap)) {
      continue;
    }
    path_[depth] = take;
    Dfs(assigned + take, t_p_new, t_m_new, depth + 1);
    if (budget_exhausted_ || hit_) {
      return;
    }
  }
}

bool PartitionSearcher::DominatedOrRecord(std::vector<DomPoint>* set, double t_p, double t_m,
                                          size_t cap) {
  size_t keep = 0;
  for (size_t i = 0; i < set->size(); ++i) {
    const DomPoint& point = (*set)[i];
    if (point.t_p <= t_p && point.t_m <= t_m) {
      return true;  // an earlier point is at least as good on both axes
    }
    if (!(t_p <= point.t_p && t_m <= point.t_m)) {
      (*set)[keep++] = point;  // survives: not dominated by the newcomer
    }
  }
  set->resize(keep);
  if (set->size() < cap) {
    set->push_back(DomPoint{t_p, t_m});
  }
  return false;
}

void PartitionSearcher::ConsiderCandidate(const int* sizes, int groups, double latency_us) {
  UpdateIncumbent(sizes, groups, latency_us, &best_us_, &best_groups_, &best_path_);
}

// --- MultiRankPartitionSearcher ---------------------------------------------

void MultiRankPartitionSearcher::DominanceTable::Reset(int ranks, size_t entry_cap) {
  ranks_ = ranks;
  entry_cap_ = entry_cap;
  key_count_ = 0;
  pool_used_ = 0;
  live_ = 0;
  free_ = -1;
  if (++stamp_ == 0) {
    // Stamp wrap-around: slots of 2^32 searches ago would read as live.
    for (Slot& slot : slots_) {
      slot.stamp = 0;
    }
    stamp_ = 1;
  }
  if (slots_.empty()) {
    slots_.resize(64);
  }
}

uint64_t MultiRankPartitionSearcher::DominanceTable::Hash(int cum, const int* prev) const {
  // Independent per-rank products (no serial multiply chain), then one
  // finalizing mix.
  uint64_t hash = static_cast<uint64_t>(cum) * 0x9e3779b97f4a7c15ull;
  for (int r = 0; r < ranks_; ++r) {
    hash += static_cast<uint64_t>(prev[r]) * (0xbf58476d1ce4e5b9ull + 2 * static_cast<uint64_t>(r));
  }
  hash ^= hash >> 29;
  hash *= 0x94d049bb133111ebull;
  return hash ^ (hash >> 32);
}

void MultiRankPartitionSearcher::DominanceTable::Grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.stamp != stamp_) {
      continue;
    }
    size_t i = slot.hash & mask;
    while (slots_[i].stamp == stamp_) {
      i = (i + 1) & mask;
    }
    slots_[i] = slot;
  }
}

bool MultiRankPartitionSearcher::DominanceTable::DominatedOrRecord(int cum, const int* prev,
                                                                   const double* t_p,
                                                                   double t_m) {
  const size_t ranks = static_cast<size_t>(ranks_);
  const size_t vstride = ranks + 1;
  const uint64_t hash = Hash(cum, prev);
  size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (; slots_[i].stamp == stamp_; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.hash == hash && slot.cum == cum &&
        std::equal(prev, prev + ranks, keys_.data() + static_cast<size_t>(slot.key) * ranks)) {
      break;
    }
  }
  if (slots_[i].stamp != stamp_) {
    // A new key. Without room for its first entry there is nothing to
    // record, which merely forfeits pruning.
    if (live_ >= entry_cap_) {
      return false;
    }
    if ((key_count_ + 1) * 2 > slots_.size()) {
      Grow();
      mask = slots_.size() - 1;
      for (i = hash & mask; slots_[i].stamp == stamp_; i = (i + 1) & mask) {
      }
    }
    if (keys_.size() < (key_count_ + 1) * ranks) {
      keys_.resize((key_count_ + 1) * ranks);
    }
    std::copy(prev, prev + ranks, keys_.data() + key_count_ * ranks);
    slots_[i] = Slot{hash, stamp_, cum, static_cast<int32_t>(key_count_), -1, 0};
    ++key_count_;
  }
  Slot& slot = slots_[i];
  // Same per-rank boundaries => identical suffix behaviour; compare the
  // accumulator vectors componentwise.
  for (int32_t* link = &slot.head; *link >= 0;) {
    const int32_t entry = *link;
    const double* vals = vals_.data() + static_cast<size_t>(entry) * vstride;
    bool entry_dominates = vals[ranks] <= t_m;
    for (size_t r = 0; r < ranks && entry_dominates; ++r) {
      entry_dominates = vals[r] <= t_p[r];
    }
    if (entry_dominates) {
      return true;
    }
    bool newcomer_dominates = t_m <= vals[ranks];
    for (size_t r = 0; r < ranks && newcomer_dominates; ++r) {
      newcomer_dominates = t_p[r] <= vals[r];
    }
    if (newcomer_dominates) {
      // Unlink the entry onto the free list; the newcomer is recorded below.
      *link = next_[entry];
      next_[entry] = free_;
      free_ = entry;
      --slot.count;
      --live_;
    } else {
      link = &next_[entry];
    }
  }
  if (slot.count >= static_cast<int32_t>(kDominanceCap) || live_ >= entry_cap_) {
    return false;
  }
  int32_t entry = free_;
  if (entry >= 0) {
    free_ = next_[entry];
  } else {
    entry = static_cast<int32_t>(pool_used_++);
    if (next_.size() < pool_used_) {
      next_.resize(pool_used_);
    }
    // Guard by the current stride: buffers are retained across searches
    // with different rank counts.
    if (vals_.size() < pool_used_ * vstride) {
      vals_.resize(pool_used_ * vstride);
    }
  }
  double* vals = vals_.data() + static_cast<size_t>(entry) * vstride;
  std::copy(t_p, t_p + ranks, vals);
  vals[ranks] = t_m;
  next_[entry] = slot.head;
  slot.head = entry;
  ++slot.count;
  ++live_;
  return false;
}

MultiRankSearchResult MultiRankPartitionSearcher::Search(const MultiRankLatencyTable& tables,
                                                         const PartitionSearchOptions& options,
                                                         const WavePartition* seed) {
  FLO_CHECK(!tables.ranks.empty());
  FLO_CHECK_GE(tables.base_waves, 1);
  for (const GroupLatencyTable& table : tables.ranks) {
    FLO_CHECK_GE(table.waves, 1);
    FLO_CHECK_LE(table.waves, tables.base_waves);
  }
  tables_ = &tables;
  options_ = options;
  rank_count_ = static_cast<int>(tables.ranks.size());
  const int waves = tables.base_waves;
  const size_t size = static_cast<size_t>(waves) + 1;
  if (path_.size() < size) {
    path_.resize(size);
    seed_path_.resize(size);
    best_path_.resize(size);
    spine_.resize(size);
    chain_.resize(size);
  }
  const size_t state = size * static_cast<size_t>(rank_count_);
  if (prev_.size() < state) {
    prev_.resize(state);
    t_p_.resize(state);
    scaled_.resize(state);
    terms_.resize(state);
  }
  rank_views_.resize(tables.ranks.size());
  dominance_.Reset(rank_count_, kDominanceCap * size);
  best_groups_ = 0;
  best_us_ = std::numeric_limits<double>::infinity();
  nodes_ = 0;
  candidates_ = 0;
  budget_exhausted_ = false;
  for (int r = 0; r < rank_count_; ++r) {
    const GroupLatencyTable& table = tables.ranks[r];
    for (int cum = 0; cum <= waves; ++cum) {
      scaled_[static_cast<size_t>(cum) * rank_count_ + r] =
          ScaledBoundary(cum, waves, table.waves);
    }
    // The space caps the base's final group at sp, and a projection never
    // gives a rank a larger final group than the base's:
    // T_r - round((B - f) * T_r / B) <= f * T_r / B + 1/2, so at most f.
    const int final_cap = options_.bounded ? options_.sp : table.waves;
    FillCommChain(table, final_cap, spine_.data(), chain_.data());
    BoundaryTerms* terms = terms_.data() + static_cast<size_t>(r) * size;
    for (int boundary = 0; boundary < table.waves; ++boundary) {
      const int rest = table.waves - boundary;
      terms[boundary] = BoundaryTerms{rest * table.wave_time_us, table.min_tail_prefix[rest],
                                      chain_[rest]};
    }
    rank_views_[r] = RankView{table.waves, table.wave_time_us, table.full.data(),
                              table.tail.data(), terms};
  }
  seed_path_[0] = waves;
  single_group_us_ = PredictLatencyWithTableMultiRank(tables, seed_path_.data(), 1,
                                                      &seed_scratch_);

  ConsiderCandidate(seed_path_.data(), 1, single_group_us_);
  for (int body = 1; body < waves; ++body) {
    ScoreSeed(seed_path_.data(), FillEqualSized(waves, body, seed_path_.data()));
  }
  if (seed != nullptr && !seed->group_sizes.empty()) {
    FLO_CHECK_EQ(seed->TotalWaves(), waves);
    std::copy(seed->group_sizes.begin(), seed->group_sizes.end(), seed_path_.begin());
    ScoreSeed(seed_path_.data(), seed->group_count());
  }

  for (int r = 0; r < rank_count_; ++r) {
    prev_[r] = 0;
    t_p_[r] = tables.ranks[r].launch_overhead_us;
  }
  Dfs(/*cum=*/0, /*t_m=*/0.0, /*depth=*/0);

  MultiRankSearchResult result;
  FLO_CHECK_GE(best_groups_, 1) << "multi-rank search produced no candidate";
  result.base.group_sizes.assign(best_path_.begin(), best_path_.begin() + best_groups_);
  result.predicted_us = best_us_;
  result.nodes_visited = nodes_;
  result.candidates_evaluated = candidates_;
  result.budget_exhausted = budget_exhausted_;
  return result;
}

void MultiRankPartitionSearcher::Dfs(int cum, double t_m, int depth) {
  const int remaining = tables_->base_waves - cum;
  const int max_take =
      (depth == 0 && options_.bounded) ? std::min(options_.s1, remaining) : remaining;
  const int ranks = rank_count_;
  const RankView* views = rank_views_.data();
  const int* prev = prev_.data() + static_cast<size_t>(depth) * ranks;
  const double* t_p = t_p_.data() + static_cast<size_t>(depth) * ranks;
  int* prev_next = prev_.data() + static_cast<size_t>(depth + 1) * ranks;
  double* t_p_next = t_p_.data() + static_cast<size_t>(depth + 1) * ranks;
  for (int take = 1; take <= max_take; ++take) {
    if (nodes_ >= options_.max_nodes) {
      budget_exhausted_ = true;
      return;
    }
    ++nodes_;
    const int cum_new = cum + take;
    if (take == remaining) {
      // Closing group: every rank's projection is forced to its own final
      // wave (feasible by the DFS invariant prev[r] < T_r).
      double latency;
      if (depth == 0) {
        latency = single_group_us_;
      } else {
        if (options_.bounded && take > options_.sp) {
          continue;
        }
        double ready = 0.0;
        double comm = 0.0;
        for (int r = 0; r < ranks; ++r) {
          const int group = views[r].waves - prev[r];
          ready = std::max(ready, t_p[r] + group * views[r].wave_time_us);
          comm = std::max(comm, views[r].tail[group]);
        }
        latency = std::max(ready, t_m) + comm;
      }
      ++candidates_;
      path_[depth] = take;
      ConsiderCandidate(path_.data(), depth + 1, latency);
      continue;
    }
    // Non-final group: project each rank's boundary (ProjectedBoundary,
    // from the tabulated rounding) and commit the group's rendezvous
    // collective with per-rank compute through this group, exactly as the
    // full replay would. The same pass gathers the per-rank bound terms:
    // compute at full rate plus the best-case final collective, and the
    // comm chain (every remaining rendezvous collective costs at least
    // each rank's own).
    const int* scaled = scaled_.data() + static_cast<size_t>(cum_new) * ranks;
    bool infeasible = false;
    double ready = 0.0;
    double comm = 0.0;
    double bound_compute = 0.0;
    double lb_tail = 0.0;
    double lb_chain = 0.0;
    double next_ready = 0.0;
    for (int r = 0; r < ranks; ++r) {
      const RankView& view = views[r];
      const int boundary = std::max(scaled[r], prev[r] + 1);
      if (boundary >= view.waves) {
        infeasible = true;
        break;
      }
      const int group = boundary - prev[r];
      const double tp = t_p[r] + group * view.wave_time_us;
      prev_next[r] = boundary;
      t_p_next[r] = tp;
      ready = std::max(ready, tp);
      next_ready = std::max(next_ready, tp + view.wave_time_us);
      comm = std::max(comm, view.full[group]);
      const BoundaryTerms& terms = view.terms[boundary];
      bound_compute = std::max(bound_compute, tp + terms.rest_compute);
      lb_tail = std::max(lb_tail, terms.min_tail);
      lb_chain = std::max(lb_chain, terms.chain);
    }
    if (infeasible) {
      // Boundaries are monotone in the base prefix sum, so every larger
      // non-final take is infeasible too; only the closing take survives.
      if (max_take < remaining) {
        break;
      }
      take = remaining - 1;
      continue;
    }
    // Canonical form, as in the single-rank search: the next rendezvous is
    // ready no earlier than next_ready, so raising t_m to it changes no
    // completion.
    const double t_m_new = std::max(std::max(ready, t_m) + comm, next_ready);
    const double bound = std::max(std::max(t_m_new, bound_compute) + lb_tail, t_m_new + lb_chain);
    if (OutOfReach(bound, best_us_)) {
      continue;
    }
    if (dominance_.DominatedOrRecord(cum_new, prev_next, t_p_next, t_m_new)) {
      continue;
    }
    path_[depth] = take;
    Dfs(cum_new, t_m_new, depth + 1);
    if (budget_exhausted_) {
      return;
    }
  }
}

void MultiRankPartitionSearcher::ScoreSeed(const int* sizes, int groups) {
  const double latency =
      PredictLatencyWithTableMultiRank(*tables_, sizes, groups, &seed_scratch_);
  if (!std::isfinite(latency)) {
    return;  // projection infeasible for some rank; not a candidate
  }
  ConsiderCandidate(sizes, groups, latency);
}

void MultiRankPartitionSearcher::ConsiderCandidate(const int* sizes, int groups,
                                                   double latency_us) {
  UpdateIncumbent(sizes, groups, latency_us, &best_us_, &best_groups_, &best_path_);
}

}  // namespace flo
