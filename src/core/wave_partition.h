// Wave-group partitions: the tunable design space (paper Sec. 3.4).
//
// After each of T waves the design makes a binary choice — communicate the
// accumulated tiles or keep accumulating — except the last wave, which must
// communicate. A partition is therefore a composition of T into positive
// group sizes; the space has 2^(T-1) members.
#ifndef SRC_CORE_WAVE_PARTITION_H_
#define SRC_CORE_WAVE_PARTITION_H_

#include <optional>
#include <string>
#include <vector>

namespace flo {

struct WavePartition {
  // group_sizes[j] = |G_j| in waves; all positive, sums to the wave count.
  std::vector<int> group_sizes;

  int group_count() const { return static_cast<int>(group_sizes.size()); }
  int TotalWaves() const;
  bool Valid(int wave_count) const;
  std::string ToString() const;

  bool operator==(const WavePartition&) const = default;

  // One group per wave — the most fine-grained ("baseline") partition.
  static WavePartition PerWave(int wave_count);
  // Everything in one group — degenerates to non-overlapped execution.
  static WavePartition SingleGroup(int wave_count);
  // Equal group sizes of `group_waves` (last group takes the remainder);
  // the "Egs=n" ablation strategy of Fig. 14.
  static WavePartition EqualSized(int wave_count, int group_waves);
};

// All 2^(T-1) compositions of `wave_count`. Aborts if wave_count > 20 to
// avoid accidental blowup; use EnumeratePruned for big T.
std::vector<WavePartition> EnumerateAllPartitions(int wave_count);

// Pruned design space (Sec. 4.1.4): first group <= s1 waves, last group
// <= sp waves. If the pruned space still exceeds `max_candidates`, falls
// back to a structured candidate family (equal-sized + geometric ramps)
// so tuning stays real-time for very large T.
std::vector<WavePartition> EnumeratePruned(int wave_count, int s1, int sp,
                                           int max_candidates = 65536);

// Rescales a partition tuned for `from_waves` to a GEMM with `to_waves`
// (used for All-to-All ranks with imbalanced token counts).
WavePartition ScalePartition(const WavePartition& partition, int to_waves);

// Prefix-local boundary of a projected partition: where a base prefix of
// `cum` waves (out of `from_waves`) lands on a rank with `to_waves` waves,
// given the rank's previous boundary. The single home of the rounding
// expression shared by ProjectPartition and the fused multi-rank search —
// the boundary depends only on the base prefix sum, never on later groups,
// so the branch-and-bound can extend projections one group at a time.
// ScaledBoundary is the rounding alone (the search tabulates it per rank);
// ProjectedBoundary adds the at-least-one-wave floor.
inline int ScaledBoundary(int cum, int from_waves, int to_waves) {
  return static_cast<int>(static_cast<double>(cum) * to_waves / from_waves + 0.5);
}

inline int ProjectedBoundary(int cum, int from_waves, int to_waves, int previous) {
  const int scaled = ScaledBoundary(cum, from_waves, to_waves);
  return scaled > previous + 1 ? scaled : previous + 1;
}

// Projects `base` (a composition of `from_waves`) onto a rank with
// `to_waves` waves via ProjectedBoundary; the final boundary is forced to
// `to_waves` so the projection keeps the group count exactly (collectives
// are rendezvous calls). Returns std::nullopt when infeasible: an
// intermediate boundary would already consume the rank's final wave,
// leaving no wave for a later group — only possible when
// base.group_count() approaches `to_waves`.
std::optional<WavePartition> ProjectPartition(const WavePartition& base, int from_waves,
                                              int to_waves);

// Like ScalePartition but preserves the group count exactly (every group
// keeps at least one wave). Collective calls are rendezvous operations, so
// imbalanced ranks must agree on the number of groups. Requires
// to_waves >= partition.group_count().
WavePartition ScalePartitionExact(const WavePartition& partition, int to_waves);

// Splits `total` tiles into per-group tile counts proportional to
// `fractions` (which must sum to ~1); every group gets at least one tile.
// Requires total >= fractions.size().
std::vector<int> SplitTilesByFractions(int total, const std::vector<double>& fractions);

}  // namespace flo

#endif  // SRC_CORE_WAVE_PARTITION_H_
