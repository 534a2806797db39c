// The signaling mechanism's counting table (paper Sec. 3.2.4).
//
// The table holds one counter per wave group. The GEMM epilogue atomically
// bumps the counter of the finished tile's group; when a counter reaches
// the group's tile count, the group's communication may start. Counters are
// std::atomic because on the real device epilogue threads race; the
// simulator drives it single-threaded but through the same interface.
//
// The timed replay (ScheduleExecutor) counts a whole wave at once with
// RecordTiles: one update per group the wave touches. That is exact, not an
// approximation, because every tile of a simulated wave lands at the same
// instant — no event can observe a count between two of its tiles, so the
// signal fires at the same time and in the same group order as tile-by-tile
// counting. The functional path finishes tiles one at a time (RecordTile).
#ifndef SRC_CORE_COUNTING_TABLE_H_
#define SRC_CORE_COUNTING_TABLE_H_

#include <atomic>
#include <memory>
#include <vector>

namespace flo {

class CountingTable {
 public:
  // `group_targets[j]` = |G_j| in tiles.
  explicit CountingTable(std::vector<int> group_targets);

  int group_count() const { return static_cast<int>(targets_.size()); }
  int target(int group) const;
  int count(int group) const;

  // Records one finished tile of `group`; returns true if this tile
  // completed the group (the "signal"). Over-counting is a caller bug.
  bool RecordTile(int group) { return RecordTiles(group, 1); }
  // Records `tiles` (> 0) finished tiles of `group` in one update; returns
  // true exactly when they bring the group to its target.
  bool RecordTiles(int group, int tiles);

  bool GroupComplete(int group) const;
  bool AllComplete() const;

  // Resets all counters (keeps targets); lets one table be reused across
  // iterations like the persistent device buffer.
  void Reset();

 private:
  std::vector<int> targets_;
  std::vector<std::unique_ptr<std::atomic<int>>> counts_;
};

}  // namespace flo

#endif  // SRC_CORE_COUNTING_TABLE_H_
