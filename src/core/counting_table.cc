#include "src/core/counting_table.h"

#include <utility>

#include "src/util/check.h"

namespace flo {

CountingTable::CountingTable(std::vector<int> group_targets)
    : targets_(std::move(group_targets)) {
  FLO_CHECK(!targets_.empty());
  counts_.reserve(targets_.size());
  for (int target : targets_) {
    FLO_CHECK_GT(target, 0);
    counts_.push_back(std::make_unique<std::atomic<int>>(0));
  }
}

int CountingTable::target(int group) const {
  FLO_CHECK_GE(group, 0);
  FLO_CHECK_LT(group, group_count());
  return targets_[group];
}

int CountingTable::count(int group) const {
  FLO_CHECK_GE(group, 0);
  FLO_CHECK_LT(group, group_count());
  return counts_[group]->load(std::memory_order_acquire);
}

bool CountingTable::RecordTiles(int group, int tiles) {
  FLO_CHECK_GE(group, 0);
  FLO_CHECK_LT(group, group_count());
  FLO_CHECK_GT(tiles, 0);
  const int new_count = counts_[group]->fetch_add(tiles, std::memory_order_acq_rel) + tiles;
  FLO_CHECK_LE(new_count, targets_[group]) << "group over-counted";
  return new_count == targets_[group];
}

bool CountingTable::GroupComplete(int group) const { return count(group) >= target(group); }

bool CountingTable::AllComplete() const {
  for (int g = 0; g < group_count(); ++g) {
    if (!GroupComplete(g)) {
      return false;
    }
  }
  return true;
}

void CountingTable::Reset() {
  for (auto& count : counts_) {
    count->store(0, std::memory_order_release);
  }
}

}  // namespace flo
