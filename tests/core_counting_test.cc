#include <gtest/gtest.h>

#include <vector>

#include "src/core/counting_table.h"

namespace flo {
namespace {

TEST(CountingTableTest, SignalsExactlyAtTarget) {
  CountingTable table({3});
  EXPECT_FALSE(table.RecordTile(0));
  EXPECT_FALSE(table.RecordTile(0));
  EXPECT_TRUE(table.RecordTile(0));
  EXPECT_TRUE(table.GroupComplete(0));
}

TEST(CountingTableTest, GroupsAreIndependent) {
  CountingTable table({2, 1, 3});
  EXPECT_TRUE(table.RecordTile(1));
  EXPECT_FALSE(table.GroupComplete(0));
  EXPECT_TRUE(table.GroupComplete(1));
  EXPECT_FALSE(table.GroupComplete(2));
  EXPECT_FALSE(table.AllComplete());
  table.RecordTile(0);
  table.RecordTile(0);
  table.RecordTile(2);
  table.RecordTile(2);
  table.RecordTile(2);
  EXPECT_TRUE(table.AllComplete());
}

TEST(CountingTableTest, ResetClearsCounts) {
  CountingTable table({2});
  table.RecordTile(0);
  table.Reset();
  EXPECT_EQ(table.count(0), 0);
  EXPECT_FALSE(table.RecordTile(0));
  EXPECT_TRUE(table.RecordTile(0)) << "the signal fires again after Reset";
  EXPECT_TRUE(table.GroupComplete(0));
}

TEST(CountingTableDeathTest, OverCountAborts) {
  CountingTable table({1});
  table.RecordTile(0);
  EXPECT_DEATH(table.RecordTile(0), "over-counted");
}

TEST(CountingTableDeathTest, InvalidGroupAborts) {
  CountingTable table({1});
  EXPECT_DEATH(table.RecordTile(1), "");
}

TEST(CountingTableDeathTest, ZeroTargetAborts) {
  EXPECT_DEATH(CountingTable({0}), "");
}

class CountingSweepTest : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(CountingSweepTest, AllGroupsCompleteInAnyInterleaving) {
  const std::vector<int>& targets = GetParam();
  CountingTable table(targets);
  std::vector<int> signalled(targets.size(), 0);
  // Round-robin interleaving across groups.
  std::vector<int> remaining = targets;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t g = 0; g < remaining.size(); ++g) {
      if (remaining[g] > 0) {
        --remaining[g];
        if (table.RecordTile(static_cast<int>(g))) {
          ++signalled[g];
        }
        progress = true;
      }
    }
  }
  for (size_t g = 0; g < targets.size(); ++g) {
    EXPECT_EQ(signalled[g], 1) << "group " << g << " must signal exactly once";
  }
  EXPECT_TRUE(table.AllComplete());
}

INSTANTIATE_TEST_SUITE_P(Targets, CountingSweepTest,
                         ::testing::Values(std::vector<int>{1}, std::vector<int>{4, 4},
                                           std::vector<int>{1, 2, 3, 4, 5},
                                           std::vector<int>{128, 1, 64},
                                           std::vector<int>{7, 7, 7, 7, 7, 7, 7}));

}  // namespace
}  // namespace flo
