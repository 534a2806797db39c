#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/counting_table.h"
#include "src/util/rng.h"

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

TEST(CountingTableTest, RecordTilesSignalsOnlyWhenTheTargetIsReached) {
  CountingTable table({5, 2});
  EXPECT_FALSE(table.RecordTiles(0, 3));
  EXPECT_EQ(table.count(0), 3);
  EXPECT_TRUE(table.RecordTiles(0, 2));
  EXPECT_TRUE(table.GroupComplete(0));
  EXPECT_TRUE(table.RecordTiles(1, 2)) << "one update may fill a group from zero";
  EXPECT_TRUE(table.AllComplete());
}

// Tiles finish in group order in waves of random width. Counting each wave
// with one RecordTiles per group it touches must signal the same groups at
// the same tile positions, and leave the same counts after every wave, as
// counting tile by tile.
TEST(CountingTableTest, BulkCountingMatchesTileByTileOverRandomWaves) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::vector<int> targets(1 + rng.NextBelow(8));
    int total = 0;
    for (int& target : targets) {
      target = 1 + static_cast<int>(rng.NextBelow(64));
      total += target;
    }
    CountingTable tiled(targets);
    CountingTable bulk(targets);
    // (group, tiles finished when it signalled) per counting style.
    std::vector<std::pair<int, int>> tiled_signals;
    std::vector<std::pair<int, int>> bulk_signals;
    int tiled_group = 0;
    int bulk_group = 0;
    int done = 0;
    while (done < total) {
      const int wave = std::min(total - done, 1 + static_cast<int>(rng.NextBelow(128)));
      for (int i = 1; i <= wave; ++i) {
        if (tiled.RecordTile(tiled_group)) {
          tiled_signals.emplace_back(tiled_group++, done + i);
        }
      }
      int landed = 0;
      while (landed < wave) {
        const int tiles =
            std::min(wave - landed, bulk.target(bulk_group) - bulk.count(bulk_group));
        landed += tiles;
        if (bulk.RecordTiles(bulk_group, tiles)) {
          bulk_signals.emplace_back(bulk_group++, done + landed);
        }
      }
      done += wave;
      for (int g = 0; g < bulk.group_count(); ++g) {
        ASSERT_EQ(bulk.count(g), tiled.count(g)) << "seed " << seed << " group " << g;
      }
    }
    EXPECT_EQ(bulk_signals, tiled_signals) << "seed " << seed;
    EXPECT_EQ(bulk_signals.size(), targets.size()) << "seed " << seed;
    EXPECT_TRUE(bulk.AllComplete()) << "seed " << seed;
  }
}

TEST(CountingTableDeathTest, BulkOverCountAborts) {
  CountingTable table({4});
  table.RecordTiles(0, 3);
  EXPECT_DEATH(table.RecordTiles(0, 2), "over-counted");
}

TEST(CountingTableDeathTest, NonPositiveBulkCountAborts) {
  CountingTable table({4});
  EXPECT_DEATH(table.RecordTiles(0, 0), "tiles");
  EXPECT_DEATH(table.RecordTiles(0, -1), "tiles");
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
