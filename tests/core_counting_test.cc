#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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

TEST(CountingTableTest, CallbackFiresOnceOnCompletion) {
  CountingTable table({2});
  int fired = 0;
  table.OnGroupComplete(0, [&] { ++fired; });
  table.RecordTile(0);
  EXPECT_EQ(fired, 0);
  table.RecordTile(0);
  EXPECT_EQ(fired, 1);
}

TEST(CountingTableTest, LateCallbackFiresImmediately) {
  CountingTable table({1});
  table.RecordTile(0);
  int fired = 0;
  table.OnGroupComplete(0, [&] { ++fired; });
  EXPECT_EQ(fired, 1);
}

TEST(CountingTableTest, MultipleCallbacksAllFire) {
  CountingTable table({1, 1});
  int a = 0;
  int b = 0;
  table.OnGroupComplete(0, [&] { ++a; });
  table.OnGroupComplete(0, [&] { ++b; });
  table.RecordTile(0);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(CountingTableTest, ResetClearsCountsAndCallbacks) {
  CountingTable table({2});
  int fired = 0;
  table.RecordTile(0);
  table.OnGroupComplete(0, [&] { ++fired; });
  table.Reset();
  EXPECT_EQ(table.count(0), 0);
  table.RecordTile(0);
  table.RecordTile(0);
  EXPECT_EQ(fired, 0) << "callbacks registered before Reset must not survive";
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

TEST(CountingTableTest, BulkRecordCompletesGroupExactly) {
  CountingTable table({5, 3});
  int fired = 0;
  table.OnGroupComplete(0, [&fired] { ++fired; });
  EXPECT_FALSE(table.RecordTiles(0, 2));
  EXPECT_EQ(table.count(0), 2);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(table.RecordTiles(0, 3));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(table.GroupComplete(0));
  EXPECT_FALSE(table.GroupComplete(1));
  // One call covering a whole group signals it on its own.
  EXPECT_TRUE(table.RecordTiles(1, 3));
  EXPECT_TRUE(table.AllComplete());
  EXPECT_EQ(fired, 1);
}

TEST(CountingTableDeathTest, BulkOverCountAborts) {
  CountingTable table({4});
  table.RecordTiles(0, 3);
  EXPECT_DEATH(table.RecordTiles(0, 2), "over-counted");
}

TEST(CountingTableDeathTest, NonPositiveBulkCountAborts) {
  CountingTable table({4});
  EXPECT_DEATH(table.RecordTiles(0, 0), "");
  EXPECT_DEATH(table.RecordTiles(0, -1), "");
}

// Drives one table through a GEMM's waves: each wave finishes the next
// `width` tiles, laid out group after group. Logs every signal, the counts
// after each wave, and every callback firing with the counts it saw.
std::vector<std::string> ReplayWaves(const std::vector<int>& targets,
                                     const std::vector<int>& widths, bool bulk) {
  CountingTable table(targets);
  std::vector<std::string> log;
  auto snapshot = [&table] {
    std::string counts;
    for (int g = 0; g < table.group_count(); ++g) {
      counts += std::to_string(table.count(g)) + ",";
    }
    return counts;
  };
  for (int g = 0; g < table.group_count(); ++g) {
    for (int id = 0; id < 1 + g % 2; ++id) {
      table.OnGroupComplete(g, [&log, &snapshot, g, id] {
        log.push_back("callback " + std::to_string(g) + "." + std::to_string(id) + " at " +
                      snapshot());
      });
    }
  }
  std::vector<int> group_of_tile;
  for (int g = 0; g < table.group_count(); ++g) {
    group_of_tile.insert(group_of_tile.end(), targets[g], g);
  }
  const int tiles = static_cast<int>(group_of_tile.size());
  int done = 0;
  for (size_t wave = 0; done < tiles; ++wave) {
    const int end = std::min(tiles, done + widths[wave % widths.size()]);
    while (done < end) {
      const int group = group_of_tile[done];
      int n = 1;
      if (bulk) {
        while (done + n < end && group_of_tile[done + n] == group) {
          ++n;
        }
        if (table.RecordTiles(group, n)) {
          log.push_back("signal " + std::to_string(group));
        }
      } else if (table.RecordTile(group)) {
        log.push_back("signal " + std::to_string(group));
      }
      done += n;
    }
    log.push_back("wave " + std::to_string(wave) + " counts " + snapshot());
  }
  EXPECT_TRUE(table.AllComplete());
  return log;
}

TEST(CountingTableTest, BulkRecordingMatchesPerTileRecording) {
  Rng rng(20240611);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> targets(1 + rng.NextBelow(8));
    for (int& target : targets) {
      target = 1 + static_cast<int>(rng.NextBelow(rng.NextBelow(2) == 0 ? 4 : 300));
    }
    std::vector<int> widths(1 + rng.NextBelow(4));
    for (int& width : widths) {
      width = 1 + static_cast<int>(rng.NextBelow(200));
    }
    const std::vector<std::string> per_tile = ReplayWaves(targets, widths, /*bulk=*/false);
    const std::vector<std::string> bulk = ReplayWaves(targets, widths, /*bulk=*/true);
    ASSERT_EQ(per_tile, bulk) << "trial " << trial;
  }
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
