// Unit tests for the WAL: append/LSN sequencing, replay (memory and file),
// the memory-window cap, and torn-tail recovery.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/wal/wal.h"

namespace cfs {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("cfs_wal_test_" + name + "_" + std::to_string(::getpid())))
      .string();
}

TEST(WalTest, AppendAssignsSequentialLsns) {
  Wal wal;
  ASSERT_TRUE(wal.Open().ok());
  for (uint64_t i = 0; i < 10; i++) {
    auto lsn = wal.Append("rec" + std::to_string(i));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, i);
  }
  EXPECT_EQ(wal.NextLsn(), 10u);
}

TEST(WalTest, MemoryReplayDeliversInOrder) {
  Wal wal;
  ASSERT_TRUE(wal.Open().ok());
  (void)wal.Append("a");
  (void)wal.Append("b");
  (void)wal.Append("c");
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t lsn, std::string_view rec) {
                   EXPECT_EQ(lsn, seen.size());
                   seen.emplace_back(rec);
                 }).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(WalTest, WindowCapEvictsOldest) {
  WalOptions options;
  options.memory_window = 4;
  Wal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  for (int i = 0; i < 10; i++) {
    (void)wal.Append("r" + std::to_string(i));
  }
  // A memory-only replay delivers the last four records, with their LSNs.
  std::vector<std::pair<uint64_t, std::string>> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t lsn, std::string_view rec) {
                   seen.emplace_back(lsn, rec);
                 }).ok());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen.front(), std::make_pair(uint64_t{6}, std::string("r6")));
  EXPECT_EQ(seen.back(), std::make_pair(uint64_t{9}, std::string("r9")));
  EXPECT_EQ(wal.NextLsn(), 10u);
}

TEST(WalTest, FileBackedReplaySurvivesReopen) {
  std::string path = TempPath("reopen");
  std::remove(path.c_str());
  {
    WalOptions options;
    options.path = path;
    Wal wal(options);
    ASSERT_TRUE(wal.Open().ok());
    (void)wal.Append("persisted-1");
    (void)wal.Append("persisted-2");
  }
  WalOptions options;
  options.path = path;
  Wal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t, std::string_view rec) {
                   seen.emplace_back(rec);
                 }).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"persisted-1", "persisted-2"}));
  std::remove(path.c_str());
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  std::string path = TempPath("torn");
  std::remove(path.c_str());
  WalOptions options;
  options.path = path;
  Wal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  (void)wal.Append("good-record");
  (void)wal.Append("will-be-torn");
  ASSERT_TRUE(wal.CorruptTailForTest(4).ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t, std::string_view rec) {
                   seen.emplace_back(rec);
                 }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "good-record");
  std::remove(path.c_str());
}

TEST(WalTest, SyncedAppendsCounted) {
  Wal wal;
  ASSERT_TRUE(wal.Open().ok());
  (void)wal.Append("a", /*sync=*/true);
  (void)wal.Append("b", /*sync=*/false);
  (void)wal.Append("c", /*sync=*/true);
  EXPECT_EQ(wal.synced_appends(), 2u);
}

TEST(WalTest, SimulatedFsyncDelayApplies) {
  WalOptions options;
  options.fsync_delay_us = 2000;
  Wal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  auto start = std::chrono::steady_clock::now();
  (void)wal.Append("slow", /*sync=*/true);
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_GE(elapsed, 2000);
  start = std::chrono::steady_clock::now();
  (void)wal.Append("fast", /*sync=*/false);
  elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  EXPECT_LT(elapsed, 2000);
}

}  // namespace
}  // namespace cfs
