// Tests for the KV store: batches, bounded scans, batch atomicity under
// concurrent readers, plus a randomized property test against a reference
// model.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "src/common/random.h"
#include "src/kv/kvstore.h"

namespace cfs {
namespace {

TEST(KvStoreTest, PutGetDelete) {
  KvStore kv;
  ASSERT_TRUE(kv.Put("key", "value").ok());
  auto got = kv.Get("key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "value");
  EXPECT_TRUE(kv.Contains("key"));
  ASSERT_TRUE(kv.Delete("key").ok());
  EXPECT_TRUE(kv.Get("key").status().IsNotFound());
  EXPECT_FALSE(kv.Contains("key"));
}

TEST(KvStoreTest, BatchIsAppliedInOrder) {
  KvStore kv;
  WriteBatch batch;
  batch.Put("k", "first");
  batch.Delete("k");
  batch.Put("k", "second");
  ASSERT_TRUE(kv.Write(batch).ok());
  auto got = kv.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "second");
}

TEST(KvStoreTest, ScanRangeSortedAndBounded) {
  KvStore kv;
  for (int i = 9; i >= 0; i--) {
    ASSERT_TRUE(kv.Put("k" + std::to_string(i), std::to_string(i)).ok());
  }
  ASSERT_TRUE(kv.Put("j", "before").ok());
  ASSERT_TRUE(kv.Put("m", "after").ok());
  auto rows = kv.Scan("k2", "k7");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows.front().first, "k2");
  EXPECT_EQ(rows.back().first, "k6");
  // The limit stops the scan at the first `limit` keys in order.
  auto limited = kv.Scan("k2", "k7", 3);
  ASSERT_EQ(limited.size(), 3u);
  EXPECT_EQ(limited.front().first, "k2");
  EXPECT_EQ(limited.back().first, "k4");
  // An empty end is unbounded.
  auto open_ended = kv.Scan("k8", "");
  ASSERT_EQ(open_ended.size(), 3u);
  EXPECT_EQ(open_ended.back().first, "m");
  EXPECT_EQ(kv.Scan("", "").size(), 12u);
}

TEST(KvStoreTest, ScanSkipsTombstones) {
  KvStore kv;
  ASSERT_TRUE(kv.Put("a", "1").ok());
  ASSERT_TRUE(kv.Put("b", "2").ok());
  ASSERT_TRUE(kv.Delete("a").ok());
  auto rows = kv.Scan("", "");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, "b");
}

// A batch is visible whole or not at all: a writer flips one key between
// two names with {Delete a, Put b} / {Delete b, Put a} batches while a
// reader scans, and every scan must hold exactly one key.
TEST(KvStoreTest, ReadersSeeWholeBatches) {
  KvStore kv;
  ASSERT_TRUE(kv.Put("a", "x").ok());
  std::atomic<bool> done{false};
  std::atomic<int> scans{0};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (kv.Scan("", "").size() != 1) torn.fetch_add(1);
      scans.fetch_add(1);
    }
  });
  for (int i = 0; i < 100000; i++) {
    WriteBatch batch;
    batch.Delete(i % 2 == 0 ? "a" : "b");
    batch.Put(i % 2 == 0 ? "b" : "a", "x");
    EXPECT_TRUE(kv.Write(batch).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0) << "of " << scans.load() << " scans";
  EXPECT_EQ(kv.Scan("", "").size(), 1u);
}

// Property test: random workload against a std::map reference model,
// across several seeds.
class KvPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvPropertyTest, MatchesReferenceModel) {
  KvStore kv;
  std::map<std::string, std::string> model;
  Rng rng(GetParam());

  for (int step = 0; step < 3000; step++) {
    std::string key = "k" + std::to_string(rng.Uniform(200));
    uint64_t action = rng.Uniform(10);
    if (action < 6) {
      std::string value = "v" + std::to_string(rng.Next() % 100000);
      ASSERT_TRUE(kv.Put(key, value).ok());
      model[key] = value;
    } else if (action < 8) {
      ASSERT_TRUE(kv.Delete(key).ok());
      model.erase(key);
    } else if (action == 8) {
      auto got = kv.Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(got.ok()) << key;
        EXPECT_EQ(*got, it->second);
      }
    } else {
      auto rows = kv.Scan("k", "l");
      EXPECT_EQ(rows.size(), model.size());
    }
  }
  // Final full comparison.
  auto rows = kv.Scan("", "");
  ASSERT_EQ(rows.size(), model.size());
  auto it = model.begin();
  for (const auto& [k, v] : rows) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace cfs
