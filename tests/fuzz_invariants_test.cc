// Namespace-invariant fuzz: several clients issue a random mix of metadata
// operations against one CFS cluster, then the whole namespace is audited:
//
//   I1  every directory's delta-applied `children` counter equals the
//       number of entries readdir returns (no lost updates, no leaks);
//   I2  every dentry's attribute record exists in its tier (after GC has
//       settled, no dangling dentries);
//   I3  every directory attribute record's parent backpointer names the
//       directory that actually contains its dentry (rename consistency);
//   I4  readdir never shows the reserved attribute key.
//
// Each invariant's failure message starts with its tag ("I3 /d0/n8"), which
// scripts/fuzz_stress.sh counts.
//
// Runs against full CFS and the lock-based CFS-base configuration with
// several seeds (TEST_P), in zero-latency mode so thousands of ops fit in
// a test budget.

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>

#include "src/core/cfs.h"
#include "src/core/gc.h"

namespace cfs {
namespace {

struct FuzzParam {
  bool primitives;
  uint64_t seed;
};

class FuzzInvariantsTest : public ::testing::TestWithParam<FuzzParam> {};

std::string RandomName(Rng& rng) {
  return "n" + std::to_string(rng.Uniform(40));
}

TEST_P(FuzzInvariantsTest, RandomOpsPreserveInvariants) {
  CfsOptions options =
      GetParam().primitives ? CfsFullOptions() : CfsBaseOptions();
  options.num_servers = 6;
  options.tafdb.num_shards = 3;
  options.tafdb.range_stripe_width = 2;
  options.tafdb.raft.election_timeout_min_ms = 50;
  options.tafdb.raft.election_timeout_max_ms = 100;
  options.tafdb.raft.heartbeat_interval_ms = 20;
  options.filestore.num_nodes = 2;
  options.filestore.raft = options.tafdb.raft;
  options.renamer.raft = options.tafdb.raft;
  // The orphan grace period must exceed the create pipeline's tail latency
  // (attr write -> link write) or the pairing analysis would reclaim
  // in-flight creations; generous here because the 1-core CI box can delay
  // a raft commit by hundreds of ms under this op storm.
  options.gc_interval_ms = 100;
  options.gc_grace_ms = 2000;
  // The audit below expects a single retry to converge. A cached ENOENT
  // planted by the op storm has no mutation to invalidate it (creates do
  // not bump directory epochs), so disable negative caching here; the
  // strict-convergence coherence tests exercise the TTL path instead.
  options.dentry_negative_ttl_ms = 0;
  Cfs fs(options);
  ASSERT_TRUE(fs.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  // A fixed pool of directories keeps collisions (EEXIST/ENOENT/ENOTEMPTY)
  // frequent — the interesting paths.
  auto setup = fs.NewClient();
  std::vector<std::string> dirs = {"/d0", "/d1", "/d2", "/d3"};
  for (const auto& d : dirs) {
    ASSERT_TRUE(setup->Mkdir(d, 0755).ok());
  }

  std::vector<std::thread> threads;
  std::atomic<int> hard_failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      auto client = fs.NewClient();
      Rng rng(GetParam().seed * 7919 + t);
      for (int i = 0; i < kOpsPerThread; i++) {
        const std::string& dir = dirs[rng.Uniform(dirs.size())];
        std::string path = dir + "/" + RandomName(rng);
        Status st;
        switch (rng.Uniform(8)) {
          case 0: st = client->Create(path, 0644); break;
          case 1: st = client->Unlink(path); break;
          case 2: st = client->Mkdir(path, 0755); break;
          case 3: st = client->Rmdir(path); break;
          case 4: st = client->GetAttr(path).status(); break;
          case 5: st = client->ReadDir(dir).status(); break;
          case 6: {
            std::string to =
                dirs[rng.Uniform(dirs.size())] + "/" + RandomName(rng);
            st = client->Rename(path, to);
            break;
          }
          case 7: {
            SetAttrSpec spec;
            spec.mtime = rng.Next() % 100000;
            st = client->SetAttr(path, spec);
            break;
          }
        }
        // POSIX errors are expected under this fuzz; infrastructure errors
        // are not.
        switch (st.code()) {
          case ErrorCode::kOk:
          case ErrorCode::kNotFound:
          case ErrorCode::kAlreadyExists:
          case ErrorCode::kNotADirectory:
          case ErrorCode::kIsADirectory:
          case ErrorCode::kNotEmpty:
          case ErrorCode::kInvalidArgument:
            break;
          default:
            hard_failures++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hard_failures.load(), 0);

  // Let async cleanups and the GC settle before auditing.
  fs.filestore()->DrainAsync();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  fs.gc()->RunOnceForTest();

  // ---- audit ----
  auto audit = fs.NewClient();
  std::deque<std::pair<std::string, InodeId>> queue;
  queue.emplace_back("/", kRootInode);
  size_t dirs_checked = 0, entries_checked = 0;
  while (!queue.empty()) {
    auto [path, id] = queue.front();
    queue.pop_front();
    // One retry, as for GetAttr below: proxy-shared dentry caches may be
    // stale right after the op storm and must self-heal.
    auto listing = audit->ReadDir(path);
    if (!listing.ok()) listing = audit->ReadDir(path);
    ASSERT_TRUE(listing.ok()) << path << ": " << listing.status();
    auto attr = audit->GetAttr(path);
    if (!attr.ok()) attr = audit->GetAttr(path);
    ASSERT_TRUE(attr.ok()) << path << ": " << attr.status();
    // I1: counter == fanout.
    EXPECT_EQ(static_cast<size_t>(attr->children), listing->size())
        << "I1 " << path;
    dirs_checked++;
    for (const auto& entry : *listing) {
      // I4: reserved names never leak into listings.
      EXPECT_NE(entry.name, kAttrKeyStr) << "I4 " << path;
      std::string child_path =
          (path == "/" ? "" : path) + "/" + entry.name;
      // I2: every dentry's attributes resolve. One retry is allowed: a
      // stale cached dentry (proxy-mode engines share caches with the
      // just-finished op storm) fails once, self-invalidates, and must
      // converge — the same revalidation a kernel client performs.
      auto child_attr = audit->GetAttr(child_path);
      if (!child_attr.ok()) {
        child_attr = audit->GetAttr(child_path);
      }
      if (!child_attr.ok()) {
        auto gc_stats = fs.gc()->stats();
        ADD_FAILURE() << "I2 " << child_path << ": " << child_attr.status()
                      << " id=" << entry.id
                      << " type=" << static_cast<int>(entry.type)
                      << " gc_orphans=" << gc_stats.orphan_attrs_deleted
                      << " gc_missed=" << gc_stats.missed_deletes_fixed
                      << " gc_dangling=" << gc_stats.dangling_entries_removed;
        continue;
      }
      entries_checked++;
      if (entry.type == InodeType::kDirectory) {
        // I3: parent backpointer agrees with the containing directory.
        auto rec = fs.tafdb()
                       ->ShardFor(entry.id)
                       ->Get(InodeKey::AttrRecord(entry.id));
        ASSERT_TRUE(rec.ok()) << "I3 " << child_path;
        EXPECT_EQ(rec->parent, id) << "I3 " << child_path;
        queue.emplace_back(child_path, entry.id);
      }
    }
  }
  EXPECT_GE(dirs_checked, dirs.size() + 1);
  (void)entries_checked;
  fs.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzInvariantsTest,
    ::testing::Values(FuzzParam{true, 1}, FuzzParam{true, 2},
                      FuzzParam{true, 3}, FuzzParam{false, 1},
                      FuzzParam{false, 2}),
    [](const ::testing::TestParamInfo<FuzzParam>& param) {
      return std::string(param.param.primitives ? "FullCfs" : "CfsBase") +
             "Seed" + std::to_string(param.param.seed);
    });

}  // namespace
}  // namespace cfs
