// Renamer service tests: request validation, loop detection (a verified
// client ancestor chain, or the backpointer walk it falls back to), commit
// behaviour, no-op renames, and concurrency (conflicting normal-path
// renames must serialize, not corrupt).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/cfs.h"
#include "src/core/gc.h"

namespace cfs {
namespace {

CfsOptions SmallCfs() {
  CfsOptions options = CfsFullOptions();
  options.num_servers = 6;
  options.tafdb.num_shards = 3;
  options.tafdb.range_stripe_width = 2;
  options.tafdb.raft.election_timeout_min_ms = 50;
  options.tafdb.raft.election_timeout_max_ms = 100;
  options.tafdb.raft.heartbeat_interval_ms = 20;
  options.filestore.num_nodes = 2;
  options.filestore.raft = options.tafdb.raft;
  options.renamer.raft = options.tafdb.raft;
  options.start_gc = false;
  return options;
}

class RenamerTest : public ::testing::Test {
 protected:
  void SetUp() override { Boot(SmallCfs()); }
  void Boot(const CfsOptions& options) {
    fs_ = std::make_unique<Cfs>(options);
    ASSERT_TRUE(fs_->Start().ok());
    client_ = fs_->NewClient();
  }
  void TearDown() override {
    client_.reset();
    fs_->Stop();
  }

  InodeId IdOf(const std::string& path) {
    auto info = client_->Lookup(path);
    return info.ok() ? info->id : kInvalidInode;
  }

  // A directory move of `src_parent/name` into `dst_parent` under the same
  // name, with the given ancestor chain for dst_parent.
  RenameRequest DirMove(const std::string& src_parent, const std::string& name,
                        const std::string& dst_parent,
                        std::vector<InodeId> chain) {
    RenameRequest req;
    req.src_parent = src_parent == "/" ? kRootInode : IdOf(src_parent);
    req.src_name = name;
    req.dst_parent = IdOf(dst_parent);
    req.dst_name = name;
    req.dst_chain = std::move(chain);
    return req;
  }

  uint64_t ChainWalks() { return fs_->renamer()->stats().chain_walks; }

  std::unique_ptr<Cfs> fs_;
  std::unique_ptr<MetadataClient> client_;
};

TEST_F(RenamerTest, SelfRenameIsNoOp) {
  ASSERT_TRUE(client_->Mkdir("/d", 0755).ok());
  ASSERT_TRUE(client_->Create("/d/f", 0644).ok());
  RenameRequest req;
  req.src_parent = IdOf("/d");
  req.src_name = "f";
  req.dst_parent = req.src_parent;
  req.dst_name = "f";
  EXPECT_TRUE(fs_->renamer()->Rename(req).ok());
  EXPECT_TRUE(client_->GetAttr("/d/f").ok());
}

TEST_F(RenamerTest, MissingSourceFails) {
  ASSERT_TRUE(client_->Mkdir("/d", 0755).ok());
  RenameRequest req;
  req.src_parent = IdOf("/d");
  req.src_name = "missing";
  req.dst_parent = kRootInode;
  req.dst_name = "x";
  EXPECT_TRUE(fs_->renamer()->Rename(req).status().IsNotFound());
}

TEST_F(RenamerTest, DirectoryMoveUpdatesParentPointer) {
  ASSERT_TRUE(client_->Mkdir("/from", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/to", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/from/mv", 0755).ok());
  InodeId moved = IdOf("/from/mv");
  InodeId to = IdOf("/to");

  ASSERT_TRUE(client_->Rename("/from/mv", "/to/mv").ok());
  auto attr = fs_->tafdb()->ShardFor(moved)->Get(InodeKey::AttrRecord(moved));
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->parent, to);
}

TEST_F(RenamerTest, DeepLoopDetection) {
  ASSERT_TRUE(client_->Mkdir("/a", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/a/b", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/a/b/c", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/a/b/c/d", 0755).ok());
  auto before = fs_->renamer()->stats();
  Status st = client_->Rename("/a", "/a/b/c/d/evil");
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs_->renamer()->stats().loops_detected,
            before.loops_detected + 1);
  // Sibling-level move is not a loop.
  ASSERT_TRUE(client_->Mkdir("/other", 0755).ok());
  EXPECT_TRUE(client_->Rename("/a/b/c", "/other/c").ok());
}

TEST_F(RenamerTest, ReplacedEmptyDirIsRetired) {
  ASSERT_TRUE(client_->Mkdir("/s", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/t", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/s/victim", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/t/repl", 0755).ok());
  InodeId victim = IdOf("/s/victim");

  ASSERT_TRUE(client_->Rename("/t/repl", "/s/victim").ok());
  EXPECT_TRUE(fs_->tafdb()
                  ->ShardFor(victim)
                  ->Get(InodeKey::AttrRecord(victim))
                  .status()
                  .IsNotFound());
  auto now = client_->GetAttr("/s/victim");
  ASSERT_TRUE(now.ok());
  EXPECT_NE(now->id, victim);
}

TEST_F(RenamerTest, ConcurrentNormalPathRenamesSerialize) {
  ASSERT_TRUE(client_->Mkdir("/ca", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/cb", 0755).ok());
  constexpr int kFiles = 12;
  for (int i = 0; i < kFiles; i++) {
    ASSERT_TRUE(client_->Create("/ca/f" + std::to_string(i), 0644).ok());
  }
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<MetadataClient>> clients;
  for (int t = 0; t < 4; t++) clients.push_back(fs_->NewClient());
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      for (int i = t; i < kFiles; i += 4) {
        std::string from = "/ca/f" + std::to_string(i);
        std::string to = "/cb/g" + std::to_string(i);
        if (clients[t]->Rename(from, to).ok()) ok++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kFiles);
  auto ca = client_->GetAttr("/ca");
  auto cb = client_->GetAttr("/cb");
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(ca->children, 0);
  EXPECT_EQ(cb->children, kFiles);
  EXPECT_GE(fs_->renamer()->stats().committed, static_cast<uint64_t>(kFiles));
}

TEST_F(RenamerTest, RacingRenamesOfSameSourceOnlyOneWins) {
  ASSERT_TRUE(client_->Mkdir("/ra", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/rb", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/rc", 0755).ok());
  ASSERT_TRUE(client_->Create("/ra/one", 0644).ok());

  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<MetadataClient>> clients;
  for (int t = 0; t < 2; t++) clients.push_back(fs_->NewClient());
  threads.emplace_back([&] {
    if (clients[0]->Rename("/ra/one", "/rb/one").ok()) wins++;
  });
  threads.emplace_back([&] {
    if (clients[1]->Rename("/ra/one", "/rc/one").ok()) wins++;
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), 1);
  // Verify with a cold-cache client: dentry caches may hold stale entries
  // (the moved file's attribute record legitimately still exists).
  auto fresh = fs_->NewClient();
  int found = 0;
  if (fresh->GetAttr("/rb/one").ok()) found++;
  if (fresh->GetAttr("/rc/one").ok()) found++;
  EXPECT_EQ(found, 1);
  EXPECT_TRUE(fresh->GetAttr("/ra/one").status().IsNotFound());
}

TEST_F(RenamerTest, VerifiedChainRejectsMoveIntoOwnSubtree) {
  ASSERT_TRUE(client_->Mkdir("/a", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/a/b", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/a/b/c", 0755).ok());
  std::vector<InodeId> chain = {IdOf("/a"), IdOf("/a/b"), IdOf("/a/b/c")};
  auto before = fs_->renamer()->stats();
  Status st = fs_->renamer()->Rename(DirMove("/", "a", "/a/b/c", chain))
                  .status();
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  // The client path sends the chain it resolved: the same verdict.
  EXPECT_EQ(client_->Rename("/a", "/a/b/c/a").code(),
            ErrorCode::kInvalidArgument);
  auto after = fs_->renamer()->stats();
  EXPECT_EQ(after.loops_detected, before.loops_detected + 2);
  EXPECT_EQ(after.chain_walks, before.chain_walks);
  // A legal move with a verified chain commits without walking.
  ASSERT_TRUE(client_->Mkdir("/x", 0755).ok());
  EXPECT_TRUE(client_->Rename("/x", "/a/b/c/x").ok());
  EXPECT_EQ(ChainWalks(), before.chain_walks);
  EXPECT_TRUE(client_->GetAttr("/a/b/c/x").ok());
}

TEST_F(RenamerTest, StaleChainFallsBackToWalk) {
  ASSERT_TRUE(client_->Mkdir("/a", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/p", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/p/c", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/q", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/q/r", 0755).ok());
  std::vector<InodeId> stale_c = {IdOf("/p"), IdOf("/p/c")};
  std::vector<InodeId> stale_r = {IdOf("/q"), IdOf("/q/r")};
  // Concurrent directory moves change a link of each chain: c now lives
  // under /a, and r no longer under /q.
  ASSERT_TRUE(client_->Rename("/p/c", "/a/c").ok());
  ASSERT_TRUE(client_->Rename("/q/r", "/p/r").ok());

  // Trusting the stale chain would let /a move under its own child.
  uint64_t walks = ChainWalks();
  RenameRequest loop = DirMove("/", "a", "/a/c", stale_c);
  EXPECT_EQ(fs_->renamer()->Rename(loop).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ChainWalks(), walks + 1);
  loop.dst_chain.clear();  // the walk alone: the same verdict
  EXPECT_EQ(fs_->renamer()->Rename(loop).status().code(),
            ErrorCode::kInvalidArgument);

  // Trusting the other would reject a legal move of /q under /p/r.
  walks = ChainWalks();
  EXPECT_TRUE(fs_->renamer()->Rename(DirMove("/", "q", "/p/r", stale_r)).ok());
  EXPECT_EQ(ChainWalks(), walks + 1);
}

TEST_F(RenamerTest, ForgedChainFallsBackToWalk) {
  ASSERT_TRUE(client_->Mkdir("/a", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/a/b", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/a/b/c", 0755).ok());
  InodeId b = IdOf("/a/b");
  InodeId c = IdOf("/a/b/c");
  const std::vector<std::vector<InodeId>> forged = {
      {b, c},               // skips /a: b's parent is not the root
      {c},                  // c's parent is not the root
      {987654321, b, c},    // an id with no attribute record
      {IdOf("/a"), c, c},   // a repeated link
  };
  for (const auto& chain : forged) {
    uint64_t walks = ChainWalks();
    EXPECT_EQ(fs_->renamer()->Rename(DirMove("/", "a", "/a/b/c", chain))
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(ChainWalks(), walks + 1);
  }
}

TEST_F(RenamerTest, ChainNotEndingAtDstParentFallsBackToWalk) {
  ASSERT_TRUE(client_->Mkdir("/a", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/a/b", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/a/b/c", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/o", 0755).ok());
  // A valid chain, but for /a/b (and /o), not for the destination /a/b/c.
  for (const std::vector<InodeId>& chain :
       {std::vector<InodeId>{IdOf("/a"), IdOf("/a/b")},
        std::vector<InodeId>{IdOf("/o")}}) {
    uint64_t walks = ChainWalks();
    EXPECT_EQ(fs_->renamer()->Rename(DirMove("/", "a", "/a/b/c", chain))
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(ChainWalks(), walks + 1);
  }
}

// With a verified chain, a directory move into a depth-3 parent issues the
// RPCs the walk did (two entry reads plus three ancestor reads), but as one
// round: with a fixed RTT and no jitter, the coordinator thread's injected
// latency is three round trips below the walk's.
TEST_F(RenamerTest, DepthThreeChainReadsInOneRound) {
  constexpr int64_t kRttUs = 300;
  CfsOptions options = SmallCfs();
  options.net.mode = LatencyMode::kSleep;
  options.net.same_node_rtt_us = kRttUs;
  options.net.cross_node_rtt_us = kRttUs;
  options.net.jitter_pct = 0;
  client_.reset();
  fs_->Stop();
  Boot(options);
  for (const char* dir : {"/p", "/p/q", "/p/q/r", "/s", "/s/m1", "/s/m2",
                          "/s/m3"}) {
    ASSERT_TRUE(client_->Mkdir(dir, 0755).ok()) << dir;
  }
  std::vector<InodeId> chain = {IdOf("/p"), IdOf("/p/q"), IdOf("/p/q/r")};
  // Warm-up: the first rename fetches the coordinator's timestamp batch.
  ASSERT_TRUE(fs_->renamer()->Rename(DirMove("/s", "m3", "/p/q/r", chain)).ok());

  struct Cost {
    uint64_t rpcs;
    int64_t rpc_us;
  };
  auto measure = [&](const RenameRequest& req) {
    SimNet::ResetThreadHops();
    OpTrace::ClearPhase(Phase::kRpc);
    EXPECT_TRUE(fs_->renamer()->Rename(req).ok());
    Cost cost{SimNet::ThreadHops(), OpTrace::PhaseUs(Phase::kRpc)};
    OpTrace::ClearPhase(Phase::kRpc);
    return cost;
  };
  uint64_t walks = ChainWalks();
  Cost round = measure(DirMove("/s", "m1", "/p/q/r", chain));
  EXPECT_EQ(ChainWalks(), walks);
  Cost walked = measure(DirMove("/s", "m2", "/p/q/r", {}));
  EXPECT_EQ(ChainWalks(), walks + 1);
  EXPECT_EQ(round.rpcs, walked.rpcs);
  EXPECT_EQ(walked.rpc_us - round.rpc_us, 3 * kRttUs);
}

}  // namespace
}  // namespace cfs
