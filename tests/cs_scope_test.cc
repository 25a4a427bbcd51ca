// Critical-section scope auditor tests (src/common/lock_order.h +
// SimNet::OnRpcEdge wiring): RPC-under-lock detection and reporting,
// RpcHoldPolicy registration rules, logical scope entries, hold-span
// accounting, unbalanced-pop diagnostics, and the end-to-end paper claim —
// CFS issues no RPC under any never-across-rpc lock class while the
// HopsFS baseline's transaction row locks span RPCs by design.
//
// Lock-class names are process-global; every test uses names unique to
// itself ("t.cs.<test>.<lock>").

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/baselines/hopsfs/hopsfs.h"
#include "src/common/lock_order.h"
#include "src/common/thread_annotations.h"
#include "src/core/cfs.h"
#include "src/net/simnet.h"
#include "src/txn/timestamp_oracle.h"

namespace cfs {
namespace {

using lock_order::RpcHoldPolicy;
using lock_order::Violation;

#ifdef CFS_LOCK_ORDER_TRACKING

// Finds a class's scope stats by name; fails the test if absent.
lock_order::ClassScope ScopeOf(const std::string& name) {
  for (auto& cs : lock_order::ScopeSnapshot()) {
    if (cs.name == name) return cs;
  }
  ADD_FAILURE() << "lock class not registered: " << name;
  return {};
}

// Installs a recording handler (the default aborts) and restores RPC
// enforcement, which some tests toggle off.
class CsScopeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lock_order::ResetGraphForTest();
    lock_order::SetRpcEnforcement(true);
    lock_order::SetViolationHandler(
        [this](const Violation& v) { violations_.push_back(v); });
  }

  void TearDown() override {
    lock_order::SetViolationHandler(nullptr);
    lock_order::SetRpcEnforcement(true);
    lock_order::ResetGraphForTest();
  }

  std::vector<Violation> violations_;
};

TEST_F(CsScopeTest, RpcUnderNeverClassReportsClassAndEdge) {
  SimNet net;
  NodeId client = net.AddNode("client", 0);
  NodeId shard = net.AddNode("shard", 1);
  Mutex mu{"t.cs.report.mu", 2};
  {
    MutexLock lock(mu);
    (void)net.Call(client, shard, [] { return Status::Ok(); });
  }
  ASSERT_EQ(violations_.size(), 1u);
  const Violation& v = violations_[0];
  EXPECT_EQ(v.kind, Violation::Kind::kRpcUnderLock);
  EXPECT_EQ(v.held, "t.cs.report.mu");
  EXPECT_EQ(v.held_rank, 2);
  EXPECT_EQ(v.rpc_edge, "client -> shard");
  auto cs = ScopeOf("t.cs.report.mu");
  EXPECT_EQ(cs.rpcs_under_lock, 1u);
  EXPECT_EQ(cs.rpc_violations, 1u);
}

TEST_F(CsScopeTest, RpcChargedToEveryHeldNeverClass) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  Mutex outer{"t.cs.multi.outer", 3};
  Mutex inner{"t.cs.multi.inner", 4};
  {
    MutexLock lo(outer);
    MutexLock li(inner);
    (void)net.Call(a, b, [] { return Status::Ok(); });
  }
  EXPECT_EQ(violations_.size(), 2u);
  EXPECT_EQ(ScopeOf("t.cs.multi.outer").rpcs_under_lock, 1u);
  EXPECT_EQ(ScopeOf("t.cs.multi.inner").rpcs_under_lock, 1u);
}

TEST_F(CsScopeTest, FanOutChargesPerDestination) {
  SimNet net;
  NodeId src = net.AddNode("src", 0);
  std::vector<NodeId> dests{net.AddNode("d0", 1), net.AddNode("d1", 2)};
  Mutex mu{"t.cs.fanout.mu", 5};
  {
    MutexLock lock(mu);
    // Off a scheduler the handlers run on SimNet's worker pool; the edges
    // are still charged to the caller's held locks.
    (void)net.FanOut(src, dests, [](size_t) { return Status::Ok(); });
  }
  EXPECT_EQ(violations_.size(), 2u);
  EXPECT_EQ(ScopeOf("t.cs.fanout.mu").rpcs_under_lock, 2u);
  EXPECT_EQ(violations_[0].rpc_edge, "src -> d0");
  EXPECT_EQ(violations_[1].rpc_edge, "src -> d1");
}

TEST_F(CsScopeTest, AllowedScopeClassIsCountedNotReported) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  uint32_t cls = lock_order::RegisterClass(
      "t.cs.allowed.rowlock", 0, RpcHoldPolicy::kAllowedAcrossRpc,
      "models a baseline's row locks held across transaction round trips");
  lock_order::OnScopeEnter(cls);
  for (int i = 0; i < 3; i++) {
    (void)net.Call(a, b, [] { return Status::Ok(); });
  }
  lock_order::OnScopeExit(cls);
  EXPECT_TRUE(violations_.empty());
  auto cs = ScopeOf("t.cs.allowed.rowlock");
  EXPECT_EQ(cs.policy, RpcHoldPolicy::kAllowedAcrossRpc);
  EXPECT_EQ(cs.rpcs_under_lock, 3u);
  EXPECT_EQ(cs.rpc_violations, 0u);
  EXPECT_EQ(cs.holds, 1u);
  EXPECT_EQ(cs.holds_with_rpc, 1u);
  // 3 RPCs under one hold -> the "2-7 rpcs" bucket.
  EXPECT_EQ(cs.rpc_buckets[lock_order::RpcHoldBucketFor(3)].holds, 1u);
}

TEST_F(CsScopeTest, ScopeEntriesAreExemptFromSelfAndRankChecks) {
  // One thread legally holds many row locks of one class, under a held
  // ranked mutex, without tripping the deadlock checks.
  uint32_t cls = lock_order::RegisterClass(
      "t.cs.exempt.rowlock", 0, RpcHoldPolicy::kAllowedAcrossRpc,
      "logical row locks, many per thread");
  Mutex mu{"t.cs.exempt.mu", 6};
  lock_order::OnScopeEnter(cls);
  lock_order::OnScopeEnter(cls);
  {
    MutexLock lock(mu);
  }
  lock_order::OnScopeExit(cls);
  lock_order::OnScopeExit(cls);
  EXPECT_TRUE(violations_.empty());
  EXPECT_EQ(ScopeOf("t.cs.exempt.rowlock").holds, 2u);
  EXPECT_EQ(lock_order::HeldLocks().size(), 0u);
}

TEST_F(CsScopeTest, EnforcementOffCountsWithoutReporting) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  Mutex mu{"t.cs.noenforce.mu", 7};
  lock_order::SetRpcEnforcement(false);
  uint64_t before = lock_order::TotalRpcUnderLockViolations();
  {
    MutexLock lock(mu);
    (void)net.Call(a, b, [] { return Status::Ok(); });
  }
  EXPECT_TRUE(violations_.empty());
  EXPECT_EQ(ScopeOf("t.cs.noenforce.mu").rpc_violations, 1u);
  EXPECT_EQ(lock_order::TotalRpcUnderLockViolations(), before + 1);
}

TEST_F(CsScopeTest, HoldSpansBucketedByRpcCount) {
  Mutex mu{"t.cs.span.mu", 8};
  {
    MutexLock lock(mu);
  }
  auto cs = ScopeOf("t.cs.span.mu");
  EXPECT_EQ(cs.holds, 1u);
  EXPECT_EQ(cs.holds_with_rpc, 0u);
  EXPECT_EQ(cs.rpc_buckets[0].holds, 1u);
  EXPECT_GE(cs.max_hold_us, 0);
  EXPECT_GE(cs.total_hold_us, 0);
}

TEST_F(CsScopeTest, UnbalancedReleaseCountsAndWarnsOnce) {
  uint32_t cls = lock_order::RegisterClass("t.cs.unbal.mu", 0);
  uint64_t before = lock_order::TotalUnbalancedPops();
  lock_order::OnRelease(cls);  // nothing held: wrapper-bug diagnostic
  lock_order::OnRelease(cls);
  EXPECT_EQ(lock_order::TotalUnbalancedPops(), before + 2);
  EXPECT_EQ(ScopeOf("t.cs.unbal.mu").unbalanced_pops, 2u);
}

TEST_F(CsScopeTest, TimestampCacheRefillIssuesNoRpcUnderLock) {
  // Regression for the pruned-scope refactor: TimestampCache::Next drops
  // txn.tscache across the oracle refill RPC. Any held never-across-rpc
  // class at the refill would be recorded here.
  SimNet net;
  NodeId ts_node = net.AddNode("ts", 0);
  NodeId client = net.AddNode("client", 1);
  TimestampOracle oracle(ts_node);
  TimestampCache cache(&net, client, &oracle, 8);
  for (int i = 0; i < 100; i++) {
    (void)cache.Next();
  }
  EXPECT_GT(net.TotalCalls(), 0u);
  EXPECT_TRUE(violations_.empty());
}

// --- End-to-end: the acceptance claim -------------------------------------

CfsOptions SmallCfs() {
  CfsOptions options = CfsFullOptions();
  options.num_servers = 6;
  options.tafdb.num_shards = 2;
  options.tafdb.range_stripe_width = 4;
  options.tafdb.raft.election_timeout_min_ms = 50;
  options.tafdb.raft.election_timeout_max_ms = 100;
  options.tafdb.raft.heartbeat_interval_ms = 20;
  options.filestore.num_nodes = 2;
  options.filestore.raft = options.tafdb.raft;
  options.renamer.raft = options.tafdb.raft;
  return options;
}

BaselineOptions SmallBaseline() {
  BaselineOptions options;
  options.num_servers = 6;
  options.num_proxies = 2;
  options.tafdb.num_shards = 3;
  options.tafdb.raft.election_timeout_min_ms = 50;
  options.tafdb.raft.election_timeout_max_ms = 100;
  options.tafdb.raft.heartbeat_interval_ms = 20;
  options.filestore.num_nodes = 2;
  options.filestore.raft = options.tafdb.raft;
  return options;
}

// Full CFS with the *default abort handler* live: a single RPC issued under
// any never-across-rpc class would kill the test. The snapshot then pins
// the paper's claim — 0 RPCs-under-lock for every CFS lock class — while
// the renamer's deliberately-exempt directory locks do span RPCs.
TEST(CsScopeEndToEndTest, CfsIssuesNoRpcUnderAnyNeverClass) {
  lock_order::ResetScopeStats();
  Cfs fs(SmallCfs());
  ASSERT_TRUE(fs.Start().ok());
  {
    auto client = fs.NewClient();
    ASSERT_TRUE(client->Mkdir("/a", 0755).ok());
    ASSERT_TRUE(client->Mkdir("/b", 0755).ok());
    for (int i = 0; i < 20; i++) {
      ASSERT_TRUE(
          client->Create("/a/f" + std::to_string(i), 0644).ok());
    }
    ASSERT_TRUE(client->Mkdir("/a/sub", 0755).ok());
    // Directory move between parents: the renamer's normal path, which
    // holds coordinator dir locks (allowed-across-rpc) across the txn.
    ASSERT_TRUE(client->Rename("/a/sub", "/b/sub").ok());
    ASSERT_TRUE(client->Lookup("/b/sub").ok());
    ASSERT_TRUE(client->ReadDir("/a").ok());
  }
  fs.Stop();

  uint64_t allowed_rpcs = 0;
  for (const auto& cs : lock_order::ScopeSnapshot()) {
    if (cs.policy == RpcHoldPolicy::kNeverAcrossRpc) {
      EXPECT_EQ(cs.rpcs_under_lock, 0u)
          << "never-across-rpc class \"" << cs.name
          << "\" saw an RPC while held";
      EXPECT_EQ(cs.rpc_violations, 0u) << cs.name;
    } else {
      allowed_rpcs += cs.rpcs_under_lock;
      EXPECT_EQ(cs.rpc_violations, 0u) << cs.name;
    }
  }
  // The dir-rename coordinator really did hold its locks across RPCs.
  EXPECT_GT(ScopeOf("renamer.dirlock").rpcs_under_lock, 0u);
  EXPECT_GT(allowed_rpcs, 0u);
}

// CFS-base mkdir: row locks on the parent's shard, then two reads, one
// Stage per participant shard, the 2PC phases, and the unlock, all while
// the transaction's lockmgr.row scope is held. A same-shard mkdir commits
// locally instead: reads 2 + commit 1 + unlock 1. A cross-shard one pays
// reads 2 + stage 2 + prepare 2 + commit 2 + unlock 1 — the 2PC phases
// included, since FanOut charges every edge on the coordinator's thread.
// (The lock RPC itself is charged before the scope opens.)
TEST(CsScopeEndToEndTest, CfsBaseMkdirChargesTwoPcPhasesToRowScope) {
  CfsOptions options = SmallCfs();
  CfsOptions base = CfsBaseOptions();
  options.tiered_attrs = base.tiered_attrs;
  options.primitives = base.primitives;
  options.client_resolving = base.client_resolving;
  options.start_gc = false;
  Cfs fs(options);
  ASSERT_TRUE(fs.Start().ok());
  auto client = fs.NewClient();
  const size_t root_shard = fs.tafdb()->ShardIndexFor(kRootInode);
  int cross_shard = 0;
  for (int i = 0; i < 16 && cross_shard < 2; i++) {
    std::string path = "/d" + std::to_string(i);
    uint64_t before = ScopeOf("lockmgr.row").rpcs_under_lock;
    ASSERT_TRUE(client->Mkdir(path, 0755).ok());
    uint64_t charged = ScopeOf("lockmgr.row").rpcs_under_lock - before;
    auto info = client->Lookup(path);
    ASSERT_TRUE(info.ok());
    if (fs.tafdb()->ShardIndexFor(info->id) == root_shard) {
      EXPECT_EQ(charged, 4u) << path;
    } else {
      EXPECT_EQ(charged, 9u) << path;
      cross_shard++;
    }
  }
  EXPECT_EQ(cross_shard, 2);
  client.reset();
  fs.Stop();
}

// HopsFS baseline: lock-based transactions must show RPCs under the
// lockmgr.row scope class (counted, never fatal), and still no RPC under
// any never-across-rpc mutex class.
TEST(CsScopeEndToEndTest, HopsFsRowLocksSpanRpcsByDesign) {
  lock_order::ResetScopeStats();
  HopsFsCluster cluster("hopsfs", SmallBaseline());
  ASSERT_TRUE(cluster.Start().ok());
  {
    auto client = cluster.NewClient();
    ASSERT_TRUE(client->Mkdir("/d", 0755).ok());
    for (int i = 0; i < 20; i++) {
      ASSERT_TRUE(
          client->Create("/d/f" + std::to_string(i), 0644).ok());
    }
    ASSERT_TRUE(client->Lookup("/d/f0").ok());
  }
  cluster.Stop();

  auto rows = ScopeOf("lockmgr.row");
  EXPECT_EQ(rows.policy, RpcHoldPolicy::kAllowedAcrossRpc);
  EXPECT_GT(rows.rpcs_under_lock, 0u)
      << "HopsFS transactions should hold row locks across RPC round trips";
  EXPECT_GT(rows.holds_with_rpc, 0u);
  EXPECT_EQ(rows.rpc_violations, 0u);
  EXPECT_FALSE(rows.justification.empty());
  for (const auto& cs : lock_order::ScopeSnapshot()) {
    if (cs.policy == RpcHoldPolicy::kNeverAcrossRpc) {
      EXPECT_EQ(cs.rpcs_under_lock, 0u) << cs.name;
    }
  }
}

// --- Death tests: the default handler names the class and the edge -------

using CsScopeDeathTest = ::testing::Test;

TEST(CsScopeDeathTest, RpcUnderNeverLockAbortsNamingClassAndEdge) {
  SimNet net;
  NodeId client = net.AddNode("client", 0);
  NodeId shard = net.AddNode("shard", 1);
  Mutex mu{"t.cs.death.mu", 9};
  EXPECT_DEATH(
      {
        MutexLock lock(mu);
        (void)net.Call(client, shard, [] { return Status::Ok(); });
      },
      "rpc under lock.*client -> shard.*t\\.cs\\.death\\.mu");
}

TEST(CsScopeDeathTest, AllowedPolicyWithoutJustificationAborts) {
  EXPECT_DEATH(
      (void)lock_order::RegisterClass("t.cs.death.nojust", 0,
                                      RpcHoldPolicy::kAllowedAcrossRpc, ""),
      "without a justification");
}

TEST(CsScopeDeathTest, PolicyMismatchOnReregistrationAborts) {
  (void)lock_order::RegisterClass("t.cs.death.remix", 0);
  EXPECT_DEATH(
      (void)lock_order::RegisterClass("t.cs.death.remix", 0,
                                      RpcHoldPolicy::kAllowedAcrossRpc,
                                      "different policy"),
      "re-registered");
}

#endif  // CFS_LOCK_ORDER_TRACKING

}  // namespace
}  // namespace cfs
