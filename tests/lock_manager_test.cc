// Lock manager tests: modes, reentrancy, upgrades, FIFO/starvation control,
// timeouts (deadlock escape), ordered multi-key acquisition, wait tracking.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/common/simtime.h"
#include "src/txn/lock_manager.h"
#include "src/txn/timestamp_oracle.h"
#include "src/txn/two_phase_commit.h"

namespace cfs {
namespace {

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, "row", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Lock(2, "row", LockMode::kShared).ok());
  EXPECT_TRUE(lm.IsLocked("row"));
  lm.UnlockAll(1);
  lm.UnlockAll(2);
  EXPECT_FALSE(lm.IsLocked("row"));
}

TEST(LockManagerTest, ExclusiveExcludes) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, "row", LockMode::kExclusive).ok());
  EXPECT_EQ(lm.Lock(2, "row", LockMode::kShared, 20000).code(),
            ErrorCode::kTimeout);
  EXPECT_EQ(lm.Lock(2, "row", LockMode::kExclusive, 20000).code(),
            ErrorCode::kTimeout);
  lm.Unlock(1, "row");
  EXPECT_TRUE(lm.Lock(2, "row", LockMode::kExclusive).ok());
}

TEST(LockManagerTest, ReentrantSameTxn) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, "row", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(1, "row", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(1, "row", LockMode::kShared).ok());
  EXPECT_EQ(lm.HeldCount(1), 1u);
}

TEST(LockManagerTest, SoleSharedHolderUpgrades) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, "row", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Lock(1, "row", LockMode::kExclusive).ok());
  // Now exclusive: another shared must wait.
  EXPECT_EQ(lm.Lock(2, "row", LockMode::kShared, 20000).code(),
            ErrorCode::kTimeout);
}

TEST(LockManagerTest, UpgradeBlockedWhileOthersShare) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, "row", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Lock(2, "row", LockMode::kShared).ok());
  EXPECT_EQ(lm.Lock(1, "row", LockMode::kExclusive, 20000).code(),
            ErrorCode::kTimeout);
  lm.UnlockAll(2);
  EXPECT_TRUE(lm.Lock(1, "row", LockMode::kExclusive).ok());
}

TEST(LockManagerTest, WaiterIsWokenOnRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, "row", LockMode::kExclusive).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    ASSERT_TRUE(lm.Lock(2, "row", LockMode::kExclusive, 2000000).ok());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lm.Unlock(1, "row");
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockManagerTest, QueuedWriterBlocksNewReaders) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, "row", LockMode::kShared).ok());
  std::thread writer([&] {
    // Will queue behind txn 1's shared lock.
    ASSERT_TRUE(lm.Lock(2, "row", LockMode::kExclusive, 2000000).ok());
    lm.UnlockAll(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // A new reader must not overtake the queued writer.
  EXPECT_EQ(lm.Lock(3, "row", LockMode::kShared, 20000).code(),
            ErrorCode::kTimeout);
  lm.UnlockAll(1);
  writer.join();
  EXPECT_TRUE(lm.Lock(3, "row", LockMode::kShared).ok());
}

TEST(LockManagerTest, LockAllIsAtomicOnFailure) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(9, "b", LockMode::kExclusive).ok());
  Status st = lm.LockAll(1, {"a", "b", "c"}, LockMode::kExclusive, 20000);
  EXPECT_EQ(st.code(), ErrorCode::kTimeout);
  // Nothing must remain held by txn 1.
  EXPECT_EQ(lm.HeldCount(1), 0u);
  EXPECT_FALSE(lm.IsLocked("a"));
  lm.UnlockAll(9);
  EXPECT_TRUE(lm.LockAll(1, {"a", "b", "c"}, LockMode::kExclusive).ok());
  EXPECT_EQ(lm.HeldCount(1), 3u);
}

TEST(LockManagerTest, LockAllOrderingPreventsDeadlock) {
  LockManager lm;
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  // Two txns locking the same keys in opposite declared order: ordered
  // acquisition must prevent deadlock.
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&lm, &done, t] {
      for (int i = 0; i < 50; i++) {
        TxnId txn = 100 + static_cast<TxnId>(t);
        std::vector<std::string> keys =
            t == 0 ? std::vector<std::string>{"x", "y"}
                   : std::vector<std::string>{"y", "x"};
        ASSERT_TRUE(lm.LockAll(txn, keys, LockMode::kExclusive, 5000000).ok());
        lm.UnlockAll(txn);
      }
      done++;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(done.load(), 2);
}

TEST(LockManagerTest, ThreadWaitAccounting) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, "row", LockMode::kExclusive).ok());
  std::thread waiter([&] {
    LockManager::ResetThreadWait();
    ASSERT_TRUE(lm.Lock(2, "row", LockMode::kExclusive, 2000000).ok());
    EXPECT_GE(LockManager::ThreadWaitMicros(), 10000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  lm.Unlock(1, "row");
  waiter.join();
  auto stats = lm.stats();
  EXPECT_GE(stats.acquisitions, 2u);
  EXPECT_GE(stats.contended_acquisitions, 1u);
  EXPECT_GT(stats.total_wait_us, 0);
}

TEST(TimestampOracleTest, MonotonicAndBatched) {
  TimestampOracle oracle;
  uint64_t a = oracle.Next();
  uint64_t b = oracle.Next();
  EXPECT_GT(b, a);
  uint64_t first = oracle.NextBatch(100);
  EXPECT_GT(first, b);
  EXPECT_EQ(oracle.Next(), first + 100);
  oracle.AdvanceTo(100000);
  EXPECT_GT(oracle.Next(), 100000u);
}

TEST(TimestampCacheTest, HandsOutDistinctTimestamps) {
  SimNet net;
  NodeId ts_node = net.AddNode("ts", 0);
  NodeId client = net.AddNode("client", 1);
  TimestampOracle oracle(ts_node);
  TimestampCache cache(&net, client, &oracle, 16);
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(seen.insert(cache.Next()).second);
  }
  // 100 timestamps from batches of 16 -> ceil(100/16)=7 oracle RPCs.
  EXPECT_EQ(net.TotalCalls(), 7u);
}

// --- 2PC over toy participants ---

class ToyParticipant : public TxnParticipant {
 public:
  ToyParticipant(NodeId net_id, bool vote_yes)
      : net_id_(net_id), vote_yes_(vote_yes) {}

  Status Prepare(TxnId) override {
    prepares++;
    if (prepare_log != nullptr) prepare_log->push_back(net_id_);
    return vote_yes_ ? Status::Ok() : Status::Aborted("vote no");
  }
  Status Commit(TxnId) override {
    commits++;
    return Status::Ok();
  }
  Status Abort(TxnId) override {
    aborts++;
    return Status::Ok();
  }
  NodeId ParticipantNetId() const override { return net_id_; }

  int prepares = 0, commits = 0, aborts = 0;
  std::vector<NodeId>* prepare_log = nullptr;  // appended to by Prepare

 private:
  NodeId net_id_;
  bool vote_yes_;
};

TEST(TwoPhaseCommitTest, AllYesCommits) {
  SimNet net;
  NodeId coord = net.AddNode("coord", 0);
  ToyParticipant p1(net.AddNode("p1", 1), true);
  ToyParticipant p2(net.AddNode("p2", 2), true);
  TwoPhaseCommit tpc(&net);
  EXPECT_TRUE(tpc.Run(coord, {&p1, &p2}, 7).ok());
  EXPECT_EQ(p1.commits, 1);
  EXPECT_EQ(p2.commits, 1);
  EXPECT_EQ(tpc.stats().committed, 1u);
  // 2 prepares + 2 commits = 4 RPCs.
  EXPECT_EQ(net.TotalCalls(), 4u);
}

TEST(TwoPhaseCommitTest, AnyNoAbortsEverywhere) {
  SimNet net;
  NodeId coord = net.AddNode("coord", 0);
  ToyParticipant p1(net.AddNode("p1", 1), true);
  ToyParticipant p2(net.AddNode("p2", 2), false);
  TwoPhaseCommit tpc(&net);
  Status st = tpc.Run(coord, {&p1, &p2}, 8);
  EXPECT_EQ(st.code(), ErrorCode::kAborted);
  EXPECT_EQ(p1.commits, 0);
  EXPECT_EQ(p2.commits, 0);
  EXPECT_EQ(p1.aborts, 1);
  EXPECT_EQ(p2.aborts, 1);
  EXPECT_EQ(tpc.stats().aborted, 1u);
}

TEST(TwoPhaseCommitTest, UnreachableParticipantAborts) {
  SimNet net;
  NodeId coord = net.AddNode("coord", 0);
  ToyParticipant p1(net.AddNode("p1", 1), true);
  ToyParticipant p2(net.AddNode("p2", 2), true);
  net.SetNodeDown(p2.ParticipantNetId(), true);
  TwoPhaseCommit tpc(&net);
  Status st = tpc.Run(coord, {&p1, &p2}, 9);
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(p1.commits, 0);
}

TEST(TwoPhaseCommitTest, DeduplicatesParticipants) {
  SimNet net;
  NodeId coord = net.AddNode("coord", 0);
  ToyParticipant p1(net.AddNode("p1", 1), true);
  TwoPhaseCommit tpc(&net);
  EXPECT_TRUE(tpc.Run(coord, {&p1, &p1, &p1}, 10).ok());
  EXPECT_EQ(p1.prepares, 1);
  EXPECT_EQ(p1.commits, 1);
}

TEST(TwoPhaseCommitTest, SimFanOutRunsInNetIdOrderNotAddressOrder) {
  // The sim-serial fan-out draws jitter per call in participant order; the
  // order must come from the net ids, not from the heap layout.
  SimNet net;
  NodeId coord = net.AddNode("coord", 0);
  NodeId low_id = net.AddNode("p_low", 1);
  NodeId high_id = net.AddNode("p_high", 2);
  ToyParticipant pair[2] = {ToyParticipant(high_id, true),
                            ToyParticipant(low_id, true)};
  ASSERT_LT(&pair[0], &pair[1]);  // lower address, higher net id
  std::vector<NodeId> log;
  pair[0].prepare_log = &log;
  pair[1].prepare_log = &log;
  TwoPhaseCommit tpc(&net);
  simtime::Scheduler sched(1);
  Status st = Status::Internal("not run");
  sched.At(0, [&] { st = tpc.Run(coord, {&pair[0], &pair[1]}, 11); });
  sched.RunUntil(1000000);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(log, (std::vector<NodeId>{low_id, high_id}));
}

}  // namespace
}  // namespace cfs
