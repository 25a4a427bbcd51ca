// Raft tests: election, replication, group commit, fault tolerance,
// restart recovery, and linearizable apply order.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "src/raft/raft.h"

namespace cfs {
namespace {

// State machine that records applied commands.
class RecordingSm : public StateMachine {
 public:
  std::string Apply(LogIndex index, std::string_view command) override {
    std::lock_guard<std::mutex> lock(mu_);
    applied_.emplace_back(index, std::string(command));
    return "applied:" + std::string(command);
  }

  std::vector<std::pair<LogIndex, std::string>> applied() const {
    std::lock_guard<std::mutex> lock(mu_);
    return applied_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<LogIndex, std::string>> applied_;
};

RaftOptions FastRaft() {
  RaftOptions options;
  options.election_timeout_min_ms = 50;
  options.election_timeout_max_ms = 100;
  options.heartbeat_interval_ms = 20;
  return options;
}

struct Cluster {
  SimNet net;
  std::unique_ptr<RaftGroup> group;
  std::vector<RecordingSm*> sms;

  explicit Cluster(size_t n = 3) {
    std::vector<uint32_t> servers;
    for (size_t i = 0; i < n; i++) servers.push_back(static_cast<uint32_t>(i));
    group = std::make_unique<RaftGroup>(
        &net, "test", servers,
        [this](ReplicaId) {
          auto sm = std::make_unique<RecordingSm>();
          sms.push_back(sm.get());
          return sm;
        },
        FastRaft());
  }
};

TEST(RaftTest, ElectsExactlyOneLeader) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  auto leader = c.group->WaitForLeader();
  ASSERT_TRUE(leader.ok());
  int leaders = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i)->IsLeader()) leaders++;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(RaftTest, ProposeCommitsAndReturnsApplyResult) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  auto result = c.group->Propose("hello");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, "applied:hello");
}

TEST(RaftTest, AllReplicasApplyInSameOrder) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(c.group->Propose("cmd" + std::to_string(i)).ok());
  }
  // Followers apply on subsequent AppendEntries; give heartbeats a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto reference = c.sms[0]->applied();
  // Only compare the command payloads (no-op barrier entries are skipped by
  // Apply already since they are empty).
  ASSERT_GE(reference.size(), 20u);
  for (size_t r = 1; r < c.sms.size(); r++) {
    EXPECT_EQ(c.sms[r]->applied(), reference) << "replica " << r;
  }
}

TEST(RaftTest, GroupCommitBatchesConcurrentProposals) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  RaftNode* leader = c.group->Leader();
  ASSERT_NE(leader, nullptr);

  constexpr int kProposals = 200;
  std::vector<std::future<StatusOr<std::string>>> futures;
  futures.reserve(kProposals);
  for (int i = 0; i < kProposals; i++) {
    futures.push_back(leader->Propose("p" + std::to_string(i)));
  }
  for (auto& f : futures) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status();
  }
  // All proposals committed; batching means far fewer synced wal appends
  // than proposals is *possible*, but at minimum everything applied once.
  auto applied = c.sms[leader->id()]->applied();
  int count = 0;
  for (const auto& [idx, cmd] : applied) {
    if (cmd.rfind("p", 0) == 0) count++;
  }
  EXPECT_EQ(count, kProposals);
}

TEST(RaftTest, FollowerFailureDoesNotBlockCommit) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  RaftNode* leader = c.group->Leader();
  // Crash one follower.
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) != leader) {
      c.group->CrashReplica(i);
      break;
    }
  }
  auto result = c.group->Propose("still-works");
  ASSERT_TRUE(result.ok()) << result.status();
}

// The leader counts toward a majority only once its own WAL append has
// returned. With one follower down, every commit needs the leader's vote,
// so no entry may commit (or apply) sooner than the leader's fsync delay
// after it was proposed — even when the down follower's replicator is the
// one appending it while the live follower's replicator ships it.
//
// Each round proposes a pair: the live follower's replicator takes the
// first and sits in its fsync when the second arrives, so the down
// follower's replicator (retrying every millisecond) appends the second.
// Nothing else is proposed until both commit, so the live replicator then
// ships the second while that append is still in flight.
TEST(RaftTest, LeaderCountsTowardCommitOnlyAfterItsWalAppend) {
  constexpr int64_t kFsyncUs = 40000;
  SimNet net;  // zero latency: the fsync dominates every round trip
  RecordingSm sms[3];
  std::vector<std::unique_ptr<RaftNode>> nodes;
  for (uint32_t i = 0; i < 3; i++) {
    RaftOptions options = FastRaft();
    if (i == 0) options.wal.fsync_delay_us = kFsyncUs;
    nodes.push_back(std::make_unique<RaftNode>(
        i, net.AddNode("durable-r" + std::to_string(i), i), &net, &sms[i],
        options));
  }
  for (uint32_t i = 0; i < 3; i++) {
    std::vector<RaftPeer> peers;
    for (uint32_t j = 0; j < 3; j++) {
      if (j != i) peers.push_back({j, nodes[j]->net_id(), nodes[j].get()});
    }
    nodes[i]->SetPeers(std::move(peers));
  }
  net.SetNodeDown(nodes[2]->net_id(), true);
  ASSERT_TRUE(nodes[0]->Start().ok());
  ASSERT_TRUE(nodes[1]->Start().ok());
  // No ticker drives these nodes, so node 0 is the only candidate.
  nodes[0]->StartElection();
  ASSERT_TRUE(nodes[0]->IsLeader());

  using Clock = std::chrono::steady_clock;
  for (int round = 0; round < 4; round++) {
    Clock::time_point proposed[2];
    std::future<StatusOr<std::string>> futures[2];
    for (int i = 0; i < 2; i++) {
      if (i > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(kFsyncUs / 4));
      }
      proposed[i] = Clock::now();
      futures[i] = nodes[0]->Propose("p" + std::to_string(round * 2 + i));
    }
    for (int i = 0; i < 2; i++) {
      ASSERT_TRUE(futures[i].get().ok());
      auto latency = std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - proposed[i]);
      EXPECT_GE(latency.count(), kFsyncUs) << "round " << round << " #" << i;
    }
  }
}

// A proposal that arrives while a replication round is in flight carries
// its own AppendEntries on the other peer's lane instead of queueing behind
// that round, so it commits in about one round trip rather than two.
TEST(RaftTest, ProposalDuringInFlightRoundCommitsInOneRoundTrip) {
  constexpr int64_t kRttUs = 50000;
  NetOptions net_options;
  net_options.mode = LatencyMode::kSleep;
  net_options.cross_node_rtt_us = kRttUs;
  net_options.jitter_pct = 0;
  SimNet net(net_options);
  RaftOptions options;
  options.election_timeout_min_ms = 1000;
  options.election_timeout_max_ms = 2000;
  options.heartbeat_interval_ms = 200;
  RaftGroup group(
      &net, "pipe", {0, 1, 2},
      [](ReplicaId) { return std::make_unique<RecordingSm>(); }, options);
  ASSERT_TRUE(group.Start().ok());
  ASSERT_TRUE(group.WaitForLeader(10000).ok());
  ASSERT_TRUE(group.Propose("warm", 10000).ok());

  std::thread first([&group] {
    EXPECT_TRUE(group.Propose("first", 10000).ok());
  });
  std::this_thread::sleep_for(std::chrono::microseconds(kRttUs / 5));
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(group.Propose("second", 10000).ok());
  auto took = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  first.join();
  EXPECT_LT(took.count(), kRttUs * 3 / 2);
}

// A fresh group elects replica 0 inside Start, long before any election
// timeout. A group recovered from its WAL elects on timeouts as before: no
// replica campaigns before its timeout.
TEST(RaftTest, FreshGroupHasLeaderWhenStartReturns) {
  RaftOptions options;
  options.election_timeout_min_ms = 400;
  options.election_timeout_max_ms = 800;
  options.heartbeat_interval_ms = 50;
  SimNet net;
  RaftGroup group(
      &net, "boot", {0, 1, 2},
      [](ReplicaId) { return std::make_unique<RecordingSm>(); }, options);
  ASSERT_TRUE(group.Start().ok());
  RaftNode* leader = group.Leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->id(), 0u);
  ASSERT_TRUE(group.Propose("before-restart").ok());
  Term term = leader->CurrentTerm();

  group.Stop();
  auto restarted = std::chrono::steady_clock::now();
  ASSERT_TRUE(group.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(group.Leader(), nullptr);
  for (size_t i = 0; i < group.size(); i++) {
    EXPECT_EQ(group.replica(i)->CurrentTerm(), term) << "replica " << i;
  }
  ASSERT_TRUE(group.WaitForLeader(5000).ok());
  EXPECT_GE(std::chrono::steady_clock::now() - restarted,
            std::chrono::milliseconds(options.election_timeout_min_ms));
}

TEST(RaftTest, LeaderFailoverElectsNewLeaderAndServes) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  ASSERT_TRUE(c.group->Propose("before-failover").ok());

  RaftNode* old_leader = c.group->Leader();
  size_t old_index = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) == old_leader) old_index = i;
  }
  c.group->CrashReplica(old_index);

  auto new_leader = c.group->WaitForLeader(5000);
  ASSERT_TRUE(new_leader.ok());
  EXPECT_NE(*new_leader, old_leader->id());
  auto result = c.group->Propose("after-failover", 10000);
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(RaftTest, RestartedReplicaCatchesUp) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(c.group->Propose("pre" + std::to_string(i)).ok());
  }
  // Crash a follower, keep committing, restart it.
  RaftNode* leader = c.group->Leader();
  size_t victim = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) != leader) victim = i;
  }
  c.group->CrashReplica(victim);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(c.group->Propose("mid" + std::to_string(i), 10000).ok());
  }
  ASSERT_TRUE(c.group->RestartReplica(victim).ok());
  ASSERT_TRUE(c.group->Propose("post", 10000).ok());
  // Give replication a moment to fill the gap.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto applied = c.sms.back()->applied();  // restarted sm appended last
  int post_seen = 0;
  for (const auto& [idx, cmd] : applied) {
    if (cmd == "post") post_seen++;
  }
  EXPECT_EQ(post_seen, 1);
  // The restarted machine must have re-applied the full history.
  int total = 0;
  for (const auto& [idx, cmd] : applied) {
    if (cmd.rfind("pre", 0) == 0 || cmd.rfind("mid", 0) == 0) total++;
  }
  EXPECT_EQ(total, 10);
}

TEST(RaftTest, PartitionedLeaderStepsDown) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  RaftNode* leader = c.group->Leader();

  // Partition the leader from both followers.
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) != leader) {
      c.net.SetPartitioned(leader->net_id(), c.group->replica(i)->net_id(),
                           true);
    }
  }
  // Majority side elects a new leader.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  RaftNode* new_leader = nullptr;
  while (std::chrono::steady_clock::now() < deadline) {
    for (size_t i = 0; i < c.group->size(); i++) {
      RaftNode* n = c.group->replica(i);
      if (n != leader && n->IsLeader()) new_leader = n;
    }
    if (new_leader != nullptr) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(new_leader, nullptr);
  EXPECT_GT(new_leader->CurrentTerm(), leader->CurrentTerm() - 1);

  // Old leader cannot commit.
  auto fut = leader->Propose("lost");
  // Heal; the old leader must step down and the proposal must not be lost
  // silently as success.
  c.net.HealAll();
  auto result = fut.wait_for(std::chrono::seconds(5));
  ASSERT_EQ(result, std::future_status::ready);
  EXPECT_FALSE(fut.get().ok());
}

TEST(RaftTest, ReadBarrierOnlyOnLeader) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  RaftNode* leader = c.group->Leader();
  EXPECT_TRUE(leader->ReadBarrier().ok());
  for (size_t i = 0; i < c.group->size(); i++) {
    RaftNode* n = c.group->replica(i);
    if (n != leader) {
      EXPECT_EQ(n->ReadBarrier().code(), ErrorCode::kNotLeader);
    }
  }
}

TEST(RaftTest, ReadBarrierAfterFailoverWaitsForCatchUp) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(c.group->Propose("h" + std::to_string(i)).ok());
  }
  // Kill the leader; once the new leader's read barrier passes, its state
  // machine must hold the full committed history.
  RaftNode* old_leader = c.group->Leader();
  size_t old_index = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) == old_leader) old_index = i;
  }
  c.group->CrashReplica(old_index);
  ASSERT_TRUE(c.group->WaitForLeader(5000).ok());
  RaftNode* new_leader = c.group->Leader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_TRUE(new_leader->ReadBarrier(5000).ok());
  auto applied = c.sms[new_leader->id()]->applied();
  int history = 0;
  for (const auto& [idx, cmd] : applied) {
    if (cmd.rfind("h", 0) == 0) history++;
  }
  EXPECT_EQ(history, 10);
}

TEST(RaftTest, ReadCommittedSinceExposesCdcFeed) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  ASSERT_TRUE(c.group->Propose("cdc-1").ok());
  ASSERT_TRUE(c.group->Propose("cdc-2").ok());
  RaftNode* leader = c.group->Leader();
  auto feed = leader->ReadCommittedSince(0, 100);
  std::vector<std::string> commands;
  for (auto& [idx, cmd] : feed) commands.push_back(cmd);
  EXPECT_EQ(commands,
            (std::vector<std::string>{"cdc-1", "cdc-2"}));
}

// State machine with snapshot support: an ordered map of key=value
// commands ("set k v").
class SnapshotSm : public StateMachine {
 public:
  std::string Apply(LogIndex, std::string_view command) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto sep = command.find('=');
    if (sep != std::string_view::npos) {
      state_[std::string(command.substr(0, sep))] =
          std::string(command.substr(sep + 1));
    }
    return "ok";
  }
  std::string Snapshot() override {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto& [k, v] : state_) {
      out += k + "=" + v + "\n";
    }
    return out.empty() ? std::string("\n") : out;
  }
  Status Restore(std::string_view image) override {
    std::lock_guard<std::mutex> lock(mu_);
    state_.clear();
    size_t pos = 0;
    while (pos < image.size()) {
      size_t nl = image.find('\n', pos);
      if (nl == std::string_view::npos) break;
      std::string_view line = image.substr(pos, nl - pos);
      pos = nl + 1;
      auto sep = line.find('=');
      if (sep == std::string_view::npos) continue;
      state_[std::string(line.substr(0, sep))] =
          std::string(line.substr(sep + 1));
    }
    return Status::Ok();
  }
  std::map<std::string, std::string> state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> state_;
};

struct SnapshotCluster {
  SimNet net;
  std::unique_ptr<RaftGroup> group;
  std::vector<SnapshotSm*> sms;

  explicit SnapshotCluster(size_t threshold) {
    RaftOptions options = FastRaft();
    options.snapshot_threshold = threshold;
    group = std::make_unique<RaftGroup>(
        &net, "snap", std::vector<uint32_t>{0, 1, 2},
        [this](ReplicaId) {
          auto sm = std::make_unique<SnapshotSm>();
          sms.push_back(sm.get());
          return sm;
        },
        options);
  }
};

TEST(RaftSnapshotTest, LogCompactsPastThreshold) {
  SnapshotCluster c(/*threshold=*/25);
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(
        c.group->Propose("k" + std::to_string(i % 10) + "=v" +
                         std::to_string(i))
            .ok());
  }
  RaftNode* leader = c.group->Leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_GT(leader->SnapshotIndex(), 0u);
  // Data intact after compaction.
  auto state = c.sms[leader->id()]->state();
  EXPECT_EQ(state.size(), 10u);
  EXPECT_EQ(state["k9"], "v99");
}

TEST(RaftSnapshotTest, RestartRecoversFromSnapshotPlusSuffix) {
  SnapshotCluster c(/*threshold=*/20);
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(c.group->Propose("key=" + std::to_string(i)).ok());
  }
  // Restart a follower; it must recover via its persisted snapshot + the
  // WAL suffix and converge to the same state.
  RaftNode* leader = c.group->Leader();
  size_t victim = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) != leader) victim = i;
  }
  c.group->CrashReplica(victim);
  ASSERT_TRUE(c.group->RestartReplica(victim).ok());
  ASSERT_TRUE(c.group->Propose("key=final", 10000).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto state = c.sms.back()->state();  // rebuilt machine
  EXPECT_EQ(state["key"], "final");
}

TEST(RaftSnapshotTest, LaggingFollowerReceivesInstallSnapshot) {
  SnapshotCluster c(/*threshold=*/15);
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  // Crash a follower, commit far past the compaction threshold so the
  // follower's entries are gone from every live log.
  RaftNode* leader = c.group->Leader();
  size_t victim = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) != leader) victim = i;
  }
  c.group->CrashReplica(victim);
  for (int i = 0; i < 80; i++) {
    ASSERT_TRUE(
        c.group->Propose("x" + std::to_string(i % 5) + "=" +
                             std::to_string(i),
                         10000)
            .ok());
  }
  ASSERT_GT(c.group->Leader()->SnapshotIndex(), 0u);
  ASSERT_TRUE(c.group->RestartReplica(victim).ok());
  // The leader ships a snapshot; the follower converges.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  bool converged = false;
  while (std::chrono::steady_clock::now() < deadline && !converged) {
    auto state = c.sms.back()->state();
    converged = state.size() == 5 && state["x4"] == "79";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(converged);
}

// A follower that lags by fewer entries than the compaction threshold
// catches up from a new leader by AppendEntries alone: the leader's
// conflict back-off is in log indices, so it never drops below the
// compacted prefix and ships a snapshot the follower does not need.
//
// Only the next leader compacts: the old leader never ships a snapshot, and
// the lagging replica never takes one itself, so any snapshot index it ends
// with came from the new leader's InstallSnapshot. No ticker runs:
// elections happen only where the test starts them.
TEST(RaftSnapshotTest, NewLeaderCatchesUpShortLagWithoutSnapshot) {
  SimNet net;
  SnapshotSm sms[3];
  std::vector<std::unique_ptr<RaftNode>> nodes;
  for (uint32_t i = 0; i < 3; i++) {
    RaftOptions options = FastRaft();
    if (i == 1) options.snapshot_threshold = 15;
    nodes.push_back(std::make_unique<RaftNode>(
        i, net.AddNode("lag-r" + std::to_string(i), i), &net, &sms[i],
        options));
  }
  for (uint32_t i = 0; i < 3; i++) {
    std::vector<RaftPeer> peers;
    for (uint32_t j = 0; j < 3; j++) {
      if (j != i) peers.push_back({j, nodes[j]->net_id(), nodes[j].get()});
    }
    nodes[i]->SetPeers(std::move(peers));
    ASSERT_TRUE(nodes[i]->Start().ok());
  }
  RaftNode* old_leader = nodes[0].get();
  RaftNode* new_leader = nodes[1].get();
  RaftNode* lagger = nodes[2].get();
  old_leader->StartElection();
  ASSERT_TRUE(old_leader->IsLeader());
  auto propose = [](RaftNode* leader, int i) {
    return leader->Propose("k" + std::to_string(i % 5) + "=" +
                           std::to_string(i))
        .get()
        .ok();
  };
  // Indices 2..35 (1 is the no-op): replica 1 snapshots near 15 and 30,
  // and stays below its next snapshot to the end.
  for (int i = 0; i < 34; i++) ASSERT_TRUE(propose(old_leader, i));
  // Heartbeats carry the commit index to both followers.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         (new_leader->CommitIndex() < old_leader->LastLogIndex() ||
          lagger->CommitIndex() < old_leader->LastLogIndex())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(lagger->CommitIndex(), old_leader->LastLogIndex());

  // The lagger misses three entries; then replica 1 takes over.
  net.SetNodeDown(lagger->net_id(), true);
  for (int i = 34; i < 37; i++) ASSERT_TRUE(propose(old_leader, i));
  new_leader->StartElection();
  ASSERT_TRUE(new_leader->IsLeader());
  ASSERT_GT(new_leader->SnapshotIndex(), 0u);
  ASSERT_LE(new_leader->SnapshotIndex(), lagger->LastLogIndex());
  net.SetNodeDown(lagger->net_id(), false);

  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool converged = false;
  while (std::chrono::steady_clock::now() < deadline && !converged) {
    converged = sms[2].state() == sms[1].state() &&
                sms[2].state().at("k1") == "36";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(converged);
  EXPECT_EQ(lagger->SnapshotIndex(), 0u);
  for (auto& node : nodes) node->Stop();
}

TEST(RaftTest, ConcurrentProposersAllSucceed) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&c, &ok_count, t] {
      for (int i = 0; i < 25; i++) {
        auto result =
            c.group->Propose("t" + std::to_string(t) + "-" + std::to_string(i));
        if (result.ok()) ok_count++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), 200);
}

}  // namespace
}  // namespace cfs
