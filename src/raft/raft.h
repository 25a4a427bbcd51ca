// Raft consensus (Ongaro & Ousterhout) — the replication substrate beneath
// every TafDB shard, FileStore node, and the Renamer group (paper §3.2:
// "we replicate BEs' states in groups, managed and coordinated via the Raft
// consensus protocol").
//
// Implemented features:
//   - randomized-timeout leader election with term/vote persistence,
//   - log replication with the AppendEntries consistency check and
//     conflict-truncation,
//   - GROUP COMMIT through carried lanes and replicators. Each peer has
//     one carry lane and one replicator thread. A proposal takes a free
//     lane (the most caught-up peer's) and carries that peer's
//     AppendEntries itself, on the proposing thread, so it does not wait
//     for a round already in flight. The request carries every
//     unacknowledged entry, its own included, so proposals that queue
//     behind a busy lane ride it or the replicators' next batch and share
//     one WAL fsync. The carried send does not wait for the leader's own
//     WAL append: the replicators the proposal woke write it meanwhile,
//     and the leader counts toward a majority only once it is durable
//     (Raft thesis §10.2.1). One lane per peer is a fixed bound: more
//     carried calls per peer only convoy on the follower's raft.node.
//     This batching is what lets a single CFS metadata shard absorb highly
//     contended single-record updates (paper §4.2) — a property the
//     contention benchmarks (Fig 11, Fig 12) depend on.
//   - crash recovery by WAL replay (vote records, entries, truncate marks),
//   - read barrier for leaders (commit-index wait) for linearizable reads.
//
// Not implemented (documented simplifications): membership change,
// snapshot/log-compaction transfer, pre-vote, leader leases. None of these
// affect the evaluated metadata path.
//
// Threading model: a RaftGroup runs one ticker thread (election timeouts)
// shared by its replicas; each leader runs one replicator thread per peer,
// and proposing threads carry AppendEntries on the lanes. A fresh group
// (every replica recovered an empty WAL) has replica 0 campaign in Start,
// so it serves at once; a recovered group elects on timeouts. Peer RPCs
// travel through SimNet and therefore pay simulated network latency and
// observe partitions. A carried call goes through SimNet::CallDetached:
// SimNet counts it, the proposing thread's accounts do not, exactly as if
// a replicator had sent it.
//
// Inline replication (RaftOptions::inline_replication): for virtual-time
// simulation there are no background threads at all — no ticker, no
// replicators, no heartbeats. The group bootstraps replica 0 as leader at
// Start, and every proposal replicates synchronously on the proposing
// thread (ReplicateRoundInline), so the whole commit path is causally
// ordered on one thread and its injected latencies land on the driving
// simtime::Scheduler's virtual clock. Elections and fault tolerance are
// out of scope in this mode (DESIGN.md §11).

#ifndef CFS_RAFT_RAFT_H_
#define CFS_RAFT_RAFT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/net/simnet.h"
#include "src/wal/wal.h"

namespace cfs {

using Term = uint64_t;
using LogIndex = uint64_t;
using ReplicaId = uint32_t;

// Replicated state machine interface. Apply is invoked exactly once per
// committed entry, in log order, under the raft node's serialization; the
// returned payload is delivered to the proposer's future (leader only).
//
// Machines that opt into log compaction implement Snapshot/Restore:
// Snapshot serializes the full applied state, Restore replaces the state
// with a serialized image. The default (empty snapshot) disables
// compaction for the node.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  virtual std::string Apply(LogIndex index, std::string_view command) = 0;
  virtual std::string Snapshot() { return ""; }
  virtual Status Restore(std::string_view) {
    return Status::Unimplemented("state machine has no snapshot support");
  }
};

enum class RaftRole { kFollower, kCandidate, kLeader };

struct RaftOptions {
  int64_t election_timeout_min_ms = 150;
  int64_t election_timeout_max_ms = 300;
  int64_t heartbeat_interval_ms = 50;
  size_t max_batch_entries = 512;
  // Log compaction: once more than this many applied entries accumulate,
  // the node snapshots its state machine and truncates the log prefix.
  // SIZE_MAX disables compaction (the default; the GC's change-capture
  // feed reads the in-memory log, so deployments that compact must size
  // their GC scan interval below the compaction window).
  size_t snapshot_threshold = SIZE_MAX;
  // Replicate synchronously on the proposing thread, with no ticker /
  // replicator / heartbeat threads (virtual-time simulation; see the
  // header comment). Replica 0 is bootstrapped as the permanent leader.
  bool inline_replication = false;
  WalOptions wal;
};

struct LogEntry {
  Term term = 0;
  std::string command;
};

struct VoteRequest {
  Term term = 0;
  ReplicaId candidate = 0;
  LogIndex last_log_index = 0;
  Term last_log_term = 0;
};

struct VoteReply {
  Term term = 0;
  bool granted = false;
};

struct AppendRequest {
  Term term = 0;
  ReplicaId leader = 0;
  LogIndex prev_log_index = 0;
  Term prev_log_term = 0;
  std::vector<LogEntry> entries;
  LogIndex leader_commit = 0;
};

struct AppendReply {
  Term term = 0;
  bool success = false;
  LogIndex match_index = 0;   // on success
  LogIndex conflict_hint = 0; // on failure: next index to try
  // Set when the follower's log starts after prev_log_index (compacted):
  // the leader must ship a snapshot.
  bool needs_snapshot = false;
};

struct SnapshotRequest {
  Term term = 0;
  ReplicaId leader = 0;
  LogIndex last_included_index = 0;
  Term last_included_term = 0;
  std::string state;  // serialized state machine image
};

struct SnapshotReply {
  Term term = 0;
  bool success = false;
};

class RaftNode;

struct RaftPeer {
  ReplicaId id = 0;
  NodeId net = kInvalidNode;
  RaftNode* node = nullptr;  // direct handler object; calls go via SimNet
};

class RaftNode {
 public:
  RaftNode(ReplicaId id, NodeId net_id, SimNet* net, StateMachine* sm,
           RaftOptions options, const Clock* clock = RealClock::Get());
  ~RaftNode();

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  // Peers must be set before Start (self excluded).
  void SetPeers(std::vector<RaftPeer> peers);

  // Swaps the state machine (used on restart: the machine is rebuilt empty
  // and the recovered log is re-applied as commit advances).
  void SetStateMachine(StateMachine* sm);

  // Recovers persistent state from the WAL and begins participating.
  Status Start();
  void Stop();
  // Stop + Start, replaying the WAL (crash/restart in tests).
  Status Restart();

  // Proposes a command. The future resolves with the Apply() payload once
  // the entry commits, or with kNotLeader/kAborted on leadership change.
  // Outside inline mode the call first carries one AppendEntries round on a
  // free lane (see the header comment), so the future is usually ready when
  // it returns.
  std::future<StatusOr<std::string>> Propose(std::string command);

  // Inline-replication proposal (options_.inline_replication): appends the
  // entry and drives replication rounds on the calling thread until the
  // entry commits and applies (or no quorum is reachable). Safe under
  // concurrent callers — a thread's entry may be committed by another
  // thread's round.
  StatusOr<std::string> ProposeInline(std::string command);

  // One synchronous replication round: sends AppendEntries to every peer
  // as one SimNet::FanOut round, then advances match/commit/apply from the
  // replies. Leader only; no-op otherwise.
  void ReplicateRoundInline();

  // Immediately starts (and, with all peers up, wins) an election. Called
  // by the ticker on timeouts and by RaftGroup::Start to bootstrap a fresh
  // group; public for partition tests.
  void StartElection();

  // Leader read barrier: waits until this leader has applied its
  // term-start no-op (which implies every entry committed by previous
  // terms is applied locally) — the standard raft rule for serving
  // linearizable reads after an election. Fails with kNotLeader on
  // non-leaders, kTimeout if the no-op cannot commit in time.
  Status ReadBarrier(int64_t timeout_ms = 2000);

  // Returns committed log commands with index in (from, commit], capped at
  // `max` — the change-data-capture feed the garbage collector tails
  // (paper §4.4: "the collector watches the write ahead logs").
  std::vector<std::pair<LogIndex, std::string>> ReadCommittedSince(
      LogIndex from, size_t max) const;

  // RPC handlers (invoked by peers through SimNet).
  VoteReply HandleRequestVote(const VoteRequest& req);
  AppendReply HandleAppendEntries(const AppendRequest& req);
  SnapshotReply HandleInstallSnapshot(const SnapshotRequest& req);

  // Test/introspection: first index still present in the in-memory log.
  LogIndex SnapshotIndex() const;

  // Called periodically by the group ticker.
  void Tick();

  // Introspection.
  ReplicaId id() const { return id_; }
  NodeId net_id() const { return net_id_; }
  bool IsLeader() const;
  RaftRole role() const;
  Term CurrentTerm() const;
  LogIndex CommitIndex() const;
  LogIndex LastLogIndex() const;
  ReplicaId LeaderHint() const;
  bool running() const { return running_; }

 private:
  struct Pending {
    std::promise<StatusOr<std::string>> promise;
  };

  // --- all Locked methods require mu_ held ---
  // The only writer of role_: keeps is_leader_ in step.
  void SetRoleLocked(RaftRole role) REQUIRES(mu_);
  void BecomeFollowerLocked(Term term, bool persist) REQUIRES(mu_);
  void BecomeLeaderLocked() REQUIRES(mu_);
  void ResetElectionDeadlineLocked() REQUIRES(mu_);
  Term LastLogTermLocked() const REQUIRES(mu_);
  void PersistVoteLocked() REQUIRES(mu_);
  void ApplyCommittedLocked() REQUIRES(mu_);
  void FailPendingLocked(const Status& status) REQUIRES(mu_);
  void AdvanceCommitLocked() REQUIRES(mu_);
  void TruncateFromLocked(LogIndex from) REQUIRES(mu_);

  void ReplicatorLoop(size_t peer_index);
  // Fills `req` with the AppendEntries for one peer (from its next_index_)
  // and returns the last log index it carries. Shared by ReplicatorLoop
  // and ReplicateRoundInline, as is OnAppendReplyLocked, which applies the
  // peer's reply unless leadership or the term changed since `req` was
  // built.
  LogIndex BuildAppendLocked(size_t peer_index, AppendRequest* req)
      REQUIRES(mu_);
  void OnAppendReplyLocked(size_t peer_index, const AppendRequest& req,
                           const AppendReply& reply) REQUIRES(mu_);
  // Takes the free carry lane of the most caught-up peer and builds its
  // AppendEntries into `req`. Returns the lane (a peer index), or kNoLane
  // when every lane is busy or its peer needs a snapshot.
  size_t TakeCarryLaneLocked(AppendRequest* req) REQUIRES(mu_);
  // Sends `req` on the proposing thread, applies the reply and frees the
  // lane.
  void CarryAppend(size_t lane, const RaftPeer& peer,
                   const AppendRequest& req);
  static constexpr size_t kNoLane = SIZE_MAX;
  // --- log-offset helpers (compaction); require mu_ held ---
  LogIndex LastIndexLocked() const REQUIRES(mu_) {
    return snapshot_index_ + log_.size();
  }
  const LogEntry& EntryAtLocked(LogIndex index) const REQUIRES(mu_) {
    return log_[index - snapshot_index_ - 1];
  }
  Term TermAtLocked(LogIndex index) const REQUIRES(mu_) {
    if (index == snapshot_index_) return snapshot_term_;
    return EntryAtLocked(index).term;
  }
  void MaybeSnapshotLocked() REQUIRES(mu_);
  void StartReplicatorsLocked() REQUIRES(mu_);
  void StopReplicators();
  // Appends not-yet-claimed entries to the WAL with one sync (group
  // commit), then publishes them as durable and advances the commit index.
  void PersistEntriesUpTo(LogIndex index);

  const ReplicaId id_;
  const NodeId net_id_;
  SimNet* const net_;
  // Written by SetStateMachine under mu_; read only from Locked methods.
  StateMachine* sm_ GUARDED_BY(mu_);
  RaftOptions options_;  // tsa-coverage: allow(immutable after construction)
  const Clock* clock_;
  Wal wal_;  // tsa-coverage: allow(internally synchronized)
  // Election jitter; drawn only inside ResetElectionDeadlineLocked.
  Rng rng_ GUARDED_BY(mu_);

  // Held across sm_->Apply (which may take shard/kv/wal locks) and across
  // WAL persists, so raft.node ranks below all of those; never held across
  // a peer RPC (replicators, carried lanes and elections drop it around
  // the call).
  mutable Mutex mu_{"raft.node", 60};
  // Serializes PersistEntriesUpTo's WAL appends so they land, and publish
  // durable_index_, in log order. Held across the append (and its fsync),
  // taking mu_ only briefly inside.
  Mutex persist_mu_{"raft.persist", 59};
  CondVar repl_cv_;
  CondVar apply_cv_;

  RaftRole role_ GUARDED_BY(mu_) = RaftRole::kFollower;
  // Mirror of role_ == kLeader for IsLeader(), which every leader lookup
  // (RaftGroup::Leader) calls on each replica: it must not queue behind a
  // follower holding mu_ across its WAL fsync in HandleAppendEntries.
  std::atomic<bool> is_leader_{false};
  Term term_ GUARDED_BY(mu_) = 0;
  ReplicaId voted_for_ GUARDED_BY(mu_) = UINT32_MAX;
  ReplicaId leader_hint_ GUARDED_BY(mu_) = UINT32_MAX;
  // log_[i] has index snapshot_index_ + i + 1.
  std::vector<LogEntry> log_ GUARDED_BY(mu_);
  // Everything <= snapshot_index_ lives in the snapshot.
  LogIndex snapshot_index_ GUARDED_BY(mu_) = 0;
  Term snapshot_term_ GUARDED_BY(mu_) = 0;
  // Shipped to lagging followers.
  std::string last_snapshot_state_ GUARDED_BY(mu_);
  LogIndex commit_index_ GUARDED_BY(mu_) = 0;
  LogIndex applied_index_ GUARDED_BY(mu_) = 0;
  // Index of this leader's no-op barrier.
  LogIndex term_start_index_ GUARDED_BY(mu_) = 0;
  // Entries whose WAL append has returned; what AdvanceCommitLocked counts
  // for this node.
  LogIndex durable_index_ GUARDED_BY(mu_) = 0;
  // Entries some persister has taken to append (>= durable_index_), so
  // concurrent replicators append each entry once.
  LogIndex claimed_index_ GUARDED_BY(mu_) = 0;
  MonoNanos election_deadline_ GUARDED_BY(mu_) = 0;

  std::vector<RaftPeer> peers_ GUARDED_BY(mu_);
  std::vector<LogIndex> next_index_ GUARDED_BY(mu_);   // per peer
  std::vector<LogIndex> match_index_ GUARDED_BY(mu_);  // per peer
  std::vector<MonoNanos> last_send_ GUARDED_BY(mu_);   // per peer heartbeats
  // Per peer: a proposing thread is carrying an AppendEntries on the lane.
  // Stop waits on carry_cv_ until no lane is busy.
  std::vector<bool> carrying_ GUARDED_BY(mu_);
  CondVar carry_cv_;

  std::map<LogIndex, Pending> pending_ GUARDED_BY(mu_);

  // Started under mu_; joined (StopReplicators) only after
  // replicators_should_run_ goes false, from the single Stop() caller —
  // joining under mu_ would deadlock against loops that take it.
  // tsa-coverage: allow(start/stop lifecycle only)
  std::vector<std::thread> replicators_;
  bool replicators_should_run_ GUARDED_BY(mu_) = false;
  std::atomic<bool> running_{false};
};

// A raft replication group: constructs N replicas over SimNet, runs the
// shared ticker, routes proposals to the current leader.
class RaftGroup {
 public:
  using StateMachineFactory = std::function<std::unique_ptr<StateMachine>(ReplicaId)>;

  // `servers[i]` is the physical server hosting replica i (for SimNet
  // latency); `name` prefixes node names.
  RaftGroup(SimNet* net, std::string name, std::vector<uint32_t> servers,
            StateMachineFactory factory, RaftOptions options,
            const Clock* clock = RealClock::Get());
  ~RaftGroup();

  Status Start();
  void Stop();

  // Blocks until some replica is leader (or timeout).
  StatusOr<ReplicaId> WaitForLeader(int64_t timeout_ms = 5000);

  // Routes to the leader, retrying across elections until timeout.
  StatusOr<std::string> Propose(std::string command, int64_t timeout_ms = 5000);

  RaftNode* replica(size_t i) { return nodes_[i].get(); }
  StateMachine* state_machine(size_t i) { return machines_[i].get(); }
  size_t size() const { return nodes_.size(); }
  RaftNode* Leader();

  // Crash/restart a replica (tests).
  void CrashReplica(size_t i);
  Status RestartReplica(size_t i);

 private:
  void TickerLoop();

  SimNet* net_;
  std::string name_;
  StateMachineFactory factory_;
  std::vector<std::unique_ptr<StateMachine>> machines_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
  bool inline_ = false;  // RaftOptions::inline_replication
  std::thread ticker_;
  std::atomic<bool> ticker_run_{false};
};

}  // namespace cfs

#endif  // CFS_RAFT_RAFT_H_
