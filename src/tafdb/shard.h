// A TafDB metadata shard: a raft group of backend-server replicas, each
// applying ShardCommands to a local KV store holding a contiguous
// <kID, kStr> range of inode_table.
//
// Two execution paths coexist (the paper's point of comparison):
//   1. the CFS path — ExecutePrimitive proposes a single-shard atomic
//      primitive through raft; predicates and merges are evaluated inside
//      the serial apply, with no row locks;
//   2. the lock-based path used by the baselines and CFS-base — callers
//      hold row locks in the shard's LockManager across interactive reads,
//      then commit buffered writes either directly (single-shard) or via
//      the 2PC participant hooks (Stage/Prepare/Commit/Abort), each phase
//      a raft proposal of its own.
//
// Reads are served from the current leader's state machine.

#ifndef CFS_TAFDB_SHARD_H_
#define CFS_TAFDB_SHARD_H_

#include <deque>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/load_gate.h"
#include "src/common/thread_annotations.h"
#include "src/kv/kvstore.h"
#include "src/net/simnet.h"
#include "src/raft/raft.h"
#include "src/tafdb/primitives.h"
#include "src/txn/lock_manager.h"
#include "src/txn/two_phase_commit.h"

namespace cfs {

// The raft command envelope for shard state machines.
struct ShardCommand {
  enum class Kind : uint8_t {
    kPrimitive = 0,  // execute op atomically now
    kPrepare = 1,    // stage op durably under txn (2PC vote)
    kCommitTxn = 2,  // apply the staged op
    kAbortTxn = 3,   // drop the staged op
  };

  Kind kind = Kind::kPrimitive;
  TxnId txn = 0;
  // Unique per logical request; reused verbatim on retries so the state
  // machine can deduplicate (exactly-once apply under leadership churn,
  // where a retried proposal may otherwise commit twice).
  uint64_t request_id = 0;
  PrimitiveOp op;

  std::string Encode() const;
  static StatusOr<ShardCommand> Decode(std::string_view data);
};

// Replicated state machine: KV store + staged 2PC transactions + directory
// mutation epochs.
class TafDbShardSm : public StateMachine {
 public:
  std::string Apply(LogIndex index, std::string_view command) override;
  // Log compaction support: serializes/replaces the full shard state
  // (live records, staged transactions, exactly-once bookkeeping, epochs).
  std::string Snapshot() override;
  Status Restore(std::string_view state) override;

  const KvStore& kv() const { return kv_; }
  KvStore* mutable_kv() { return &kv_; }

  // How many bumps each directory's journal keeps.
  static constexpr size_t kJournalDepth = 64;

  // A directory's mutation epoch is the number of applied ops that named
  // it as their PrimitiveOp::epoch_dir (0 if none); bumped in apply, so
  // every replica holds the same value at the same log index. Next to it,
  // a journal of the last kJournalDepth bumps records the dentry names
  // each one touched. Returns the names touched by the bumps in
  // (since, epoch], or covered=false when the journal does not reach back
  // to `since` (DESIGN.md §8). Client engines use the slice to drop only
  // the cached dentries that changed.
  DirChanges DirChangesSince(InodeId dir, uint64_t since) const;

 private:
  // Bumps in (floor, epoch] are journaled, oldest first.
  struct DirJournal {
    uint64_t epoch = 0;
    uint64_t floor = 0;
    std::deque<std::pair<uint64_t, std::vector<std::string>>> bumps;
  };

  // Executes `op` and, if it succeeded, bumps and journals its epoch_dir.
  PrimitiveResult ApplyOp(const PrimitiveOp& op);
  DirChanges ChangesSinceLocked(const DirJournal& journal, uint64_t since)
      const REQUIRES_SHARED(epoch_mu_);

  KvStore kv_;  // tsa-coverage: allow(internally synchronized)
  // Apply, Snapshot and Restore are serialized by the raft node.
  // tsa-coverage: allow(raft apply only)
  std::map<TxnId, PrimitiveOp> staged_;
  // Exactly-once bookkeeping: request id -> cached encoded result, bounded.
  // tsa-coverage: allow(raft apply only)
  std::map<uint64_t, std::string> applied_requests_;
  std::deque<uint64_t> applied_order_;  // tsa-coverage: allow(raft apply only)
  // Written only by apply (under raft.node); read by leader-served epoch
  // reads on client threads. Leaf. Only the epochs are snapshotted: a
  // restored replica starts every journal empty, with floor = epoch.
  mutable SharedMutex epoch_mu_{"tafdb.epoch", 63};
  std::unordered_map<InodeId, DirJournal> dirs_ GUARDED_BY(epoch_mu_);
};

struct TafDbShardOptions {
  RaftOptions raft;
  size_t replicas = 3;
  // Server-side processing cost per read, modelling the heavier
  // database-table path of TafDB relative to FileStore's raw KV lookups
  // (§5.2: "the faster processing enabled by FileStore, compared to
  // TafDB"). Charged in both latency-injecting modes (kSleep: real sleep
  // bounded by a per-shard concurrency limit so a hot shard queues,
  // Fig 12; kVirtual: accrued on the virtual clock, no queueing —
  // DESIGN.md §11); skipped in kZero unit tests.
  int64_t read_processing_us = 150;
  size_t read_concurrency = 2;
  // Extra server-side cost of LOCK-BASED transactional commits
  // (CommitLocal / Prepare / Commit) relative to single-shard atomic
  // primitives — the paper's §4.2 claim: stored-procedure-style
  // transactions execute statement by statement through the SQL layer,
  // while primitives are single commands "made even faster". Charged in
  // both latency-injecting modes, like read_processing_us; skipped in
  // kZero unit tests.
  int64_t txn_write_processing_us = 250;
  size_t txn_write_concurrency = 16;
};

class TafDbShard : public TxnParticipant {
 public:
  // `servers` lists the physical servers hosting the replicas.
  TafDbShard(SimNet* net, std::string name, std::vector<uint32_t> servers,
             TafDbShardOptions options);

  Status Start();
  void Stop();

  // Front-door net id for RPC latency accounting: the current leader
  // replica (falls back to replica 0 during elections).
  NodeId ServiceNetId() const;

  // ---- CFS path ----
  PrimitiveResult ExecutePrimitive(const PrimitiveOp& op);

  // ---- reads (leader-served) ----
  StatusOr<InodeRecord> Get(const InodeKey& key) const;
  // Children of `kid` with name > after (exclusive), attr record excluded.
  StatusOr<std::vector<InodeRecord>> ScanDir(InodeId kid,
                                             const std::string& after,
                                             size_t limit) const;

  // ---- lock-based transaction path (baselines, CFS-base) ----
  LockManager* locks() { return &locks_; }
  // Single-shard commit of a validated write set (one raft round).
  PrimitiveResult CommitLocal(const PrimitiveOp& write_set);
  // Buffers a write set for a distributed txn; made durable by Prepare.
  Status Stage(TxnId txn, PrimitiveOp write_set);
  // TxnParticipant (each phase is one raft proposal):
  Status Prepare(TxnId txn) override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;
  NodeId ParticipantNetId() const override { return ServiceNetId(); }

  // ---- directory epochs (client dentry caches) ----
  // Leader-served read of TafDbShardSm::DirChangesSince for a directory
  // whose entry list this shard owns (same kID routing as its id records).
  // Mutations bump the epoch by naming the directory in
  // PrimitiveOp::epoch_dir.
  DirChanges DirChangesSince(InodeId dir, uint64_t since) const;

  // ---- GC change capture ----
  std::vector<std::pair<LogIndex, ShardCommand>> ReadCommittedSince(
      LogIndex from, size_t max) const;

  RaftGroup* raft_group() { return group_.get(); }
  const std::string& name() const { return name_; }

 private:
  const TafDbShardSm* LeaderSm() const;
  // Proposes a kPrimitive command through raft (shared by the CFS primitive
  // path and the lock-based single-shard commit).
  PrimitiveResult ProposePrimitive(const PrimitiveOp& op);
  void ReadProcessingGate() const;

  void TxnWriteProcessingGate() const;

  SimNet* net_;  // tsa-coverage: allow(immutable after construction)
  std::string name_;  // tsa-coverage: allow(immutable after construction)
  // Built by Start() before any request is routed here.
  // tsa-coverage: allow(start/stop lifecycle only)
  std::unique_ptr<RaftGroup> group_;
  LoadGate read_gate_;  // tsa-coverage: allow(internally synchronized)
  LoadGate txn_write_gate_;  // tsa-coverage: allow(internally synchronized)
  LockManager locks_;  // tsa-coverage: allow(internally synchronized)
  // Leaf: released before any raft proposal.
  Mutex staged_mu_{"tafdb.staged", 62};
  // Service-side buffer pre-Prepare.
  std::map<TxnId, PrimitiveOp> staged_ GUARDED_BY(staged_mu_);
  std::atomic<uint64_t> request_seq_{1};
};

}  // namespace cfs

#endif  // CFS_TAFDB_SHARD_H_
