// Renamer — the dedicated service for normal-path (cross-directory or
// directory-moving) renames (paper §4.3).
//
// Fast-path renames (intra-directory, file-to-file — ~99% in production)
// never reach this service: ClientLib executes them directly with the
// insert_and_delete_with_update primitive. Everything else is funneled to
// the Renamer coordinator, which
//   1. acquires coordinator-local locks on the source entry, destination
//      entry, and both parent directories (canonically ordered),
//   2. re-reads both entries from TafDB under those locks, in one
//      concurrent SimNet::FanOut round together with the attribute records
//      of the destination's ancestor chain that the client collected while
//      resolving the destination (RenameRequest::dst_chain),
//   3. rejects orphaned loops (renaming an ancestor into its own subtree):
//      if the chain's records verify link by link against their parent
//      backpointers, the loop check is membership of the source in the
//      chain; on any mismatch it walks the backpointers one read at a time,
//   4. executes the cross-shard mutation as deterministically ordered,
//      id-hint-guarded single-shard primitives with compensation (see the
//      commentary in Rename() — a deliberate strengthening of the paper's
//      "conventional locking and 2PC" so normal-path renames are also
//      robust against concurrent fast-path primitives),
//   5. cleans up replaced files' attributes in FileStore after commit, and
//      returns the committed CacheInvalidation, so the issuing engine
//      caches the moved entry at its new name.
//
// The coordinator role is held by the leader of a small raft group (the
// paper deploys a 3-node Renamer cluster); the group's log is used only for
// leader election, since all rename state is transient coordination state.

#ifndef CFS_RENAMER_RENAMER_H_
#define CFS_RENAMER_RENAMER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"

#include "src/filestore/filestore.h"
#include "src/net/simnet.h"
#include "src/raft/raft.h"
#include "src/tafdb/tafdb.h"
#include "src/txn/lock_manager.h"
#include "src/txn/timestamp_oracle.h"
#include "src/txn/two_phase_commit.h"

namespace cfs {

struct RenameRequest {
  InodeId src_parent = kInvalidInode;
  std::string src_name;
  InodeId dst_parent = kInvalidInode;
  std::string dst_name;
  // Full normalized client-visible paths, carried so the post-commit
  // invalidation broadcast can name what moved (client dentry caches key by
  // path). May be empty when the caller has no cache to keep coherent
  // (tests, tools); receivers then fully invalidate both parents.
  std::string src_path;
  std::string dst_path;
  // The ids of dst_parent's ancestors from the root's child down to
  // dst_parent itself (empty when dst_parent is the root), as the client
  // resolved them. Only a hint: the Renamer reads their attribute records
  // in its validation round and verifies every link before trusting it.
  std::vector<InodeId> dst_chain;
};

// Post-commit cache invalidation, broadcast to every client engine after a
// normal-path rename: the exact paths that moved (whole subtrees when a
// directory moved) plus the epochs the rename's primitives left on both
// parents. Each parent's epoch moved by exactly one bump, which touched
// only the moved path's final component, so receivers drop just that name
// instead of waiting out the epoch TTL.
struct CacheInvalidation {
  std::string src_path;
  std::string dst_path;
  bool subtree = false;  // a directory moved: drop cached descendants too
  InodeId src_parent = kInvalidInode;
  uint64_t src_parent_epoch = 0;
  InodeId dst_parent = kInvalidInode;
  uint64_t dst_parent_epoch = 0;
  // The inode now at dst_path (kInvalidInode for a no-op rename).
  InodeId moved = kInvalidInode;
  InodeType moved_type = InodeType::kNone;
};

struct RenamerOptions {
  size_t replicas = 3;
  RaftOptions raft;
  int64_t lock_timeout_us = 2000000;
  // When true (CFS tiered mode), replaced files' attributes live in
  // FileStore and are deleted there post-commit; otherwise they are TafDB
  // attribute records handled inside the transaction.
  bool tiered_attrs = true;
  // Lock-based deployments (CFS-base / +new-org) synchronize every mutation
  // through the shards' row-lock managers; the Renamer must take the same
  // row locks or its writes would slip between their read-modify-write
  // critical sections.
  bool use_shard_row_locks = false;
};

class Renamer {
 public:
  Renamer(SimNet* net, std::vector<uint32_t> servers, TafDbCluster* tafdb,
          FileStoreCluster* filestore, RenamerOptions options);

  Status Start();
  void Stop();

  // Front door for RPC accounting (the coordinator node).
  NodeId CoordinatorNetId() const;

  // Executes a normal-path rename and returns what it committed. Runs on
  // the caller's thread; the caller is expected to have routed the RPC via
  // SimNet to CoordinatorNetId().
  StatusOr<CacheInvalidation> Rename(const RenameRequest& req);

  struct Stats {
    uint64_t fast_rejected = 0;   // requests that were actually fast-path
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t loops_detected = 0;
    // Directory renames whose dst_chain failed verification, so the loop
    // check walked the backpointers instead.
    uint64_t chain_walks = 0;
    uint64_t invalidations_broadcast = 0;
  };
  Stats stats() const;

  // Installed by the assembled system (Cfs): delivers a post-commit
  // CacheInvalidation to every registered client engine. Runs on the
  // renaming caller's thread, synchronously, before Rename returns — which
  // is what makes post-rename lookups through other engines coherent. Must
  // be set before Start() and outlive the Renamer.
  void set_invalidation_broadcast(
      std::function<void(const CacheInvalidation&)> fn) {
    broadcast_ = std::move(fn);
  }

 private:
  // Walks dst ancestors; returns true if `candidate` appears (loop).
  StatusOr<bool> IsAncestorOf(InodeId candidate, InodeId node);

  SimNet* net_;  // tsa-coverage: allow(immutable after construction)
  TafDbCluster* tafdb_;  // tsa-coverage: allow(immutable after construction)
  // tsa-coverage: allow(immutable after construction)
  FileStoreCluster* filestore_;
  // tsa-coverage: allow(immutable after construction)
  RenamerOptions options_;
  // Leader election only; built by the constructor.
  // tsa-coverage: allow(immutable after construction)
  std::unique_ptr<RaftGroup> group_;
  // LWW timestamps, fetched from the oracle in batches like an engine's.
  TimestampCache ts_cache_;  // tsa-coverage: allow(internally synchronized)
  // Coordinator-local directory locks, deliberately held across the rename
  // transaction's network round trips — the one CFS component the paper
  // exempts from the pruned-scope rule, so its scope class is
  // allowed-across-rpc (audited and counted, never fatal).
  // cs-policy: allowed-across-rpc renamer.dirlock
  LockManager locks_{LockManagerOptions{}, RealClock::Get(), "renamer.dirlock",
                     "the rename coordinator serializes directory moves by "
                     "holding src/dst directory locks across the rename "
                     "transaction's read/validate/commit round trips (paper "
                     "§4.3); normal-path metadata operations never take "
                     "these locks"};
  std::atomic<TxnId> next_txn_{1};
  // Installed once before Start() (see set_invalidation_broadcast).
  // tsa-coverage: allow(immutable after construction)
  std::function<void(const CacheInvalidation&)> broadcast_;

  // Stats-only leaf.
  mutable Mutex stats_mu_{"renamer.stats", 85};
  Stats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace cfs

#endif  // CFS_RENAMER_RENAMER_H_
