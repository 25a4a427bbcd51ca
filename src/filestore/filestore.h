// FileStore — the flat, distributed object store for file data blocks that
// additionally keeps each file's attribute record in a local KV store
// (paper §3.2, §4.1: "we put the file attributes close to their data on the
// same FileStore node ... keys are inode ids while values are byte streams
// encoded by file attributes").
//
// File attributes are HASH-partitioned by inode id across FileStore nodes —
// the tiered-metadata half of the paper's design: attribute traffic
// (getattr/setattr, 78% of production ops per Table 1) spreads evenly over
// all data nodes even when every file lives in one huge directory (Fig 12),
// while the namespace hierarchy stays range-partitioned in TafDB.
//
// Every node is a raft group of 3 replicas; attribute mutations merge with
// the same delta/LWW reconciliation rules as TafDB primitives. Attribute
// writes triggered by create are piggybacked on the data-block creation
// (§5.7 "+new-org": "its extra cost is avoided by piggybacking this write
// on the data block creation").

#ifndef CFS_FILESTORE_FILESTORE_H_
#define CFS_FILESTORE_FILESTORE_H_

#include <memory>
#include <string>
#include <vector>

#include <atomic>
#include <deque>
#include <map>
#include <memory>

#include "src/common/hash.h"
#include "src/common/load_gate.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/kv/kvstore.h"
#include "src/net/simnet.h"
#include "src/raft/raft.h"
#include "src/tafdb/primitives.h"
#include "src/tafdb/schema.h"
#include "src/txn/two_phase_commit.h"

namespace cfs {

// Raft command envelope for FileStore state machines.
struct FileStoreCommand {
  enum class Kind : uint8_t {
    kPutAttr = 0,     // insert attribute record (optionally with block 0)
    kDeleteAttr = 1,  // remove attribute record
    kSetAttr = 2,     // merge deltas / LWW sets into the attribute
    kWriteBlock = 3,  // write one data block, bump size/mtime
    kDeleteFile = 4,  // remove attribute + all blocks
    kPrepare = 5,     // stage an inner command durably (2PC vote); the
                      // encoded inner command rides in `data`
    kCommitTxn = 6,   // apply the staged command
    kAbortTxn = 7,    // drop the staged command
    kUnref = 8,       // drop one link; delete attr+blocks at zero links
  };

  Kind kind = Kind::kPutAttr;
  TxnId txn = 0;
  // Unique per logical request; reused on retries for exactly-once apply.
  uint64_t request_id = 0;
  InodeId id = kInvalidInode;
  InodeRecord attr;         // kPutAttr
  UpdateSpec update;        // kSetAttr / kWriteBlock size+mtime merge
  uint64_t block_index = 0; // kWriteBlock
  std::string data;         // kWriteBlock payload; kPutAttr piggyback block

  std::string Encode() const;
  static StatusOr<FileStoreCommand> Decode(std::string_view data);
};

class FileStoreSm : public StateMachine {
 public:
  std::string Apply(LogIndex index, std::string_view command) override;
  std::string Snapshot() override;
  Status Restore(std::string_view state) override;

  const KvStore& kv() const { return kv_; }

  // Applies one non-transactional command to shard state.
  PrimitiveResult ApplyCommand(const FileStoreCommand& cmd);

  static std::string AttrKey(InodeId id);
  static std::string BlockKey(InodeId id, uint64_t index);
  static std::string BlockPrefix(InodeId id);

 private:
  KvStore kv_;
  std::map<TxnId, FileStoreCommand> staged_;
  std::map<uint64_t, std::string> applied_requests_;
  std::deque<uint64_t> applied_order_;
};

struct FileStoreOptions {
  size_t num_nodes = 4;
  size_t replicas = 3;
  size_t block_size = 64 * 1024;
  RaftOptions raft;
  // Server-side processing cost per attribute read, modelling the light
  // RocksDB key-value path (paper §4.1: "manipulating file attributes
  // through FileStore is cheaper than doing so in TafDB"). Charged in both
  // latency-injecting modes (kSleep: real sleep gated by a per-node
  // concurrency limit so hotspots queue; kVirtual: accrued on the
  // virtual clock — DESIGN.md §11); skipped in kZero unit tests.
  int64_t read_processing_us = 15;
  size_t read_concurrency = 16;
};

// One FileStore node (a raft group of replicas).
class FileStoreNode : public TxnParticipant {
 public:
  FileStoreNode(SimNet* net, std::string name, std::vector<uint32_t> servers,
                const FileStoreOptions& options);

  Status Start();
  void Stop();

  NodeId ServiceNetId() const;

  // Attribute path (metadata ops).
  Status PutAttr(const InodeRecord& attr, std::string piggyback_block = "");
  Status DeleteAttr(InodeId id);
  // Atomically decrements the link count; reclaims the attribute record and
  // every data block once it reaches zero (hard-link-safe unlink cleanup).
  Status Unref(InodeId id);
  Status SetAttr(InodeId id, const UpdateSpec& update);
  StatusOr<InodeRecord> GetAttr(InodeId id) const;

  // Data path.
  Status WriteBlock(InodeId id, uint64_t index, std::string data,
                    uint64_t mtime_ts);
  StatusOr<std::string> ReadBlock(InodeId id, uint64_t index) const;
  Status DeleteFile(InodeId id);

  // Distributed transaction participation (used by the non-primitive
  // configurations, where a create's attribute placement and namespace
  // update commit atomically via 2PC).
  Status Stage(TxnId txn, FileStoreCommand cmd);
  Status Prepare(TxnId txn) override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;
  NodeId ParticipantNetId() const override { return ServiceNetId(); }

  // GC change capture.
  std::vector<std::pair<LogIndex, FileStoreCommand>> ReadCommittedSince(
      LogIndex from, size_t max) const;

  RaftGroup* raft_group() { return group_.get(); }

 private:
  Status Propose(const FileStoreCommand& cmd);
  const FileStoreSm* LeaderSm() const;
  void ReadProcessingGate() const;

  SimNet* net_;  // tsa-coverage: allow(immutable after construction)
  std::string name_;  // tsa-coverage: allow(immutable after construction)
  // tsa-coverage: allow(immutable after construction)
  FileStoreOptions options_;
  // Built by Start() before any request is routed here.
  // tsa-coverage: allow(start/stop lifecycle only)
  std::unique_ptr<RaftGroup> group_;
  // Leaf: released before any raft proposal.
  mutable Mutex staged_mu_{"filestore.staged", 61};
  std::map<TxnId, FileStoreCommand> staged_ GUARDED_BY(staged_mu_);
  // tsa-coverage: allow(internally synchronized)
  mutable LoadGate read_gate_;
  std::atomic<uint64_t> request_seq_{1};
};

// The hash-partitioned cluster of FileStore nodes.
class FileStoreCluster {
 public:
  FileStoreCluster(SimNet* net, std::vector<uint32_t> servers,
                   FileStoreOptions options);

  Status Start();
  void Stop();

  size_t NodeIndexFor(InodeId id) const {
    return static_cast<size_t>(HashU64(id) % nodes_.size());
  }
  FileStoreNode* NodeFor(InodeId id) { return nodes_[NodeIndexFor(id)].get(); }
  FileStoreNode* node(size_t i) { return nodes_[i].get(); }
  size_t num_nodes() const { return nodes_.size(); }
  size_t block_size() const { return options_.block_size; }

  // Fire-and-forget deletion (unlink hides FileStore latency, §5.2).
  void DeleteAttrAsync(InodeId id);
  // Fire-and-forget unref (hard-link-safe).
  void UnrefAsync(InodeId id);
  // Test support: drain pending async deletions.
  void DrainAsync();

 private:
  SimNet* net_;
  FileStoreOptions options_;
  std::vector<std::unique_ptr<FileStoreNode>> nodes_;
  std::unique_ptr<ThreadPool> async_pool_;
};

}  // namespace cfs

#endif  // CFS_FILESTORE_FILESTORE_H_
