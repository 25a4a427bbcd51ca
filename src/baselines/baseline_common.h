// Shared scaffolding for the two baseline systems the paper compares
// against (§5.1): a HopsFS-like and an InfiniFS-like metadata service, both
// reimplemented over the same substrates as CFS (the paper likewise
// reimplemented InfiniFS).
//
// Common baseline architecture:
//   - a metadata PROXY layer: clients forward every call one hop to a
//     proxy node, where the engine resolves paths and coordinates
//     transactions (HopsFS namenodes / InfiniFS MDS processes);
//   - hash-of-kID partitioning over a TafDB-style table cluster;
//   - INLINE attribute rows: a dentry row <parent, name> carries the full
//     attributes of the child (no separate attribute tier), which is what
//     concentrates a big directory's getattr load on one shard (Fig 12);
//   - lock-based read-modify-write transactions: row locks held across
//     every network round trip of the transaction, 2PC for cross-shard
//     write sets.

#ifndef CFS_BASELINES_BASELINE_COMMON_H_
#define CFS_BASELINES_BASELINE_COMMON_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/metadata_client.h"
#include "src/filestore/filestore.h"
#include "src/common/thread_annotations.h"
#include "src/net/simnet.h"
#include "src/tafdb/tafdb.h"
#include "src/txn/timestamp_oracle.h"
#include "src/txn/two_phase_commit.h"

namespace cfs {

struct BaselineOptions {
  size_t num_servers = 8;
  size_t num_proxies = 4;
  TafDbOptions tafdb;        // partition forced to kHashKid
  FileStoreOptions filestore;  // data blocks only; attrs are inline rows
  NetOptions net;
  int64_t lock_timeout_us = 4000000;
};

// Common machinery for the two baseline engines: dentry cache, row access,
// lock helpers, timestamps/ids, and lock-based commit.
class BaselineEngineBase : public MetadataClient {
 public:
  BaselineEngineBase(SimNet* net, NodeId self, TafDbCluster* tafdb,
                     FileStoreCluster* filestore, int64_t lock_timeout_us);

 protected:
  struct Resolved {
    InodeId parent = kInvalidInode;
    std::string name;
    InodeId id = kInvalidInode;
    InodeType type = InodeType::kNone;
  };

  StatusOr<Resolved> Resolve(const std::string& path);
  StatusOr<Resolved> ResolveParent(const std::string& path);
  StatusOr<InodeId> ResolveDirId(const std::string& path);

  StatusOr<InodeRecord> ReadRow(const InodeKey& key);
  PrimitiveResult ExecOnShard(InodeId kid, const PrimitiveOp& op);
  StatusOr<std::vector<InodeRecord>> ScanDirRows(InodeId kid);

  // Lock helpers: one RPC per shard.
  Status LockOnShard(TxnId txn, InodeId kid, std::vector<std::string> keys);
  void UnlockOnShard(TxnId txn, InodeId kid);

  // Commits per-shard write sets: CommitLocal for one shard, 2PC otherwise.
  Status CommitWriteSets(std::map<size_t, PrimitiveOp> ops, TxnId txn);

  uint64_t NowTs() { return ts_cache_.Next(); }
  InodeId AllocId() { return id_cache_.Next(); }
  TxnId NextTxn() {
    return (static_cast<TxnId>(self_) << 32) | txn_seq_.fetch_add(1);
  }

  void CachePut(const std::string& path, InodeId id, InodeType type);
  bool CacheGet(const std::string& path, InodeId* id, InodeType* type);
  void CacheErase(const std::string& path);

  // tsa-coverage: allow(immutable after construction)
  SimNet* net_;
  NodeId self_;  // tsa-coverage: allow(immutable after construction)
  // tsa-coverage: allow(immutable after construction)
  TafDbCluster* tafdb_;
  // tsa-coverage: allow(immutable after construction)
  FileStoreCluster* filestore_;
  // tsa-coverage: allow(immutable after construction)
  int64_t lock_timeout_us_;
  TimestampCache ts_cache_;  // tsa-coverage: allow(internally synchronized)
  TimestampCache id_cache_;  // tsa-coverage: allow(internally synchronized)
  // Path-cache leaf shared by both baseline engines.
  Mutex cache_mu_{"baseline.dentry", 45};
  std::map<std::string, std::pair<InodeId, InodeType>> dentry_cache_
      GUARDED_BY(cache_mu_);
  std::atomic<TxnId> txn_seq_{1};
};

// Generic baseline cluster shell: TafDB-style table cluster (hash
// partition), data-only FileStore, proxies hosting `EngineT` instances.
template <typename EngineT>
class BaselineCluster {
 public:
  BaselineCluster(std::string name, BaselineOptions options)
      : options_(std::move(options)), net_(options_.net) {
    options_.tafdb.partition = PartitionScheme::kHashKid;
    std::vector<uint32_t> servers;
    for (uint32_t s = 0; s < options_.num_servers; s++) servers.push_back(s);
    tafdb_ = std::make_unique<TafDbCluster>(&net_, servers, options_.tafdb);
    filestore_ =
        std::make_unique<FileStoreCluster>(&net_, servers, options_.filestore);
    for (size_t i = 0; i < options_.num_proxies; i++) {
      NodeId node = net_.AddNode(name + "-proxy" + std::to_string(i),
                                 static_cast<uint32_t>(i % servers.size()));
      proxy_nodes_.push_back(node);
      engines_.push_back(std::make_unique<EngineT>(
          &net_, node, tafdb_.get(), filestore_.get(),
          options_.lock_timeout_us));
    }
  }

  Status Start() {
    CFS_RETURN_IF_ERROR(tafdb_->Start());
    CFS_RETURN_IF_ERROR(filestore_->Start());
    CFS_RETURN_IF_ERROR(BootstrapRoot());
    return Status::Ok();
  }

  void Stop() {
    filestore_->Stop();
    tafdb_->Stop();
  }

  std::unique_ptr<MetadataClient> NewClient() {
    uint32_t client_server = static_cast<uint32_t>(options_.num_servers) +
                             (next_client_.fetch_add(1) % 8);
    NodeId node = net_.AddNode("client", client_server);
    size_t proxy = next_proxy_.fetch_add(1) % engines_.size();
    return std::make_unique<ForwardingClient>(&net_, node,
                                              proxy_nodes_[proxy],
                                              engines_[proxy].get());
  }

  SimNet* net() { return &net_; }
  TafDbCluster* tafdb() { return tafdb_.get(); }
  FileStoreCluster* filestore() { return filestore_.get(); }
  EngineT* engine(size_t i) { return engines_[i].get(); }

 private:
  Status BootstrapRoot() { return EngineT::BootstrapRoot(tafdb_.get()); }

  BaselineOptions options_;
  SimNet net_;
  std::unique_ptr<TafDbCluster> tafdb_;
  std::unique_ptr<FileStoreCluster> filestore_;
  std::vector<NodeId> proxy_nodes_;
  std::vector<std::unique_ptr<EngineT>> engines_;
  std::atomic<size_t> next_proxy_{0};
  std::atomic<uint32_t> next_client_{0};
};

}  // namespace cfs

#endif  // CFS_BASELINES_BASELINE_COMMON_H_
