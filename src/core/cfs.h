// Cfs — the assembled system (paper Figure 5): TafDB (namespace store),
// FileStore (file data + attributes), Renamer, the timestamp service, the
// garbage collector, and client construction.
//
// CfsOptions toggles the paper's three optimizations independently so the
// Fig 13 ablation can be reproduced with the same codebase:
//   tiered_attrs      — "+new-org":    file attributes offloaded to
//                       FileStore via hash partitioning (§4.1); when off,
//                       they are TafDB records on the shard of their own id.
//   primitives        — "+primitives": metadata mutations use single-shard
//                       atomic primitives (§4.2); when off, they run as
//                       lock-based read-modify-write transactions with 2PC
//                       for cross-shard write sets (the conventional path).
//   client_resolving  — "+no-proxy":   clients resolve and route metadata
//                       requests themselves (§3.1); when off, requests take
//                       an extra hop through a metadata proxy node.

#ifndef CFS_CORE_CFS_H_
#define CFS_CORE_CFS_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/core/dentry_cache.h"
#include "src/core/metadata_client.h"
#include "src/filestore/filestore.h"
#include "src/net/simnet.h"
#include "src/renamer/renamer.h"
#include "src/tafdb/tafdb.h"
#include "src/txn/timestamp_oracle.h"
#include "src/txn/two_phase_commit.h"

namespace cfs {

class CfsEngine;
class GarbageCollector;

struct CfsOptions {
  bool tiered_attrs = true;
  bool primitives = true;
  bool client_resolving = true;

  size_t num_servers = 8;   // physical servers (metadata+data co-deployed)
  size_t num_proxies = 4;   // only used when !client_resolving

  // Client dentry cache (per engine; see src/core/dentry_cache.h). The
  // capacity bounds positive+negative entries; 0 disables caching. The
  // negative TTL bounds how long a cached ENOENT can mask a concurrent
  // create (<= 0 disables negative caching); the epoch TTL bounds how long
  // a directory's epoch view is trusted before a cache hit forces one
  // revalidation RPC (<= 0 revalidates every hit). TTLs are measured on a
  // sim-aware clock: virtual time under LatencyMode::kVirtual, wall time
  // otherwise (DESIGN.md §11).
  size_t dentry_cache_capacity = 65536;
  size_t dentry_cache_shards = 16;
  int64_t dentry_negative_ttl_ms = 1000;
  int64_t dentry_epoch_ttl_ms = 2000;

  TafDbOptions tafdb;
  FileStoreOptions filestore;
  RenamerOptions renamer;
  NetOptions net;

  // Garbage collection cadence and orphan grace period. The grace period
  // must comfortably exceed the longest in-flight window between a
  // creation's two tier writes. Virtual-time benches set start_gc=false:
  // the GC thread ticks on the wall clock, outside the simulation's
  // virtual time (DESIGN.md §11).
  int64_t gc_interval_ms = 200;
  int64_t gc_grace_ms = 1000;
  bool start_gc = true;
};

// Helper producing the four Fig 13 configurations.
CfsOptions CfsBaseOptions();     // CFS-base
CfsOptions CfsNewOrgOptions();   // +new-org
CfsOptions CfsPrimitivesOptions();  // +primitives
CfsOptions CfsFullOptions();     // +no-proxy (full CFS)

class Cfs {
 public:
  explicit Cfs(CfsOptions options);
  ~Cfs();

  Cfs(const Cfs&) = delete;
  Cfs& operator=(const Cfs&) = delete;

  Status Start();
  void Stop();

  // Creates a client. With client_resolving, the returned client talks to
  // the services directly; otherwise it is a thin stub that forwards every
  // operation through a metadata proxy node.
  std::unique_ptr<MetadataClient> NewClient();

  SimNet* net() { return &net_; }
  TafDbCluster* tafdb() { return tafdb_.get(); }
  FileStoreCluster* filestore() { return filestore_.get(); }
  Renamer* renamer() { return renamer_.get(); }
  GarbageCollector* gc() { return gc_.get(); }
  const CfsOptions& options() const { return options_; }

  // Engine registry for cache-invalidation broadcast. Engines register in
  // their constructor and unregister in their destructor, so every engine
  // must be destroyed before its Cfs (all current call sites already do).
  void RegisterEngine(CfsEngine* engine);
  // Blocks until no broadcast is using the snapshot that may contain
  // `engine`, then removes it — so a destroyed engine is never touched.
  void UnregisterEngine(CfsEngine* engine);
  // Delivers `inv` to every registered engine as one SimNet::FanOut round
  // from the Renamer coordinator (synchronous: it returns after every
  // engine applied it). The fan-out runs on a snapshot with engines_mu_
  // *released* (pruned critical-section scope: no lock across
  // RPCs); engines are kept alive by an active-broadcast refcount that
  // UnregisterEngine waits on.
  void BroadcastInvalidation(const CacheInvalidation& inv);

 private:
  // Topology below is assembled in the constructor and Start() (single
  // caller, before any concurrent use) and torn down by Stop().
  // tsa-coverage: allow(immutable after construction)
  CfsOptions options_;
  SimNet net_;  // tsa-coverage: allow(internally synchronized)
  // tsa-coverage: allow(start/stop lifecycle only)
  std::unique_ptr<TafDbCluster> tafdb_;
  // tsa-coverage: allow(start/stop lifecycle only)
  std::unique_ptr<FileStoreCluster> filestore_;
  // tsa-coverage: allow(start/stop lifecycle only)
  std::unique_ptr<Renamer> renamer_;
  // tsa-coverage: allow(start/stop lifecycle only)
  std::unique_ptr<GarbageCollector> gc_;
  // Guards the registry only; never held across the invalidation fan-out
  // (never-across-rpc policy). Kept below simnet.* and dentry.* in rank for
  // the registry operations that nest under resolving paths.
  Mutex engines_mu_{"cfs.engines", 20};
  std::vector<CfsEngine*> engines_ GUARDED_BY(engines_mu_);
  // Broadcasts in flight over a snapshot of engines_. UnregisterEngine
  // waits for this to drain before letting an engine die.
  int active_broadcasts_ GUARDED_BY(engines_mu_) = 0;
  CondVar engines_cv_;
  // Filled by the constructor; const thereafter (NewClient only reads).
  // tsa-coverage: allow(immutable after construction)
  std::vector<NodeId> proxy_nodes_;
  // tsa-coverage: allow(immutable after construction)
  std::vector<std::unique_ptr<CfsEngine>> proxy_engines_;
  std::atomic<size_t> next_proxy_{0};
  std::atomic<uint32_t> next_client_server_{0};
  // Flipped only by Start()/Stop() (single lifecycle caller).
  bool started_ = false;  // tsa-coverage: allow(start/stop lifecycle only)
};

// The metadata engine implementing every operation for all CfsOptions
// variants. Instantiated per client (client-side metadata resolving) or per
// proxy node (proxy mode).
class CfsEngine : public MetadataClient {
 public:
  CfsEngine(Cfs* fs, NodeId self);
  ~CfsEngine() override;

  Status Mkdir(const std::string& path, uint32_t mode) override;
  Status Rmdir(const std::string& path) override;
  Status Create(const std::string& path, uint32_t mode) override;
  Status Unlink(const std::string& path) override;
  StatusOr<FileInfo> Lookup(const std::string& path) override;
  StatusOr<FileInfo> GetAttr(const std::string& path) override;
  Status SetAttr(const std::string& path, const SetAttrSpec& spec) override;
  StatusOr<std::vector<DirEntry>> ReadDir(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Symlink(const std::string& target,
                 const std::string& link_path) override;
  StatusOr<std::string> ReadLink(const std::string& path) override;
  Status Link(const std::string& existing,
              const std::string& link_path) override;
  Status Write(const std::string& path, uint64_t offset,
               const std::string& data) override;
  StatusOr<std::string> Read(const std::string& path, uint64_t offset,
                             size_t length) override;

  NodeId self() const { return self_; }
  // Drops `path` and every cached descendant (a directory rename moves the
  // whole subtree, so exact-path invalidation is not enough).
  void InvalidateCache(const std::string& path);
  // Applies a Renamer post-commit broadcast: each parent's epoch moved by
  // exactly one bump, which touched only the moved name, so the engine
  // observes that one-bump slice per parent; then drops the moved subtrees
  // for directory moves.
  void ApplyInvalidation(const CacheInvalidation& inv);
  const DentryCache& dentry_cache() const { return cache_; }

 private:
  struct Resolved {
    InodeId parent = kInvalidInode;
    std::string name;       // empty for "/"
    // Normalized paths of the entry and of its parent directory; the
    // dentry cache keys by these.
    std::string path;
    std::string dir_path;
    InodeId id = kInvalidInode;
    InodeType type = InodeType::kNone;
  };

  // Resolves the parent directory of `path` (all but the last component).
  // A non-null `chain` receives the ids of the directories resolved on the
  // way, from the root's child down to the parent (a Renamer hint).
  StatusOr<Resolved> ResolveParent(const std::string& path,
                                   std::vector<InodeId>* chain = nullptr);
  // Resolves the full path (parent + final dentry read); a non-null `chain`
  // receives every id on the way, the final entry's included.
  StatusOr<Resolved> Resolve(const std::string& path,
                             bool bypass_final_cache = false,
                             std::vector<InodeId>* chain = nullptr);
  StatusOr<InodeId> ResolveDirId(const std::string& path,
                                 std::vector<InodeId>* chain = nullptr);

  // Runs a lock acquire/release RPC under a kLockWait trace span (the
  // paper's "lock phase": the RPC round trips plus in-queue blocking).
  Status LockPhaseCall(NodeId service, const std::function<Status()>& fn);
  // Releases `txn`'s row locks on `shard` in one lock-phase RPC. When
  // `dir` is set, the same round first reads that directory's changes
  // since this engine's view, after the caller's commit applied, and the
  // engine observes them under `dir_path`.
  void UnlockRows(TafDbShard* shard, TxnId txn, InodeId dir = kInvalidInode,
                  const std::string& dir_path = std::string());

  // One dentry read of `at.name` under `at.parent` from TafDB (1 RPC). The
  // parent's changes since this engine's view are piggybacked on the same
  // round and observed; their epoch is written to `*observed_epoch` (when
  // non-null) so callers can tag cache fills with the epoch observed
  // alongside the data — never a view refreshed by a concurrent
  // invalidation broadcast after the read.
  StatusOr<InodeRecord> ReadEntry(const Resolved& at,
                                  uint64_t* observed_epoch = nullptr);
  StatusOr<InodeRecord> ReadTafAttr(InodeId id);
  PrimitiveResult ExecOnShard(InodeId kid, const PrimitiveOp& op);
  // Runs `op` on `dir`'s shard as a change to `dir` (its epoch_dir), and
  // observes the changes since this engine's view that the result carries.
  PrimitiveResult ExecDirChange(InodeId dir, const std::string& dir_path,
                                PrimitiveOp op);

  // Full attribute record fetch honoring the tiering config.
  StatusOr<InodeRecord> FetchAttr(InodeId id, InodeType type);

  // Lock-based read-modify-write commit used when !primitives: stages the
  // per-shard write sets and commits (2PC if multi-shard) while the caller
  // holds the relevant row locks.
  Status CommitWriteSets(std::map<size_t, PrimitiveOp> ops, TxnId txn);

  // Shared bodies for create/symlink and attr-record placement.
  Status CreateCommon(const std::string& path, uint32_t mode, InodeType type,
                      const std::string& symlink_target);
  Status PlaceFileAttr(const InodeRecord& attr);
  void DeleteFileAttrAsync(InodeId id);

  uint64_t NowTs();
  InodeId AllocId();
  TxnId NextTxn();

  // Dentry cache (client-side metadata resolving; src/core/dentry_cache.h).
  // Consults the cache under a kResolveCached trace span; a
  // kNeedsValidation outcome triggers one DirChangesSince RPC and a retry.
  DentryCache::LookupResult CacheLookup(const std::string& path,
                                        InodeId parent);
  // Fills tag the entry with `epoch`, the parent's epoch observed in the
  // same round as the cached data (ReadEntry's piggyback, or the view
  // captured before issuing an own mutation — older is conservative,
  // newer would mask staleness).
  void CachePut(const std::string& path, InodeId parent, InodeId id,
                InodeType type, uint64_t epoch);
  void CacheNegative(const std::string& path, InodeId parent,
                     uint64_t epoch);
  void CacheErase(const std::string& path);

  Cfs* fs_;
  NodeId self_;
  TimestampCache ts_cache_;
  TimestampCache id_cache_;
  DentryCache cache_;
  std::atomic<TxnId> txn_seq_{1};
};

}  // namespace cfs

#endif  // CFS_CORE_CFS_H_
