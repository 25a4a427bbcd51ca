#include "src/baselines/baseline_common.h"

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/trace_event.h"

namespace cfs {

BaselineEngineBase::BaselineEngineBase(SimNet* net, NodeId self,
                                       TafDbCluster* tafdb,
                                       FileStoreCluster* filestore,
                                       int64_t lock_timeout_us)
    : net_(net),
      self_(self),
      tafdb_(tafdb),
      filestore_(filestore),
      lock_timeout_us_(lock_timeout_us),
      ts_cache_(net, self, tafdb->ts_oracle(), 512),
      id_cache_(net, self, tafdb->id_allocator(), 128) {}

void BaselineEngineBase::CachePut(const std::string& path, InodeId id,
                                  InodeType type) {
  MutexLock lock(cache_mu_);
  dentry_cache_[path] = {id, type};
}

bool BaselineEngineBase::CacheGet(const std::string& path, InodeId* id,
                                  InodeType* type) {
  MutexLock lock(cache_mu_);
  auto it = dentry_cache_.find(path);
  if (it == dentry_cache_.end()) return false;
  *id = it->second.first;
  *type = it->second.second;
  return true;
}

void BaselineEngineBase::CacheErase(const std::string& path) {
  MutexLock lock(cache_mu_);
  dentry_cache_.erase(path);
}

StatusOr<InodeRecord> BaselineEngineBase::ReadRow(const InodeKey& key) {
  TafDbShard* shard = tafdb_->ShardFor(key.kid);
  return net_->Call(self_, shard->ServiceNetId(),
                    [&] { return shard->Get(key); });
}

PrimitiveResult BaselineEngineBase::ExecOnShard(InodeId kid,
                                                const PrimitiveOp& op) {
  TraceSpan span(Phase::kShardExec, "exec_on_shard");
  TafDbShard* shard = tafdb_->ShardFor(kid);
  return net_->Call(self_, shard->ServiceNetId(), [&] {
    trace::ScopedSpan exec(trace::Category::kExec, "primitive");
    return shard->ExecutePrimitive(op);
  });
}

StatusOr<std::vector<InodeRecord>> BaselineEngineBase::ScanDirRows(
    InodeId kid) {
  TafDbShard* shard = tafdb_->ShardFor(kid);
  std::vector<InodeRecord> out;
  std::string after;
  constexpr size_t kPage = 1024;
  for (;;) {
    auto page = net_->Call(self_, shard->ServiceNetId(),
                           [&] { return shard->ScanDir(kid, after, kPage); });
    if (!page.ok()) return page.status();
    for (auto& rec : *page) out.push_back(std::move(rec));
    if (page->size() < kPage) break;
    after = out.back().key.kstr;
  }
  return out;
}

Status BaselineEngineBase::LockOnShard(TxnId txn, InodeId kid,
                                       std::vector<std::string> keys) {
  // The whole acquisition (RPC round trip + queueing inside the lock
  // manager) counts as lock-phase time for the Fig 4 breakdown. The span
  // owns the phase while open, so the lock manager's own queue-wait stamp
  // inside is suppressed rather than double counted.
  TraceSpan span(Phase::kLockWait, "lock_on_shard");
  TafDbShard* shard = tafdb_->ShardFor(kid);
  return net_->Call(self_, shard->ServiceNetId(), [&] {
    return shard->locks()->LockAll(txn, std::move(keys), LockMode::kExclusive,
                                   lock_timeout_us_);
  });
}

void BaselineEngineBase::UnlockOnShard(TxnId txn, InodeId kid) {
  TraceSpan span(Phase::kLockWait);
  TafDbShard* shard = tafdb_->ShardFor(kid);
  (void)net_->Call(self_, shard->ServiceNetId(), [&]() -> Status {
    shard->locks()->UnlockAll(txn);
    return Status::Ok();
  });
}

Status BaselineEngineBase::CommitWriteSets(std::map<size_t, PrimitiveOp> ops,
                                           TxnId txn) {
  TraceSpan span(Phase::kShardExec);
  if (ops.empty()) return Status::Ok();
  if (ops.size() == 1) {
    TafDbShard* shard = tafdb_->shard(ops.begin()->first);
    return net_->Call(self_, shard->ServiceNetId(), [&] {
      return shard->CommitLocal(ops.begin()->second).status;
    });
  }
  std::vector<TxnParticipant*> participants;
  for (auto& [index, op] : ops) {
    TafDbShard* shard = tafdb_->shard(index);
    Status st = net_->Call(self_, shard->ServiceNetId(),
                           [&] { return shard->Stage(txn, op); });
    if (!st.ok()) return st;
    participants.push_back(shard);
  }
  TwoPhaseCommit tpc(net_);
  return tpc.Run(self_, participants, txn);
}

StatusOr<InodeId> BaselineEngineBase::ResolveDirId(const std::string& path) {
  auto resolved = Resolve(path);
  if (resolved.ok() && resolved->type != InodeType::kDirectory) {
    // Stale cached generation of the name: revalidate before ENOTDIR.
    CacheErase(path);
    resolved = Resolve(path);
  }
  if (!resolved.ok()) return resolved.status();
  if (resolved->type != InodeType::kDirectory) {
    return Status::NotADirectory(path);
  }
  return resolved->id;
}

StatusOr<BaselineEngineBase::Resolved> BaselineEngineBase::ResolveParent(
    const std::string& path) {
  TraceSpan span(Phase::kResolve);
  auto split = SplitParent(path);
  if (!split.ok()) return split.status();
  auto& [parent_path, name] = *split;
  auto parent_id = ResolveDirId(parent_path);
  if (!parent_id.ok()) return parent_id.status();
  Resolved out;
  out.parent = *parent_id;
  out.name = name;
  return out;
}

StatusOr<BaselineEngineBase::Resolved> BaselineEngineBase::Resolve(
    const std::string& path) {
  TraceSpan span(Phase::kResolve);
  if (path == "/") {
    Resolved root;
    root.id = kRootInode;
    root.type = InodeType::kDirectory;
    return root;
  }
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.status();
  Resolved out = std::move(parent).value();
  if (CacheGet(path, &out.id, &out.type)) {
    return out;
  }
  auto row = ReadRow(InodeKey::IdRecord(out.parent, out.name));
  if (!row.ok()) {
    if (row.status().IsNotFound()) CacheErase(path);
    return row.status();
  }
  out.id = row->id;
  out.type = row->type;
  CachePut(path, out.id, out.type);
  return out;
}

}  // namespace cfs
