// CfsEngine — every metadata/data operation, for all CfsOptions variants.
//
// Full CFS (tiered + primitives + client resolving) follows Figure 8:
//   create : FileStore.PutAttr (piggybacked block) -> insert_with_update
//   unlink : delete_with_update -> async FileStore delete
//   mkdir  : attr record insert on the new dir's shard -> insert_with_update
//   rmdir  : emptiness-checked attr retire -> delete_with_update
//   rename : intra-directory files take the fast path (one
//            insert_and_delete_with_update, which also replaces any file
//            at the destination); everything else goes to the Renamer
//            coordinator.
// The two-tier orders are the deterministic ones of Figure 7: creation
// writes the leaf attribute first and links last; deletion unlinks first —
// crashes leave only orphaned attributes for the GC.
//
// With primitives disabled the same operations run as conventional
// lock-based transactions: row locks acquired in the shard's lock manager,
// interactive reads under the locks, buffered write sets, and 2PC when the
// write set spans shards. The lock hold time therefore includes every
// network round trip in between — the critical-section scope the paper
// measures and prunes. Attribute changes are committed as the same update
// specs the primitives carry, not as images of the records read under the
// locks: the Renamer reparents a moved directory without locking its
// attribute row, and an image would put the old backpointer back. Every
// last-writer-wins field is ordered by the owning shard's raft apply order
// (primitives.h).

#include <algorithm>
#include <functional>
#include <map>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/simtime.h"
#include "src/common/trace_event.h"
#include "src/core/cfs.h"
#include "src/core/gc.h"

namespace cfs {
namespace {

constexpr int64_t kLockTimeoutUs = 4000000;

Predicate ParentIsDir(InodeId parent) {
  Predicate p;
  p.key = InodeKey::AttrRecord(parent);
  p.kind = Predicate::Kind::kExistsWithType;
  p.type = InodeType::kDirectory;
  return p;
}

DentryCache::Options CacheOptionsFrom(const CfsOptions& options) {
  DentryCache::Options o;
  o.capacity = options.dentry_cache_capacity;
  o.shards = options.dentry_cache_shards;
  o.negative_ttl_ms = options.dentry_negative_ttl_ms;
  o.epoch_ttl_ms = options.dentry_epoch_ttl_ms;
  return o;
}

}  // namespace

CfsEngine::CfsEngine(Cfs* fs, NodeId self)
    : fs_(fs),
      self_(self),
      ts_cache_(fs->net(), self, fs->tafdb()->ts_oracle(), 512),
      id_cache_(fs->net(), self, fs->tafdb()->id_allocator(), 128),
      // Sim-aware clock: dentry TTLs expire in virtual time during a
      // simulated run (a wall-clock TTL would expire nondeterministically
      // mid-run and change RPC counts), wall time otherwise.
      cache_(CacheOptionsFrom(fs->options()), simtime::SimAwareClock::Get()) {
  fs_->RegisterEngine(this);
}

CfsEngine::~CfsEngine() { fs_->UnregisterEngine(this); }

uint64_t CfsEngine::NowTs() { return ts_cache_.Next(); }
InodeId CfsEngine::AllocId() { return id_cache_.Next(); }

TxnId CfsEngine::NextTxn() {
  return (static_cast<TxnId>(self_) << 32) | txn_seq_.fetch_add(1);
}

// ---------------------------------------------------------------------------
// Dentry cache

DentryCache::LookupResult CfsEngine::CacheLookup(const std::string& path,
                                                 InodeId parent) {
  TraceSpan span(Phase::kResolveCached);
  // On kNeedsValidation (the epoch view aged past dentry_epoch_ttl_ms, or
  // the TTL is <= 0 and every hit revalidates) the cache refreshes the
  // view with one cheap shard read and retries, trusting the just-fetched
  // view; an unreachable shard degrades to a miss. The cache records one
  // terminal hit/miss outcome per call.
  return cache_.LookupValidated(
      path, parent, [&](uint64_t since, DirChanges* changes) {
        TafDbShard* shard = fs_->tafdb()->ShardFor(parent);
        bool fetched = false;
        (void)fs_->net()->Call(self_, shard->ServiceNetId(), [&]() -> Status {
          *changes = shard->DirChangesSince(parent, since);
          fetched = true;
          return Status::Ok();
        });
        return fetched;
      });
}

void CfsEngine::CachePut(const std::string& path, InodeId parent, InodeId id,
                         InodeType type, uint64_t epoch) {
  cache_.PutPositive(path, parent, id, type, epoch);
}

void CfsEngine::CacheNegative(const std::string& path, InodeId parent,
                              uint64_t epoch) {
  cache_.PutNegative(path, parent, epoch);
}

void CfsEngine::CacheErase(const std::string& path) { cache_.Erase(path); }

void CfsEngine::InvalidateCache(const std::string& path) {
  cache_.ErasePrefix(path);
}

void CfsEngine::ApplyInvalidation(const CacheInvalidation& inv) {
  trace::Instant(trace::Category::kCache, "invalidate");
  // The rename's step A and step B each bumped one parent once, naming only
  // the moved path's final component there. Without a path the slice
  // cannot name a cached entry, so it falls back to a full invalidation.
  auto observe = [&](InodeId dir, uint64_t epoch, const std::string& path) {
    if (dir == kInvalidInode) return;
    DirChanges changes;
    changes.since = epoch - 1;
    changes.epoch = epoch;
    auto split = SplitParent(path);
    changes.covered = split.ok();
    if (!split.ok()) {
      cache_.ObserveDirChanges(dir, std::string(), changes);
      return;
    }
    changes.names.push_back(split->second);
    cache_.ObserveDirChanges(dir, split->first, changes);
  };
  observe(inv.src_parent, inv.src_parent_epoch, inv.src_path);
  observe(inv.dst_parent, inv.dst_parent_epoch, inv.dst_path);
  if (inv.subtree) {
    // A moved directory takes its cached descendants with it.
    if (!inv.src_path.empty()) cache_.ErasePrefix(inv.src_path);
    if (!inv.dst_path.empty()) cache_.ErasePrefix(inv.dst_path);
  }
}

// ---------------------------------------------------------------------------
// Resolution

StatusOr<InodeRecord> CfsEngine::ReadEntry(const Resolved& at,
                                           uint64_t* observed_epoch) {
  TafDbShard* shard = fs_->tafdb()->ShardFor(at.parent);
  uint64_t since = cache_.ObservedDirEpoch(at.parent);
  DirChanges changes;
  bool fetched = false;
  auto rec = fs_->net()->Call(self_, shard->ServiceNetId(), [&] {
    // Piggyback the parent's changes on the entry read (same shard, same
    // round trip). Changes before entry: the epoch tag can only be older
    // than the content, so a concurrent bump makes the fill conservatively
    // stale rather than wrongly fresh. Callers that fill the cache must
    // tag with `*observed_epoch` — NOT the view at fill time, which a
    // concurrent invalidation broadcast may have advanced past this read.
    changes = shard->DirChangesSince(at.parent, since);
    fetched = true;
    return shard->Get(InodeKey::IdRecord(at.parent, at.name));
  });
  if (fetched) cache_.ObserveDirChanges(at.parent, at.dir_path, changes);
  if (observed_epoch != nullptr) *observed_epoch = changes.epoch;
  return rec;
}

StatusOr<InodeRecord> CfsEngine::ReadTafAttr(InodeId id) {
  TafDbShard* shard = fs_->tafdb()->ShardFor(id);
  return fs_->net()->Call(self_, shard->ServiceNetId(), [&] {
    return shard->Get(InodeKey::AttrRecord(id));
  });
}

Status CfsEngine::LockPhaseCall(NodeId service,
                                const std::function<Status()>& fn) {
  TraceSpan span(Phase::kLockWait);
  return fs_->net()->Call(self_, service, fn);
}

void CfsEngine::UnlockRows(TafDbShard* shard, TxnId txn, InodeId dir,
                           const std::string& dir_path) {
  uint64_t since = dir == kInvalidInode ? 0 : cache_.ObservedDirEpoch(dir);
  DirChanges changes;
  Status st = LockPhaseCall(shard->ServiceNetId(), [&]() -> Status {
    if (dir != kInvalidInode) changes = shard->DirChangesSince(dir, since);
    shard->locks()->UnlockAll(txn);
    return Status::Ok();
  });
  if (st.ok() && dir != kInvalidInode) {
    cache_.ObserveDirChanges(dir, dir_path, changes);
  }
}

PrimitiveResult CfsEngine::ExecOnShard(InodeId kid, const PrimitiveOp& op) {
  TraceSpan span(Phase::kShardExec, "exec_on_shard");
  TafDbShard* shard = fs_->tafdb()->ShardFor(kid);
  return fs_->net()->Call(self_, shard->ServiceNetId(), [&] {
    trace::ScopedSpan exec(trace::Category::kExec, "primitive");
    return shard->ExecutePrimitive(op);
  });
}

PrimitiveResult CfsEngine::ExecDirChange(InodeId dir,
                                         const std::string& dir_path,
                                         PrimitiveOp op) {
  op.epoch_dir = dir;
  op.epoch_since = cache_.ObservedDirEpoch(dir);
  PrimitiveResult result = ExecOnShard(dir, op);
  if (result.status.ok()) {
    cache_.ObserveDirChanges(dir, dir_path, result.changes);
  }
  return result;
}

StatusOr<InodeId> CfsEngine::ResolveDirId(const std::string& path,
                                          std::vector<InodeId>* chain) {
  const size_t chain_mark = chain != nullptr ? chain->size() : 0;
  auto resolved = Resolve(path, /*bypass_final_cache=*/false, chain);
  if (resolved.ok() && resolved->type != InodeType::kDirectory) {
    // The cached dentry may be a stale earlier generation of this name
    // (e.g. a file later replaced by a directory): revalidate before
    // surfacing ENOTDIR.
    if (chain != nullptr) chain->resize(chain_mark);
    resolved = Resolve(path, /*bypass_final_cache=*/true, chain);
  }
  if (!resolved.ok()) return resolved.status();
  if (resolved->type != InodeType::kDirectory) {
    return Status::NotADirectory(path);
  }
  return resolved->id;
}

StatusOr<CfsEngine::Resolved> CfsEngine::ResolveParent(
    const std::string& path, std::vector<InodeId>* chain) {
  TraceSpan span(Phase::kResolve);
  auto split = SplitParent(path);
  if (!split.ok()) return split.status();
  auto& [parent_path, name] = *split;
  auto parent_id = ResolveDirId(parent_path, chain);
  if (!parent_id.ok()) return parent_id.status();
  Resolved out;
  out.parent = *parent_id;
  out.name = name;
  out.path = JoinPath(parent_path, name);
  out.dir_path = std::move(parent_path);
  return out;
}

StatusOr<CfsEngine::Resolved> CfsEngine::Resolve(
    const std::string& path, bool bypass_final_cache,
    std::vector<InodeId>* chain) {
  // The same-phase guard makes the outermost frame of the ResolveParent /
  // ResolveDirId / Resolve recursion own the whole resolution time.
  TraceSpan span(Phase::kResolve);
  if (path == "/") {
    Resolved root;
    root.path = "/";
    root.id = kRootInode;
    root.type = InodeType::kDirectory;
    return root;
  }
  auto parent = ResolveParent(path, chain);
  if (!parent.ok()) return parent.status();
  Resolved out = std::move(parent).value();
  if (!bypass_final_cache) {
    DentryCache::LookupResult hit = CacheLookup(out.path, out.parent);
    if (hit.outcome == DentryCache::Outcome::kHit) {
      out.id = hit.id;
      out.type = hit.type;
      if (chain != nullptr) chain->push_back(out.id);
      return out;
    }
    if (hit.outcome == DentryCache::Outcome::kNegativeHit) {
      return Status::NotFound(path);
    }
  }
  uint64_t entry_epoch = 0;
  auto entry = ReadEntry(out, &entry_epoch);
  if (!entry.ok()) {
    // Tag the negative entry with the epoch read alongside the ENOENT: a
    // cached miss until the TTL runs out or the name is journaled.
    if (entry.status().IsNotFound()) {
      CacheNegative(out.path, out.parent, entry_epoch);
    }
    return entry.status();
  }
  out.id = entry->id;
  out.type = entry->type;
  CachePut(out.path, out.parent, out.id, out.type, entry_epoch);
  if (chain != nullptr) chain->push_back(out.id);
  return out;
}

// ---------------------------------------------------------------------------
// Attribute placement

StatusOr<InodeRecord> CfsEngine::FetchAttr(InodeId id, InodeType type) {
  TraceSpan span(Phase::kShardExec);
  if (type != InodeType::kDirectory && fs_->options().tiered_attrs) {
    FileStoreNode* node = fs_->filestore()->NodeFor(id);
    return fs_->net()->Call(self_, node->ServiceNetId(),
                            [&] { return node->GetAttr(id); });
  }
  return ReadTafAttr(id);
}

Status CfsEngine::PlaceFileAttr(const InodeRecord& attr) {
  TraceSpan span(Phase::kShardExec);
  if (fs_->options().tiered_attrs) {
    FileStoreNode* node = fs_->filestore()->NodeFor(attr.id);
    // Piggyback the first (empty) data block on the attribute creation.
    return fs_->net()->Call(self_, node->ServiceNetId(),
                            [&] { return node->PutAttr(attr, ""); });
  }
  PrimitiveOp op;
  op.puts.push_back(attr);
  return ExecOnShard(attr.id, op).status;
}

void CfsEngine::DeleteFileAttrAsync(InodeId id) {
  if (fs_->options().tiered_attrs) {
    // Hard-link-safe: drop one reference; FileStore reclaims the record and
    // blocks atomically when the last link goes.
    fs_->filestore()->UnrefAsync(id);
    return;
  }
  // Non-tiered: read-check-retire the TafDB attribute record. The
  // read/delete window is benign: deletion-side ordering (Fig 7) already
  // removed the dentry, so the record is externally invisible.
  auto rec = ReadTafAttr(id);
  if (!rec.ok()) return;
  PrimitiveOp op;
  if (rec->links > 1) {
    UpdateSpec dec;
    dec.key = InodeKey::AttrRecord(id);
    dec.links_delta = -1;
    op.updates.push_back(dec);
  } else {
    DeleteSpec del;
    del.key = InodeKey::AttrRecord(id);
    del.ifexist = true;
    op.deletes.push_back(del);
  }
  (void)ExecOnShard(id, op);
}

// ---------------------------------------------------------------------------
// Lock-based commit machinery (non-primitive configurations)

Status CfsEngine::CommitWriteSets(std::map<size_t, PrimitiveOp> ops,
                                  TxnId txn) {
  TraceSpan span(Phase::kShardExec);
  if (ops.empty()) return Status::Ok();
  if (ops.size() == 1) {
    TafDbShard* shard = fs_->tafdb()->shard(ops.begin()->first);
    return fs_->net()->Call(self_, shard->ServiceNetId(), [&] {
      return shard->CommitLocal(ops.begin()->second).status;
    });
  }
  std::vector<TxnParticipant*> participants;
  for (auto& [index, op] : ops) {
    TafDbShard* shard = fs_->tafdb()->shard(index);
    Status st = fs_->net()->Call(self_, shard->ServiceNetId(),
                                 [&] { return shard->Stage(txn, op); });
    if (!st.ok()) return st;
    participants.push_back(shard);
  }
  TwoPhaseCommit tpc(fs_->net());
  return tpc.Run(self_, participants, txn);
}

// ---------------------------------------------------------------------------
// create / symlink

Status CfsEngine::CreateCommon(const std::string& path, uint32_t mode,
                               InodeType type,
                               const std::string& symlink_target) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.status();
  // Capture the parent's epoch view BEFORE issuing the mutation: the fill
  // below must be tagged with a view no newer than the data it caches (a
  // broadcast landing mid-operation may both erase this path and advance
  // the view; tagging with the advanced view would resurrect it as fresh).
  uint64_t parent_epoch = cache_.ObservedDirEpoch(parent->parent);
  uint64_t ts = NowTs();
  InodeId id = AllocId();

  InodeRecord attr = InodeRecord::MakeFileAttr(id, ts, mode, 0, 0);
  attr.type = type;
  if (type == InodeType::kSymlink) {
    attr.symlink_target = symlink_target;
    attr.Set(InodeRecord::kFieldSymlink);
  }

  InodeRecord entry = InodeRecord::MakeIdRecord(parent->parent, parent->name,
                                                id, type);
  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(parent->parent);
  bump.children_delta = 1;
  bump.lww.mtime = ts;

  if (fs_->options().primitives) {
    // Figure 7/8a ordering: leaf attribute first, namespace link last.
    CFS_RETURN_IF_ERROR(PlaceFileAttr(attr));
    auto op = PrimitiveOp::InsertWithUpdate(entry, ParentIsDir(parent->parent),
                                            bump);
    PrimitiveResult result = ExecOnShard(parent->parent, op);
    if (!result.status.ok()) {
      // The attribute record is now an orphan; the GC's pairing analysis
      // will reclaim it (§4.4).
      if (result.status.IsNotFound()) CacheErase(parent->path);
      return result.status;
    }
    CachePut(parent->path, parent->parent, id, type, parent_epoch);
    return Status::Ok();
  }

  // Conventional path: row locks held across reads, attribute placement,
  // and the (possibly distributed) commit.
  TafDbShard* shard_p = fs_->tafdb()->ShardFor(parent->parent);
  TxnId txn = NextTxn();
  std::string attr_key = InodeKey::AttrRecord(parent->parent).Encode();
  std::string entry_key =
      InodeKey::IdRecord(parent->parent, parent->name).Encode();
  Status lock_st = LockPhaseCall(shard_p->ServiceNetId(), [&] {
    return shard_p->locks()->LockAll(txn, {attr_key, entry_key},
                                     LockMode::kExclusive, kLockTimeoutUs);
  });
  if (!lock_st.ok()) return lock_st;
  auto unlock = [&] { UnlockRows(shard_p, txn); };

  auto parent_attr = ReadTafAttr(parent->parent);
  if (!parent_attr.ok()) {
    unlock();
    return parent_attr.status();
  }
  if (parent_attr->type != InodeType::kDirectory) {
    unlock();
    return Status::NotADirectory(path);
  }
  auto existing = ReadEntry(*parent);
  if (existing.ok()) {
    unlock();
    return Status::AlreadyExists(path);
  }

  std::map<size_t, PrimitiveOp> ops;
  PrimitiveOp& nsop = ops[fs_->tafdb()->ShardIndexFor(parent->parent)];
  nsop.puts.push_back(entry);
  nsop.updates.push_back(bump);

  Status commit_st;
  if (fs_->options().tiered_attrs) {
    // "+new-org" without primitives: the attribute write joins the txn as a
    // FileStore 2PC participant (no deterministic-order trick yet). The
    // span closes before unlock() so lock and exec phases stay disjoint.
    TraceSpan exec_span(Phase::kShardExec);
    commit_st = [&]() -> Status {
      FileStoreNode* node = fs_->filestore()->NodeFor(id);
      FileStoreCommand put;
      put.kind = FileStoreCommand::Kind::kPutAttr;
      put.id = id;
      put.attr = attr;
      Status st = fs_->net()->Call(self_, node->ServiceNetId(),
                                   [&] { return node->Stage(txn, put); });
      if (!st.ok()) return st;
      st = fs_->net()->Call(self_, shard_p->ServiceNetId(), [&] {
        return shard_p->Stage(txn, nsop);
      });
      if (!st.ok()) return st;
      TwoPhaseCommit tpc(fs_->net());
      return tpc.Run(self_, {shard_p, node}, txn);
    }();
  } else {
    ops[fs_->tafdb()->ShardIndexFor(id)].puts.push_back(attr);
    commit_st = CommitWriteSets(std::move(ops), txn);
  }
  unlock();
  if (commit_st.ok()) {
    CachePut(parent->path, parent->parent, id, type, parent_epoch);
  }
  return commit_st;
}

Status CfsEngine::Create(const std::string& path, uint32_t mode) {
  return CreateCommon(path, mode, InodeType::kFile, "");
}

Status CfsEngine::Symlink(const std::string& target,
                          const std::string& link_path) {
  return CreateCommon(link_path, 0777, InodeType::kSymlink, target);
}

// ---------------------------------------------------------------------------
// mkdir / rmdir

Status CfsEngine::Mkdir(const std::string& path, uint32_t mode) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.status();
  // Pre-mutation view capture; see CreateCommon for why the fill must not
  // use a view refreshed after the mutation started.
  uint64_t parent_epoch = cache_.ObservedDirEpoch(parent->parent);
  uint64_t ts = NowTs();
  InodeId id = AllocId();

  InodeRecord dir_attr =
      InodeRecord::MakeDirAttr(id, ts, mode, 0, 0, parent->parent);
  InodeRecord entry = InodeRecord::MakeIdRecord(parent->parent, parent->name,
                                                id, InodeType::kDirectory);
  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(parent->parent);
  bump.children_delta = 1;
  bump.links_delta = 1;  // subdirectory's ".." link
  bump.lww.mtime = ts;

  if (fs_->options().primitives) {
    // Step 1: the new directory's attribute record (benign orphan on
    // crash). Step 2: link into the parent atomically.
    PrimitiveOp attr_op;
    attr_op.inserts.push_back(dir_attr);
    PrimitiveResult r1 = ExecOnShard(id, attr_op);
    if (!r1.status.ok()) return r1.status;

    auto op = PrimitiveOp::InsertWithUpdate(entry, ParentIsDir(parent->parent),
                                            bump);
    PrimitiveResult r2 = ExecOnShard(parent->parent, op);
    if (!r2.status.ok()) {
      if (r2.status.IsNotFound()) CacheErase(parent->path);
      return r2.status;
    }
    CachePut(parent->path, parent->parent, id, InodeType::kDirectory,
             parent_epoch);
    return Status::Ok();
  }

  // Conventional path: cross-shard 2PC (the mkdir cost the paper calls out
  // for HopsFS, InfiniFS, and CFS-base alike).
  TafDbShard* shard_p = fs_->tafdb()->ShardFor(parent->parent);
  TxnId txn = NextTxn();
  std::string attr_key = InodeKey::AttrRecord(parent->parent).Encode();
  std::string entry_key =
      InodeKey::IdRecord(parent->parent, parent->name).Encode();
  Status lock_st = LockPhaseCall(shard_p->ServiceNetId(), [&] {
    return shard_p->locks()->LockAll(txn, {attr_key, entry_key},
                                     LockMode::kExclusive, kLockTimeoutUs);
  });
  if (!lock_st.ok()) return lock_st;
  auto unlock = [&] { UnlockRows(shard_p, txn); };

  auto parent_attr = ReadTafAttr(parent->parent);
  if (!parent_attr.ok()) {
    unlock();
    return parent_attr.status();
  }
  if (parent_attr->type != InodeType::kDirectory) {
    unlock();
    return Status::NotADirectory(path);
  }
  if (ReadEntry(*parent).ok()) {
    unlock();
    return Status::AlreadyExists(path);
  }

  std::map<size_t, PrimitiveOp> ops;
  PrimitiveOp& nsop = ops[fs_->tafdb()->ShardIndexFor(parent->parent)];
  nsop.puts.push_back(entry);
  nsop.updates.push_back(bump);
  ops[fs_->tafdb()->ShardIndexFor(id)].puts.push_back(dir_attr);

  Status commit_st = CommitWriteSets(std::move(ops), txn);
  unlock();
  if (commit_st.ok()) {
    CachePut(parent->path, parent->parent, id, InodeType::kDirectory,
             parent_epoch);
  }
  return commit_st;
}

Status CfsEngine::Rmdir(const std::string& path) {
  auto resolved = Resolve(path);
  if (resolved.ok() && resolved->type != InodeType::kDirectory) {
    resolved = Resolve(path, /*bypass_final_cache=*/true);  // revalidate
  }
  if (!resolved.ok()) return resolved.status();
  if (resolved->type != InodeType::kDirectory) {
    return Status::NotADirectory(path);
  }
  if (resolved->id == kRootInode) {
    return Status::InvalidArgument("cannot remove /");
  }
  UpdateSpec dec;
  dec.key = InodeKey::AttrRecord(resolved->parent);
  dec.children_delta = -1;
  dec.links_delta = -1;
  dec.lww.mtime = NowTs();

  if (fs_->options().primitives) {
    // Step 1 (deletion-first order): atomically verify emptiness and retire
    // the attribute record; once gone, concurrent creates into this
    // directory fail their parent-exists check.
    PrimitiveOp retire;
    Predicate empty;
    empty.key = InodeKey::AttrRecord(resolved->id);
    empty.kind = Predicate::Kind::kChildrenZero;
    retire.checks.push_back(empty);
    DeleteSpec del_attr;
    del_attr.key = InodeKey::AttrRecord(resolved->id);
    retire.deletes.push_back(del_attr);
    PrimitiveResult r1 = ExecOnShard(resolved->id, retire);
    if (!r1.status.ok()) {
      if (r1.status.IsNotFound()) CacheErase(resolved->path);
      return r1.status;
    }

    // Step 2: unlink from the parent, guarded by the directory's id. A
    // crash here leaves a dangling dentry, repaired by on-demand GC when a
    // later getattr/readdir fails.
    DeleteSpec del_entry;
    del_entry.key = InodeKey::IdRecord(resolved->parent, resolved->name);
    del_entry.type_is = InodeType::kDirectory;
    del_entry.hint_id = resolved->id;
    del_entry.expect_attr_cleanup = true;
    PrimitiveResult r2 =
        ExecDirChange(resolved->parent, resolved->dir_path,
                      PrimitiveOp::DeleteWithUpdate(del_entry, dec));
    CacheErase(resolved->path);
    if (!r2.status.ok() && !r1.deleted_records.empty()) {
      // The dentry moved under us (a concurrent rename won): the directory
      // is alive somewhere else, so restore the exact attribute image step
      // 1 retired (compensation; re-creations into the directory were
      // impossible while the record was absent).
      PrimitiveOp restore;
      restore.puts.push_back(r1.deleted_records.front());
      (void)ExecOnShard(resolved->id, restore);
    }
    return r2.status;
  }

  // Conventional path: lock parent entry+attr and the directory's attr
  // (global shard-index order), read, validate emptiness, 2PC.
  TafDbShard* shard_p = fs_->tafdb()->ShardFor(resolved->parent);
  TafDbShard* shard_d = fs_->tafdb()->ShardFor(resolved->id);
  TxnId txn = NextTxn();
  size_t index_p = fs_->tafdb()->ShardIndexFor(resolved->parent);
  size_t index_d = fs_->tafdb()->ShardIndexFor(resolved->id);

  struct LockPlan {
    TafDbShard* shard;
    std::vector<std::string> keys;
    size_t index;
  };
  std::vector<LockPlan> plans;
  plans.push_back(
      {shard_p,
       {InodeKey::AttrRecord(resolved->parent).Encode(),
        InodeKey::IdRecord(resolved->parent, resolved->name).Encode()},
       index_p});
  if (index_d != index_p) {
    plans.push_back(
        {shard_d, {InodeKey::AttrRecord(resolved->id).Encode()}, index_d});
  } else {
    plans[0].keys.push_back(InodeKey::AttrRecord(resolved->id).Encode());
  }
  std::sort(plans.begin(), plans.end(),
            [](const LockPlan& a, const LockPlan& b) { return a.index < b.index; });
  std::vector<TafDbShard*> locked;
  auto unlock_all = [&] {
    for (TafDbShard* s : locked) UnlockRows(s, txn);
  };
  for (auto& plan : plans) {
    Status st = LockPhaseCall(plan.shard->ServiceNetId(), [&] {
      return plan.shard->locks()->LockAll(txn, plan.keys,
                                          LockMode::kExclusive,
                                          kLockTimeoutUs);
    });
    if (!st.ok()) {
      unlock_all();
      return st;
    }
    locked.push_back(plan.shard);
  }

  // Revalidate the dentry under the locks: a stale cached resolution may
  // name a directory that has since been renamed elsewhere; acting on it
  // would delete a live directory's attribute record.
  auto locked_entry = ReadEntry(*resolved);
  if (!locked_entry.ok() || locked_entry->id != resolved->id ||
      locked_entry->type != InodeType::kDirectory) {
    unlock_all();
    CacheErase(resolved->path);
    return locked_entry.ok() ? Status::NotFound(path)
                             : locked_entry.status();
  }
  auto dir_attr = ReadTafAttr(resolved->id);
  if (!dir_attr.ok()) {
    unlock_all();
    CacheErase(resolved->path);
    return dir_attr.status();
  }
  if (dir_attr->children != 0) {
    unlock_all();
    return Status::NotEmpty(path);
  }
  auto parent_attr = ReadTafAttr(resolved->parent);
  if (!parent_attr.ok()) {
    unlock_all();
    return parent_attr.status();
  }

  std::map<size_t, PrimitiveOp> ops;
  {
    PrimitiveOp& op = ops[index_p];
    DeleteSpec del;
    del.key = InodeKey::IdRecord(resolved->parent, resolved->name);
    del.hint_id = resolved->id;
    del.expect_attr_cleanup = true;
    op.deletes.push_back(del);
    op.epoch_dir = resolved->parent;
    op.updates.push_back(dec);
  }
  {
    PrimitiveOp& op = ops[index_d];
    DeleteSpec del;
    del.key = InodeKey::AttrRecord(resolved->id);
    op.deletes.push_back(del);
  }
  Status commit_st = CommitWriteSets(std::move(ops), txn);
  UnlockRows(shard_p, txn, resolved->parent, resolved->dir_path);
  if (shard_d != shard_p) UnlockRows(shard_d, txn);
  CacheErase(resolved->path);
  return commit_st;
}

// ---------------------------------------------------------------------------
// unlink

Status CfsEngine::Unlink(const std::string& path) {
  auto resolved = Resolve(path);
  if (resolved.ok() && resolved->type == InodeType::kDirectory) {
    resolved = Resolve(path, /*bypass_final_cache=*/true);  // revalidate
  }
  if (!resolved.ok()) return resolved.status();
  if (resolved->type == InodeType::kDirectory) {
    return Status::IsADirectory(path);
  }
  UpdateSpec dec;
  dec.key = InodeKey::AttrRecord(resolved->parent);
  dec.children_delta = -1;
  dec.lww.mtime = NowTs();

  if (fs_->options().primitives) {
    // Figure 8b: unlink the namespace first (atomic, checked), then remove
    // the attribute asynchronously — its latency is hidden (§5.2).
    DeleteSpec del;
    del.key = InodeKey::IdRecord(resolved->parent, resolved->name);
    del.forbid_directory = true;
    del.hint_id = resolved->id;
    del.expect_attr_cleanup = true;
    PrimitiveResult result =
        ExecDirChange(resolved->parent, resolved->dir_path,
                      PrimitiveOp::DeleteWithUpdate(del, dec));
    CacheErase(resolved->path);
    if (!result.status.ok()) return result.status;
    DeleteFileAttrAsync(resolved->id);
    return Status::Ok();
  }

  // Conventional path.
  TafDbShard* shard_p = fs_->tafdb()->ShardFor(resolved->parent);
  TxnId txn = NextTxn();
  std::string attr_key = InodeKey::AttrRecord(resolved->parent).Encode();
  std::string entry_key =
      InodeKey::IdRecord(resolved->parent, resolved->name).Encode();
  Status lock_st = LockPhaseCall(shard_p->ServiceNetId(), [&] {
    return shard_p->locks()->LockAll(txn, {attr_key, entry_key},
                                     LockMode::kExclusive, kLockTimeoutUs);
  });
  if (!lock_st.ok()) return lock_st;
  auto unlock = [&] { UnlockRows(shard_p, txn); };

  auto entry = ReadEntry(*resolved);
  if (!entry.ok()) {
    unlock();
    CacheErase(resolved->path);
    return entry.status();
  }
  if (entry->type == InodeType::kDirectory) {
    unlock();
    return Status::IsADirectory(path);
  }
  auto parent_attr = ReadTafAttr(resolved->parent);
  if (!parent_attr.ok()) {
    unlock();
    return parent_attr.status();
  }

  std::map<size_t, PrimitiveOp> ops;
  PrimitiveOp& nsop = ops[fs_->tafdb()->ShardIndexFor(resolved->parent)];
  DeleteSpec del;
  del.key = InodeKey::IdRecord(resolved->parent, resolved->name);
  del.hint_id = entry->id;
  del.expect_attr_cleanup = true;
  nsop.deletes.push_back(del);
  nsop.epoch_dir = resolved->parent;
  nsop.updates.push_back(dec);

  Status commit_st;
  if (fs_->options().tiered_attrs) {
    FileStoreNode* node = fs_->filestore()->NodeFor(entry->id);
    FileStoreCommand del_cmd;
    del_cmd.kind = FileStoreCommand::Kind::kDeleteFile;
    del_cmd.id = entry->id;
    Status st = fs_->net()->Call(self_, node->ServiceNetId(),
                                 [&] { return node->Stage(txn, del_cmd); });
    if (!st.ok()) {
      unlock();
      return st;
    }
    st = fs_->net()->Call(self_, shard_p->ServiceNetId(),
                          [&] { return shard_p->Stage(txn, nsop); });
    if (!st.ok()) {
      unlock();
      return st;
    }
    TwoPhaseCommit tpc(fs_->net());
    commit_st = tpc.Run(self_, {shard_p, node}, txn);
  } else {
    DeleteSpec del_attr;
    del_attr.key = InodeKey::AttrRecord(entry->id);
    del_attr.ifexist = true;
    ops[fs_->tafdb()->ShardIndexFor(entry->id)].deletes.push_back(del_attr);
    commit_st = CommitWriteSets(std::move(ops), txn);
  }
  UnlockRows(shard_p, txn, resolved->parent, resolved->dir_path);
  CacheErase(resolved->path);
  return commit_st;
}

// ---------------------------------------------------------------------------
// reads

StatusOr<FileInfo> CfsEngine::Lookup(const std::string& path) {
  if (path == "/") {
    auto attr = ReadTafAttr(kRootInode);
    if (!attr.ok()) return attr.status();
    return FileInfo::FromRecord(*attr);
  }
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.status();
  uint64_t entry_epoch = 0;
  auto entry = ReadEntry(*parent, &entry_epoch);
  if (!entry.ok()) {
    if (entry.status().IsNotFound()) {
      CacheNegative(parent->path, parent->parent, entry_epoch);
    }
    return entry.status();
  }
  CachePut(parent->path, parent->parent, entry->id, entry->type, entry_epoch);
  FileInfo info;
  info.id = entry->id;
  info.type = entry->type;
  return info;
}

StatusOr<FileInfo> CfsEngine::GetAttr(const std::string& path) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  auto attr = FetchAttr(resolved->id, resolved->type);
  if (!attr.ok()) {
    if (attr.status().IsNotFound()) {
      // Possibly a dangling dentry from a crashed rmdir/unlink: hand it to
      // the GC's on-demand path (§4.4) and re-resolve once.
      CacheErase(resolved->path);
      if (resolved->parent != kInvalidInode) {
        fs_->gc()->ReportDangling(resolved->parent, resolved->name,
                                  resolved->id);
      }
    }
    return attr.status();
  }
  return FileInfo::FromRecord(*attr);
}

Status CfsEngine::SetAttr(const std::string& path, const SetAttrSpec& spec) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  uint64_t ts = NowTs();
  UpdateSpec update;
  update.key = InodeKey::AttrRecord(resolved->id);
  update.lww.mode = spec.mode;
  update.lww.uid = spec.uid;
  update.lww.gid = spec.gid;
  update.lww.mtime = spec.mtime;
  update.lww.size = spec.size;
  update.lww.ctime = ts;

  if (resolved->type != InodeType::kDirectory && fs_->options().tiered_attrs) {
    FileStoreNode* node = fs_->filestore()->NodeFor(resolved->id);
    return fs_->net()->Call(self_, node->ServiceNetId(),
                            [&] { return node->SetAttr(resolved->id, update); });
  }
  // Directory attributes are cached context for resolves under it: the
  // update bumps the directory's epoch, naming no dentry, so every engine
  // revalidates everything cached under it.
  InodeId epoch_dir =
      resolved->type == InodeType::kDirectory ? resolved->id : kInvalidInode;
  if (fs_->options().primitives) {
    PrimitiveOp op;
    op.updates.push_back(update);
    if (epoch_dir != kInvalidInode) {
      return ExecDirChange(epoch_dir, resolved->path, op).status;
    }
    return ExecOnShard(resolved->id, op).status;
  }

  // Conventional path: lock, read, commit the update spec.
  TafDbShard* shard = fs_->tafdb()->ShardFor(resolved->id);
  TxnId txn = NextTxn();
  std::string attr_key = InodeKey::AttrRecord(resolved->id).Encode();
  Status lock_st = LockPhaseCall(shard->ServiceNetId(), [&] {
    return shard->locks()->Lock(txn, attr_key, LockMode::kExclusive,
                                kLockTimeoutUs);
  });
  if (!lock_st.ok()) return lock_st;
  auto attr = ReadTafAttr(resolved->id);
  Status commit_st = attr.status();
  if (attr.ok()) {
    PrimitiveOp op;
    op.updates.push_back(update);
    op.epoch_dir = epoch_dir;
    commit_st = fs_->net()->Call(self_, shard->ServiceNetId(), [&] {
      return shard->CommitLocal(op).status;
    });
  }
  UnlockRows(shard, txn, epoch_dir, resolved->path);
  return commit_st;
}

StatusOr<std::vector<DirEntry>> CfsEngine::ReadDir(const std::string& path) {
  auto dir_id = ResolveDirId(path);
  if (!dir_id.ok()) return dir_id.status();
  TafDbShard* shard = fs_->tafdb()->ShardFor(*dir_id);
  std::vector<DirEntry> out;
  std::string after;
  constexpr size_t kPage = 1024;
  for (;;) {
    auto page = fs_->net()->Call(self_, shard->ServiceNetId(), [&] {
      return shard->ScanDir(*dir_id, after, kPage);
    });
    if (!page.ok()) return page.status();
    for (const auto& rec : *page) {
      out.push_back(DirEntry{rec.key.kstr, rec.id, rec.type});
    }
    if (page->size() < kPage) break;
    after = page->back().key.kstr;
  }
  return out;
}

// ---------------------------------------------------------------------------
// rename / link

Status CfsEngine::Rename(const std::string& from, const std::string& to) {
  auto src = Resolve(from);
  if (!src.ok()) return src.status();
  bool is_file = src->type != InodeType::kDirectory;
  // A directory move hands the Renamer the destination's ancestor ids, so
  // its loop check needs no backpointer walk.
  std::vector<InodeId> dst_chain;
  auto dst_parent = ResolveParent(to, is_file ? nullptr : &dst_chain);
  if (!dst_parent.ok()) return dst_parent.status();
  if (src->path == dst_parent->path) return Status::Ok();

  bool intra_dir = src->parent == dst_parent->parent;

  if (fs_->options().primitives && intra_dir && is_file) {
    // Fast path (§4.3, Figure 8c): one single-shard primitive and nothing
    // else; the client's cached lookups identified the case.
    uint64_t ts = NowTs();
    InodeRecord moved = InodeRecord::MakeIdRecord(
        dst_parent->parent, dst_parent->name, src->id, src->type);
    DeleteSpec del_a;
    del_a.key = InodeKey::IdRecord(src->parent, src->name);
    del_a.forbid_directory = true;
    del_a.hint_id = src->id;
    // Replaces whatever non-directory sits at `to`, inside the primitive:
    // the deleted record names the inode to unref, so no pre-read is needed.
    DeleteSpec del_b;
    del_b.key = InodeKey::IdRecord(dst_parent->parent, dst_parent->name);
    del_b.ifexist = true;
    del_b.forbid_directory = true;
    UpdateSpec upd;
    upd.key = InodeKey::AttrRecord(dst_parent->parent);
    upd.children_delta_auto = true;
    upd.lww.mtime = ts;
    PrimitiveResult result = ExecDirChange(
        src->parent, src->dir_path,
        PrimitiveOp::InsertAndDeleteWithUpdate(moved, {del_a, del_b}, upd, {}));
    CacheErase(src->path);
    if (!result.status.ok()) {
      CacheErase(dst_parent->path);
      return result.status;
    }
    CachePut(dst_parent->path, src->parent, src->id, src->type,
             result.changes.epoch);
    if (result.deleted_records.size() == 2) {
      DeleteFileAttrAsync(result.deleted_records[1].id);
    }
    return Status::Ok();
  }

  // Normal path: one RPC to the Renamer coordinator, which locks,
  // validates (orphan loops), and commits.
  RenameRequest req;
  req.src_parent = src->parent;
  req.src_name = src->name;
  req.dst_parent = dst_parent->parent;
  req.dst_name = dst_parent->name;
  req.src_path = src->path;
  req.dst_path = dst_parent->path;
  req.dst_chain = std::move(dst_chain);
  Renamer* renamer = fs_->renamer();
  auto committed = fs_->net()->Call(self_, renamer->CoordinatorNetId(),
                                    [&] { return renamer->Rename(req); });
  // The Renamer's post-commit broadcast already invalidated every engine
  // (including this one, subtree-wide for directory moves); these local
  // erases only cover the failure paths where no broadcast was sent.
  CacheErase(src->path);
  if (!committed.ok()) {
    CacheErase(dst_parent->path);
    return committed.status();
  }
  // Like the fast path: cache the moved entry under step B's epoch.
  if (committed->moved != kInvalidInode) {
    CachePut(dst_parent->path, dst_parent->parent, committed->moved,
             committed->moved_type, committed->dst_parent_epoch);
  }
  return Status::Ok();
}

Status CfsEngine::Link(const std::string& existing,
                       const std::string& link_path) {
  auto src = Resolve(existing);
  if (!src.ok()) return src.status();
  if (src->type == InodeType::kDirectory) {
    return Status::PermissionDenied("hard link to directory");
  }
  auto parent = ResolveParent(link_path);
  if (!parent.ok()) return parent.status();
  // Pre-mutation view capture; see CreateCommon.
  uint64_t parent_epoch = cache_.ObservedDirEpoch(parent->parent);
  uint64_t ts = NowTs();

  // Bump the link count on the attribute first (orphan-tolerant order),
  // then insert the new dentry with parent update.
  UpdateSpec bump_links;
  bump_links.key = InodeKey::AttrRecord(src->id);
  bump_links.links_delta = 1;
  bump_links.lww.ctime = ts;
  if (fs_->options().tiered_attrs) {
    FileStoreNode* node = fs_->filestore()->NodeFor(src->id);
    Status st = fs_->net()->Call(self_, node->ServiceNetId(), [&] {
      return node->SetAttr(src->id, bump_links);
    });
    if (!st.ok()) return st;
  } else {
    PrimitiveOp op;
    op.updates.push_back(bump_links);
    Status st = ExecOnShard(src->id, op).status;
    if (!st.ok()) return st;
  }

  InodeRecord entry = InodeRecord::MakeIdRecord(parent->parent, parent->name,
                                                src->id, src->type);
  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(parent->parent);
  bump.children_delta = 1;
  bump.lww.mtime = ts;
  auto op =
      PrimitiveOp::InsertWithUpdate(entry, ParentIsDir(parent->parent), bump);
  PrimitiveResult result = ExecOnShard(parent->parent, op);
  if (!result.status.ok()) {
    // Roll the link count back (compensating delta; commutative).
    UpdateSpec unbump = bump_links;
    unbump.links_delta = -1;
    unbump.lww = LwwAssign{};
    if (fs_->options().tiered_attrs) {
      FileStoreNode* node = fs_->filestore()->NodeFor(src->id);
      (void)fs_->net()->Call(self_, node->ServiceNetId(), [&] {
        return node->SetAttr(src->id, unbump);
      });
    } else {
      PrimitiveOp rollback;
      rollback.updates.push_back(unbump);
      (void)ExecOnShard(src->id, rollback);
    }
    return result.status;
  }
  CachePut(parent->path, parent->parent, src->id, src->type, parent_epoch);
  return Status::Ok();
}

StatusOr<std::string> CfsEngine::ReadLink(const std::string& path) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  if (resolved->type != InodeType::kSymlink) {
    return Status::InvalidArgument("not a symlink: " + path);
  }
  auto attr = FetchAttr(resolved->id, resolved->type);
  if (!attr.ok()) return attr.status();
  return attr->symlink_target;
}

// ---------------------------------------------------------------------------
// data plane

Status CfsEngine::Write(const std::string& path, uint64_t offset,
                        const std::string& data) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  if (resolved->type == InodeType::kDirectory) {
    return Status::IsADirectory(path);
  }
  uint64_t ts = NowTs();
  size_t block_size = fs_->filestore()->block_size();
  FileStoreNode* node = fs_->filestore()->NodeFor(resolved->id);
  Status st = fs_->net()->Call(self_, node->ServiceNetId(), [&] {
    return node->WriteBlock(resolved->id, offset / block_size, data, ts);
  });
  if (!st.ok()) return st;
  if (!fs_->options().tiered_attrs) {
    // Attribute record lives in TafDB: merge the size/mtime there too.
    UpdateSpec update;
    update.key = InodeKey::AttrRecord(resolved->id);
    update.size_delta = static_cast<int64_t>(data.size());
    update.lww.mtime = ts;
    PrimitiveOp op;
    op.updates.push_back(update);
    return ExecOnShard(resolved->id, op).status;
  }
  return Status::Ok();
}

StatusOr<std::string> CfsEngine::Read(const std::string& path, uint64_t offset,
                                      size_t length) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  if (resolved->type == InodeType::kDirectory) {
    return Status::IsADirectory(path);
  }
  size_t block_size = fs_->filestore()->block_size();
  FileStoreNode* node = fs_->filestore()->NodeFor(resolved->id);
  auto block = fs_->net()->Call(self_, node->ServiceNetId(), [&] {
    return node->ReadBlock(resolved->id, offset / block_size);
  });
  if (!block.ok()) return block.status();
  size_t start = offset % block_size;
  if (start >= block->size()) return std::string();
  return block->substr(start, length);
}

}  // namespace cfs
