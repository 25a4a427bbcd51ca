#include "src/renamer/renamer.h"

#include <algorithm>
#include <map>
#include <optional>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/race_detector.h"
#include "src/common/trace_event.h"

namespace cfs {
namespace {

// A trivial state machine: the Renamer's raft group exists only to elect a
// stable coordinator (all rename state is transient coordination state).
class NoopSm : public StateMachine {
 public:
  std::string Apply(LogIndex, std::string_view) override { return ""; }
};

std::string EntryLockKey(InodeId parent, const std::string& name) {
  return "e:" + std::to_string(parent) + "/" + name;
}

std::string DirLockKey(InodeId dir) { return "d:" + std::to_string(dir); }

// Whether `chain` is dst_parent's current ancestor chain, judged by the
// attribute records `attrs` read for it: each is a directory whose parent
// backpointer is the previous id (the root, for the first), and the last
// id is dst_parent itself.
bool ChainVerified(InodeId dst_parent, const std::vector<InodeId>& chain,
                   const StatusOr<InodeRecord>* attrs) {
  if (chain.empty()) return dst_parent == kRootInode;
  if (chain.back() != dst_parent) return false;
  InodeId parent = kRootInode;
  for (size_t i = 0; i < chain.size(); i++) {
    const StatusOr<InodeRecord>& attr = attrs[i];
    if (!attr.ok() || attr->type != InodeType::kDirectory ||
        attr->parent != parent) {
      return false;
    }
    parent = chain[i];
  }
  return true;
}

}  // namespace

Renamer::Renamer(SimNet* net, std::vector<uint32_t> servers,
                 TafDbCluster* tafdb, FileStoreCluster* filestore,
                 RenamerOptions options)
    : net_(net),
      tafdb_(tafdb),
      filestore_(filestore),
      options_(std::move(options)),
      group_(std::make_unique<RaftGroup>(
          net_, "renamer", std::move(servers),
          [](ReplicaId) { return std::make_unique<NoopSm>(); },
          options_.raft)),
      ts_cache_(net_, group_->replica(0)->net_id(), tafdb_->ts_oracle(), 512) {}

Status Renamer::Start() {
  CFS_RETURN_IF_ERROR(group_->Start());
  auto leader = group_->WaitForLeader();
  if (!leader.ok()) return leader.status();
  return Status::Ok();
}

void Renamer::Stop() { group_->Stop(); }

NodeId Renamer::CoordinatorNetId() const {
  RaftNode* leader = group_->Leader();
  return leader != nullptr ? leader->net_id() : group_->replica(0)->net_id();
}

StatusOr<bool> Renamer::IsAncestorOf(InodeId candidate, InodeId node) {
  // Walk parent backpointers from `node` toward the root; bounded to break
  // cycles created by corruption rather than looping forever.
  NodeId self = CoordinatorNetId();
  InodeId walk = node;
  for (int depth = 0; depth < 4096 && walk != kInvalidInode &&
                      walk != kRootInode;
       depth++) {
    if (walk == candidate) return true;
    TafDbShard* shard = tafdb_->ShardFor(walk);
    auto attr = net_->Call(self, shard->ServiceNetId(), [&] {
      return shard->Get(InodeKey::AttrRecord(walk));
    });
    if (!attr.ok()) return attr.status();
    walk = attr->parent;
  }
  return walk == candidate;
}

StatusOr<CacheInvalidation> Renamer::Rename(const RenameRequest& req) {
  if (req.src_parent == req.dst_parent && req.src_name == req.dst_name) {
    return CacheInvalidation{};  // rename to itself is a no-op
  }
  // The whole normal-path coordination (locks, loop check, 2PC) counts as
  // the renamer phase of the calling op's trace.
  TraceSpan span(Phase::kRenamer);
  static Counter* const renames =
      MetricsRegistry::Global().GetCounter("renamer.renames");
  renames->Add();
  NodeId self = CoordinatorNetId();
  TxnId txn = next_txn_.fetch_add(1);
  uint64_t ts = ts_cache_.Next();

  // 1. Coordinator-local locks over entries and parents, canonically
  //    ordered (LockAll sorts) — every normal-path rename is serialized
  //    through this one coordinator, so local locks suffice (§4.3).
  std::vector<std::string> lock_keys = {
      EntryLockKey(req.src_parent, req.src_name),
      EntryLockKey(req.dst_parent, req.dst_name),
      DirLockKey(req.src_parent),
      DirLockKey(req.dst_parent),
  };
  CFS_RETURN_IF_ERROR(
      locks_.LockAll(txn, lock_keys, LockMode::kExclusive,
                     options_.lock_timeout_us));
  struct Unlocker {
    LockManager* locks;
    TxnId txn;
    ~Unlocker() { locks->UnlockAll(txn); }
  } unlocker{&locks_, txn};

  // 1b. In lock-based deployments, also take the shard row locks that
  // create/unlink/mkdir/rmdir/setattr hold, in global shard order.
  struct ShardLocks {
    std::vector<std::pair<TafDbShard*, TxnId>> held;
    SimNet* net = nullptr;
    NodeId self = kInvalidNode;
    ~ShardLocks() {
      for (auto& [shard, txn_id] : held) {
        (void)net->Call(self, shard->ServiceNetId(), [&]() -> Status {
          shard->locks()->UnlockAll(txn_id);
          return Status::Ok();
        });
      }
    }
  } shard_locks;
  shard_locks.net = net_;
  shard_locks.self = self;
  if (options_.use_shard_row_locks) {
    std::map<size_t, std::vector<std::string>> plan;
    plan[tafdb_->ShardIndexFor(req.src_parent)].push_back(
        InodeKey::IdRecord(req.src_parent, req.src_name).Encode());
    plan[tafdb_->ShardIndexFor(req.src_parent)].push_back(
        InodeKey::AttrRecord(req.src_parent).Encode());
    plan[tafdb_->ShardIndexFor(req.dst_parent)].push_back(
        InodeKey::IdRecord(req.dst_parent, req.dst_name).Encode());
    plan[tafdb_->ShardIndexFor(req.dst_parent)].push_back(
        InodeKey::AttrRecord(req.dst_parent).Encode());
    for (auto& [index, keys] : plan) {
      TafDbShard* shard = tafdb_->shard(index);
      Status st = net_->Call(self, shard->ServiceNetId(), [&] {
        return shard->locks()->LockAll(txn, keys, LockMode::kExclusive,
                                       options_.lock_timeout_us);
      });
      if (!st.ok()) return st;
      shard_locks.held.emplace_back(shard, txn);
    }
  }

  // 2. Re-read both entries under the locks, in one concurrent round with
  //    the attribute records of the client's ancestor chain for
  //    dst_parent, which is step 3's evidence.
  TafDbShard* src_shard = tafdb_->ShardFor(req.src_parent);
  TafDbShard* dst_shard = tafdb_->ShardFor(req.dst_parent);
  const std::vector<InodeId>& chain = req.dst_chain;
  std::vector<NodeId> dests = {src_shard->ServiceNetId(),
                               dst_shard->ServiceNetId()};
  for (InodeId id : chain) {
    dests.push_back(tafdb_->ShardFor(id)->ServiceNetId());
  }
  std::vector<StatusOr<InodeRecord>> reads =
      net_->FanOut(self, dests, [&](size_t i) {
        if (i == 0) {
          return src_shard->Get(
              InodeKey::IdRecord(req.src_parent, req.src_name));
        }
        if (i == 1) {
          return dst_shard->Get(
              InodeKey::IdRecord(req.dst_parent, req.dst_name));
        }
        InodeId id = chain[i - 2];
        return tafdb_->ShardFor(id)->Get(InodeKey::AttrRecord(id));
      });
  const StatusOr<InodeRecord>& src = reads[0];
  const StatusOr<InodeRecord>& dst = reads[1];
  if (!src.ok()) return src.status();
  const bool src_is_dir = src->type == InodeType::kDirectory;

  const bool dst_exists = dst.ok();
  if (dst_exists) {
    if (src_is_dir && dst->type != InodeType::kDirectory) {
      return Status::NotADirectory(req.dst_name);
    }
    if (!src_is_dir && dst->type == InodeType::kDirectory) {
      return Status::IsADirectory(req.dst_name);
    }
  }

  // 3. Orphan-loop prevention for directory moves: the destination parent
  //    must not be the moved directory or any of its descendants. A chain
  //    the round's records verify link by link is dst_parent's ancestry,
  //    so the check is membership; a stale or wrong chain falls back to
  //    walking the backpointers one read at a time.
  if (src_is_dir) {
    bool loop;
    if (ChainVerified(req.dst_parent, chain, reads.data() + 2)) {
      loop = std::find(chain.begin(), chain.end(), src->id) != chain.end();
    } else {
      {
        MutexLock lock(stats_mu_);
        CFS_SHARED_WRITE(stats_, stats_mu_);
        stats_.chain_walks++;
      }
      auto walked = IsAncestorOf(src->id, req.dst_parent);
      if (!walked.ok()) return walked.status();
      loop = *walked;
    }
    if (loop) {
      MutexLock lock(stats_mu_);
      CFS_SHARED_WRITE(stats_, stats_mu_);
      stats_.loops_detected++;
      return Status::InvalidArgument("rename would orphan a directory loop");
    }
  }

  // 3b. Step C, reparenting a moved directory's attribute record, runs
  //     before the namespace changes and requires the record. An rmdir
  //     that already retired the record wins (the rename fails); one that
  //     retires it later and then loses its unlink to step A restores an
  //     image that already names the new parent. Undone if a later step
  //     fails.
  auto reparent = [&](InodeId parent, bool must_exist) {
    PrimitiveOp op;
    UpdateSpec upd;
    upd.key = InodeKey::AttrRecord(src->id);
    upd.lww.parent = parent;
    upd.lww.ctime = ts;
    upd.must_exist = must_exist;
    op.updates.push_back(upd);
    TafDbShard* dir_shard = tafdb_->ShardFor(src->id);
    return net_->Call(self, dir_shard->ServiceNetId(), [&] {
      return dir_shard->ExecutePrimitive(op).status;
    });
  };
  if (src_is_dir) {
    CFS_RETURN_IF_ERROR(reparent(req.dst_parent, /*must_exist=*/true));
  }
  // Best effort; it applies after the reparent, so it wins.
  auto undo_reparent = [&] {
    if (src_is_dir) (void)reparent(req.src_parent, /*must_exist=*/false);
  };

  // 4. Replacing an (empty) directory: atomically verify emptiness and
  //    retire its attribute record before touching the namespace, so no new
  //    children can appear under it mid-rename.
  std::optional<InodeRecord> retired_dst_attr;
  if (dst_exists && dst->type == InodeType::kDirectory) {
    PrimitiveOp retire;
    Predicate empty_check;
    empty_check.key = InodeKey::AttrRecord(dst->id);
    empty_check.kind = Predicate::Kind::kChildrenZero;
    retire.checks.push_back(empty_check);
    DeleteSpec del_attr;
    del_attr.key = InodeKey::AttrRecord(dst->id);
    retire.deletes.push_back(del_attr);
    TafDbShard* dir_shard = tafdb_->ShardFor(dst->id);
    PrimitiveResult result =
        net_->Call(self, dir_shard->ServiceNetId(), [&] {
          trace::ScopedSpan exec(trace::Category::kExec, "retire_dst");
          return dir_shard->ExecutePrimitive(retire);
        });
    if (!result.status.ok()) {  // delivery errors, kNotEmpty and friends
      undo_reparent();
      return result.status;
    }
    if (!result.deleted_records.empty()) {
      retired_dst_attr = result.deleted_records.front();
    }
  }

  // 5+6. Execute as deterministically ORDERED, hint-guarded single-shard
  // primitives (the same pruning discipline as the rest of CFS), rather
  // than optimistic staged 2PC: the hint ids make each step refuse to act
  // on entries that a concurrent fast-path rename or unlink replaced, and
  // the ordering guarantees the externally visible states are legal
  // serializations (a briefly-invisible file; never two live dentries).
  //
  //   step A (src shard): delete <src_parent, src_name> guarded by the
  //          observed inode id; parent fanout delta derived from the
  //          actual deletion (children_delta_auto); bumps src_parent's
  //          epoch.
  //   step B (dst shard): delete the observed dst entry (ifexist, hinted),
  //          insert the new dentry, parent fanout via auto delta; bumps
  //          dst_parent's epoch.
  //
  // If step B fails (a name appeared at dst concurrently), step A is
  // compensated by re-inserting the source dentry; if even that collides,
  // the outcome equals a crash between the steps and the GC reclaims the
  // attribute — the file is gone, a legal unlink serialization.
  Status commit_status;
  CacheInvalidation inv;
  // The destination record step B actually deleted. A concurrent unlink or
  // fast-path rename may have removed or moved it since the pre-read, and
  // then its inode is not this rename's to release.
  std::optional<InodeRecord> replaced;
  {
    // Step A.
    PrimitiveOp src_op;
    DeleteSpec del_src;
    del_src.key = InodeKey::IdRecord(req.src_parent, req.src_name);
    del_src.hint_id = src->id;
    src_op.deletes.push_back(del_src);
    UpdateSpec dec;
    dec.key = InodeKey::AttrRecord(req.src_parent);
    dec.children_delta_auto = true;
    dec.lww.mtime = ts;
    if (src_is_dir) dec.links_delta = -1;
    src_op.updates.push_back(dec);
    src_op.epoch_dir = req.src_parent;
    TafDbShard* src_op_shard = tafdb_->ShardFor(req.src_parent);
    commit_status = net_->Call(self, src_op_shard->ServiceNetId(), [&] {
      PrimitiveResult result = src_op_shard->ExecutePrimitive(src_op);
      inv.src_parent_epoch = result.changes.epoch;
      return result.status;
    });
    if (!commit_status.ok() && retired_dst_attr.has_value()) {
      // Step A lost a race: the retired destination directory is still
      // live; restore its attribute image.
      PrimitiveOp restore;
      restore.puts.push_back(*retired_dst_attr);
      TafDbShard* dir_shard = tafdb_->ShardFor(dst->id);
      (void)net_->Call(self, dir_shard->ServiceNetId(), [&] {
        return dir_shard->ExecutePrimitive(restore).status;
      });
    }
    if (!commit_status.ok()) undo_reparent();

    // Step B.
    if (commit_status.ok()) {
      PrimitiveOp dst_op;
      if (dst_exists) {
        DeleteSpec del_dst;
        del_dst.key = InodeKey::IdRecord(req.dst_parent, req.dst_name);
        del_dst.ifexist = true;
        del_dst.hint_id = dst->id;
        dst_op.deletes.push_back(del_dst);
      }
      dst_op.inserts.push_back(InodeRecord::MakeIdRecord(
          req.dst_parent, req.dst_name, src->id, src->type));
      UpdateSpec inc;
      inc.key = InodeKey::AttrRecord(req.dst_parent);
      inc.children_delta_auto = true;
      inc.lww.mtime = ts;
      // A directory moving in adds a ".." link — unless it replaces another
      // directory whose link it also removes.
      if (src_is_dir && !dst_exists) inc.links_delta = 1;
      dst_op.updates.push_back(inc);
      dst_op.epoch_dir = req.dst_parent;
      TafDbShard* dst_op_shard = tafdb_->ShardFor(req.dst_parent);
      Status step_b = net_->Call(self, dst_op_shard->ServiceNetId(), [&] {
        PrimitiveResult result = dst_op_shard->ExecutePrimitive(dst_op);
        inv.dst_parent_epoch = result.changes.epoch;
        if (!result.deleted_records.empty()) {
          replaced = result.deleted_records.front();
        }
        return result.status;
      });
      if (!step_b.ok()) {
        // Compensate the retired destination-directory attribute and step
        // A; best effort.
        if (retired_dst_attr.has_value()) {
          PrimitiveOp restore;
          restore.puts.push_back(*retired_dst_attr);
          TafDbShard* dir_shard = tafdb_->ShardFor(dst->id);
          (void)net_->Call(self, dir_shard->ServiceNetId(), [&] {
            return dir_shard->ExecutePrimitive(restore).status;
          });
        }
        PrimitiveOp undo;
        undo.inserts.push_back(InodeRecord::MakeIdRecord(
            req.src_parent, req.src_name, src->id, src->type));
        UpdateSpec inc_back;
        inc_back.key = InodeKey::AttrRecord(req.src_parent);
        inc_back.children_delta_auto = true;
        if (src_is_dir) inc_back.links_delta = 1;
        undo.updates.push_back(inc_back);
        (void)net_->Call(self, src_op_shard->ServiceNetId(), [&] {
          return src_op_shard->ExecutePrimitive(undo).status;
        });
        undo_reparent();
        commit_status = step_b;
      }
    }

    // Replaced file attribute in the non-tiered layout.
    if (commit_status.ok() && replaced.has_value() &&
        replaced->type != InodeType::kDirectory && filestore_ == nullptr) {
      PrimitiveOp retire;
      DeleteSpec del;
      del.key = InodeKey::AttrRecord(replaced->id);
      del.ifexist = true;
      retire.deletes.push_back(del);
      TafDbShard* attr_shard = tafdb_->ShardFor(replaced->id);
      (void)net_->Call(self, attr_shard->ServiceNetId(), [&] {
        return attr_shard->ExecutePrimitive(retire).status;
      });
    }
  }
  {
    MutexLock lock(stats_mu_);
    CFS_SHARED_WRITE(stats_, stats_mu_);
    if (commit_status.ok()) {
      stats_.committed++;
    } else {
      stats_.aborted++;
    }
  }
  MetricsRegistry::Global()
      .GetCounter(commit_status.ok() ? "renamer.committed"
                                     : "renamer.aborted")
      ->Add();

  if (!commit_status.ok()) return commit_status;

  // 7. Post-commit: name what moved. Steps A and B bumped both parents'
  //    epochs in apply and returned them, so client engines drop exactly
  //    the moved names.
  inv.src_path = req.src_path;
  inv.dst_path = req.dst_path;
  inv.subtree = src_is_dir;
  inv.src_parent = req.src_parent;
  inv.dst_parent = req.dst_parent;
  inv.moved = src->id;
  inv.moved_type = src->type;

  // 8. Eager cluster-wide invalidation: one synchronous SimNet fan-out to
  //    every client engine before the rename returns. Directory moves drop
  //    whole cached subtrees (prefix invalidation); without this, deep
  //    cached paths under the moved directory would keep resolving to the
  //    old location until their parents' epoch views aged out.
  if (broadcast_) {
    broadcast_(inv);
    MutexLock lock(stats_mu_);
    CFS_SHARED_WRITE(stats_, stats_mu_);
    stats_.invalidations_broadcast++;
  }

  // 9. Replaced file attributes in FileStore are orphaned by design
  //    (deterministic ordering, Fig 7) and reclaimed asynchronously.
  if (replaced.has_value() && replaced->type != InodeType::kDirectory &&
      options_.tiered_attrs && filestore_ != nullptr) {
    filestore_->UnrefAsync(replaced->id);
  }
  return inv;
}

Renamer::Stats Renamer::stats() const {
  MutexLock lock(stats_mu_);
  CFS_SHARED_READ(stats_, stats_mu_);
  return stats_;
}

}  // namespace cfs
