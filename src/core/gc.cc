#include "src/core/gc.h"

#include <chrono>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/trace_event.h"
#include "src/core/cfs.h"

namespace cfs {
namespace {

// GC runs on its own thread, so it only feeds global counters (its work is
// never part of a client op's trace).
struct GcMetrics {
  Counter* events;
  Counter* orphan_attrs;
  Counter* missed_deletes;
  Counter* dangling_entries;
};

GcMetrics& Metrics() {
  static GcMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return GcMetrics{r.GetCounter("gc.events_processed"),
                     r.GetCounter("gc.orphan_attrs_deleted"),
                     r.GetCounter("gc.missed_deletes_fixed"),
                     r.GetCounter("gc.dangling_entries_removed")};
  }();
  return m;
}

}  // namespace

GarbageCollector::GarbageCollector(Cfs* fs) : fs_(fs) {}

GarbageCollector::~GarbageCollector() { Stop(); }

void GarbageCollector::Start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { Loop(); });
}

void GarbageCollector::Stop() {
  if (!running_.exchange(false)) return;
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

void GarbageCollector::Loop() {
  while (running_.load()) {
    {
      MutexLock lock(cv_mu_);
      auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(fs_->options().gc_interval_ms);
      while (running_.load()) {
        if (!cv_.WaitUntil(cv_mu_, deadline)) break;  // interval elapsed
      }
    }
    if (!running_.load()) return;
    ScanOnce();
  }
}

void GarbageCollector::RunOnceForTest() { ScanOnce(); }

void GarbageCollector::ScanOnce() {
  // GC cycles run on the collector thread outside any OpTrace bracket;
  // OpScope roots them as their own trace so slow scans land in the
  // slow-op log like any other operation.
  trace::OpScope op("gc_scan");
  trace::ScopedSpan span(trace::Category::kGc, "scan");
  // The analysis runs under gc.scan. The repair writes, each a raft commit
  // that waits out a replication round trip, run after it is released, so
  // ReportDangling (a client's failed GetAttr) never queues behind them.
  // Every repair is idempotent.
  Repairs repairs;
  {
    MutexLock lock(mu_);
    IngestTafDb();
    IngestFileStore();
    repairs = PlanReclaim();
    repairs.dangling.swap(dangling_);
  }
  for (InodeId id : repairs.orphan_attrs) DeleteAttrEverywhere(id);
  for (InodeId id : repairs.missed_deletes) {
    // A missed unlink cleanup: drop the reference the crashed client never
    // dropped (hard-link-safe), instead of force-deleting.
    if (fs_->options().tiered_attrs) {
      (void)fs_->filestore()->NodeFor(id)->Unref(id);
    } else {
      DeleteAttrEverywhere(id);
    }
  }
  ProcessDangling(repairs.dangling);
}

void GarbageCollector::IngestTafDb() {
  TafDbCluster* tafdb = fs_->tafdb();
  tafdb_cursor_.resize(tafdb->num_shards(), 0);
  MonoNanos now = RealClock::Get()->NowNanos();

  for (size_t s = 0; s < tafdb->num_shards(); s++) {
    // Drain the shard's feed completely: a partially ingested TafDB log
    // would make FileStore-side attribute creations look unpaired and the
    // pairing analysis would reclaim live files.
    for (;;) {
    auto feed = tafdb->shard(s)->ReadCommittedSince(tafdb_cursor_[s], 8192);
    for (auto& [index, cmd] : feed) {
      tafdb_cursor_[s] = index;
      // Prepared write sets almost always commit; treating them as applied
      // only risks a benign extra verification, never data loss (Reclaim
      // re-checks state before deleting).
      if (cmd.kind == ShardCommand::Kind::kAbortTxn) continue;
      const PrimitiveOp& op = cmd.op;
      stats_.events_processed++;
      Metrics().events->Add();

      std::set<InodeId> created_attrs;
      std::set<InodeId> inserted_ids;
      for (const auto& rec : op.inserts) {
        if (rec.key.IsAttr()) {
          created_attrs.insert(rec.id);
        } else if (rec.Has(InodeRecord::kFieldId)) {
          inserted_ids.insert(rec.id);
        }
      }
      // Absolute upserts (lock-based txns) count as links but never as
      // creations: they may be in-place attribute updates.
      for (const auto& rec : op.puts) {
        if (!rec.key.IsAttr() && rec.Has(InodeRecord::kFieldId)) {
          inserted_ids.insert(rec.id);
        }
      }
      std::set<InodeId> deleted_hints;
      for (const auto& del : op.deletes) {
        if (del.key.IsAttr()) {
          attr_deleted_.insert(del.key.kid);
          pending_delete_.erase(del.key.kid);
        } else if (del.hint_id != kInvalidInode && del.expect_attr_cleanup) {
          // Only unlink/rmdir-style deletes expect an attribute cleanup;
          // rename-style deletes re-link the inode elsewhere and must not
          // enter the pairing (their counterpart may be ingested in any
          // shard order).
          deleted_hints.insert(del.hint_id);
        }
      }

      for (InodeId id : inserted_ids) {
        linked_.insert(id);
        pending_create_.erase(id);
        // A re-inserted id (ordered rename's second step) is still live:
        // its earlier namespace delete must not trigger reclamation.
        pending_delete_.erase(id);
      }
      for (InodeId id : created_attrs) {
        // The root's attribute record is the one attribute that never has
        // a dentry linking to it (bootstrap); it is not an orphan.
        if (id == kRootInode) continue;
        if (linked_.count(id) == 0) {
          pending_create_.emplace(id, now);
        }
      }
      for (InodeId id : deleted_hints) {
        // An id both unlinked and re-inserted in one command is a rename:
        // its attribute must survive.
        if (inserted_ids.count(id) != 0) continue;
        if (attr_deleted_.count(id) == 0) {
          pending_delete_.emplace(id, now);
        }
      }
    }
    if (feed.size() < 8192) break;
    }
  }
}

void GarbageCollector::IngestFileStore() {
  FileStoreCluster* filestore = fs_->filestore();
  filestore_cursor_.resize(filestore->num_nodes(), 0);
  MonoNanos now = RealClock::Get()->NowNanos();

  for (size_t n = 0; n < filestore->num_nodes(); n++) {
    for (;;) {
    auto feed =
        filestore->node(n)->ReadCommittedSince(filestore_cursor_[n], 8192);
    for (auto& [index, raw_cmd] : feed) {
      filestore_cursor_[n] = index;
      stats_.events_processed++;
      Metrics().events->Add();
      const FileStoreCommand* cmd = &raw_cmd;
      StatusOr<FileStoreCommand> inner = Status::NotFound("");
      if (cmd->kind == FileStoreCommand::Kind::kPrepare) {
        inner = FileStoreCommand::Decode(cmd->data);
        if (!inner.ok()) continue;
        cmd = &inner.value();
      }
      switch (cmd->kind) {
        case FileStoreCommand::Kind::kPutAttr:
          if (cmd->id != kRootInode && linked_.count(cmd->id) == 0) {
            pending_create_.emplace(cmd->id, now);
          }
          break;
        case FileStoreCommand::Kind::kDeleteAttr:
        case FileStoreCommand::Kind::kDeleteFile:
        case FileStoreCommand::Kind::kUnref:
          // Unref is the unlink path's expected cleanup whether or not it
          // was the last link.
          attr_deleted_.insert(cmd->id);
          pending_delete_.erase(cmd->id);
          break;
        default:
          break;
      }
    }
    if (feed.size() < 8192) break;
    }
  }
}

void GarbageCollector::DeleteAttrEverywhere(InodeId id) {
  // Idempotent: covers tiered (FileStore) and non-tiered (TafDB attr
  // record) placements, plus orphaned directory attribute records.
  if (fs_->options().tiered_attrs) {
    (void)fs_->filestore()->NodeFor(id)->DeleteFile(id);
  }
  PrimitiveOp op;
  DeleteSpec del;
  del.key = InodeKey::AttrRecord(id);
  del.ifexist = true;
  op.deletes.push_back(del);
  (void)fs_->tafdb()->ShardFor(id)->ExecutePrimitive(op);
}

GarbageCollector::Repairs GarbageCollector::PlanReclaim() {
  MonoNanos now = RealClock::Get()->NowNanos();
  MonoNanos grace = fs_->options().gc_grace_ms * 1000000;
  Repairs repairs;

  for (auto it = pending_create_.begin(); it != pending_create_.end();) {
    if (linked_.count(it->first) != 0) {
      it = pending_create_.erase(it);
      continue;
    }
    if (now - it->second >= grace) {
      repairs.orphan_attrs.push_back(it->first);
      stats_.orphan_attrs_deleted++;
      Metrics().orphan_attrs->Add();
      it = pending_create_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pending_delete_.begin(); it != pending_delete_.end();) {
    if (attr_deleted_.count(it->first) != 0) {
      it = pending_delete_.erase(it);
      continue;
    }
    if (now - it->second >= grace) {
      repairs.missed_deletes.push_back(it->first);
      stats_.missed_deletes_fixed++;
      Metrics().missed_deletes->Add();
      it = pending_delete_.erase(it);
    } else {
      ++it;
    }
  }
  // Bound the memory of the pairing sets: anything old enough that no
  // counterpart event can still arrive is dropped.
  if (linked_.size() > 1u << 20) linked_.clear();
  if (attr_deleted_.size() > 1u << 20) attr_deleted_.clear();
  return repairs;
}

void GarbageCollector::ReportDangling(InodeId parent, const std::string& name,
                                      InodeId id) {
  MutexLock lock(mu_);
  dangling_.push_back(Dangling{parent, name, id});
}

void GarbageCollector::ProcessDangling(const std::vector<Dangling>& work) {
  for (const auto& d : work) {
    // Verify the attribute record is really gone before removing the
    // dentry (the report may race a slow create).
    bool attr_exists =
        fs_->tafdb()->ShardFor(d.id)->Get(InodeKey::AttrRecord(d.id)).ok();
    if (!attr_exists && fs_->options().tiered_attrs) {
      attr_exists = fs_->filestore()->NodeFor(d.id)->GetAttr(d.id).ok();
    }
    if (attr_exists) continue;

    PrimitiveOp op;
    DeleteSpec del;
    del.key = InodeKey::IdRecord(d.parent, d.name);
    del.ifexist = true;
    del.hint_id = d.id;
    op.deletes.push_back(del);
    UpdateSpec dec;
    dec.key = InodeKey::AttrRecord(d.parent);
    dec.children_delta_auto = true;  // -1 only if the dentry still existed
    dec.must_exist = false;
    op.updates.push_back(dec);
    auto result = fs_->tafdb()->ShardFor(d.parent)->ExecutePrimitive(op);
    if (result.status.ok() && result.deleted > 0) {
      MutexLock lock(mu_);
      stats_.dangling_entries_removed++;
      Metrics().dangling_entries->Add();
    }
  }
}

GarbageCollector::Stats GarbageCollector::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace cfs
