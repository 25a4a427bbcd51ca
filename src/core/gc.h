// Garbage collector (paper §4.4).
//
// The deterministic two-tier execution orders (Fig 7) confine crash damage
// to orphaned attribute records (creation interrupted before linking) and
// undeleted attribute records (deletion interrupted after unlinking). The
// collector tails the committed logs of every TafDB shard and FileStore
// node — the change-data-capture feed — and performs a pairing analysis:
//
//   attribute created (TafDB attr-record insert or FileStore PutAttr)
//     ... expects a namespace insert carrying the same inode id;
//   namespace delete carrying an inode id hint
//     ... expects the matching attribute deletion.
//
// Entries unpaired after a grace period are reclaimed. A second, on-demand
// mode repairs dangling dentries (crashed rmdir step 2): failed getattr /
// readdir calls report <parent, name, id>, and the collector removes the
// dentry after verifying the attribute record is really gone.

#ifndef CFS_CORE_GC_H_
#define CFS_CORE_GC_H_

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/thread_annotations.h"
#include "src/tafdb/schema.h"

namespace cfs {

class Cfs;

class GarbageCollector {
 public:
  explicit GarbageCollector(Cfs* fs);
  ~GarbageCollector();

  void Start();
  void Stop();

  // Runs one full collection pass synchronously (tests and shutdown).
  void RunOnceForTest();

  // On-demand mode: a client observed a dentry whose attribute record is
  // missing (getattr/readdir failure after a crashed rmdir/unlink).
  void ReportDangling(InodeId parent, const std::string& name, InodeId id);

  struct Stats {
    uint64_t orphan_attrs_deleted = 0;    // crashed creates
    uint64_t missed_deletes_fixed = 0;    // crashed unlink/rename cleanups
    uint64_t dangling_entries_removed = 0;  // crashed rmdir (on-demand)
    uint64_t events_processed = 0;
  };
  Stats stats() const;

 private:
  void Loop();
  void ScanOnce();
  struct Dangling {
    InodeId parent;
    std::string name;
    InodeId id;
  };
  // The writes a pass decided on under mu_, issued after releasing it.
  struct Repairs {
    std::vector<InodeId> orphan_attrs;    // crashed creates: delete
    std::vector<InodeId> missed_deletes;  // crashed unlinks: unref
    std::vector<Dangling> dangling;       // reported dentries: verify, drop
  };

  void IngestTafDb() REQUIRES(mu_);
  void IngestFileStore() REQUIRES(mu_);
  // Picks the unpaired events past the grace period and counts them.
  Repairs PlanReclaim() REQUIRES(mu_);
  void ProcessDangling(const std::vector<Dangling>& work) EXCLUDES(mu_);
  void DeleteAttrEverywhere(InodeId id);

  Cfs* fs_;  // tsa-coverage: allow(immutable after construction)
  // Spawned by Start, joined by Stop after running_ flips (single
  // lifecycle caller). tsa-coverage: allow(start/stop lifecycle only)
  std::thread thread_;
  std::atomic<bool> running_{false};
  // Sleep/wake only; guards nothing (the predicate is the running_ atomic).
  Mutex cv_mu_{"gc.wake", 84};
  CondVar cv_;

  // Held while a pass reads every shard's raft feed and plans its repairs
  // (the outermost ranked lock in the process), released before the
  // repair writes so ReportDangling never waits out a raft commit.
  mutable Mutex mu_{"gc.scan", 10};
  std::vector<uint64_t> tafdb_cursor_ GUARDED_BY(mu_);
  std::vector<uint64_t> filestore_cursor_ GUARDED_BY(mu_);
  // inode id -> first-seen time (nanos) of the unpaired event.
  std::map<InodeId, MonoNanos> pending_create_ GUARDED_BY(mu_);
  std::map<InodeId, MonoNanos> pending_delete_ GUARDED_BY(mu_);
  // ids whose attribute deletion we already observed (bounded memory: this
  // only needs to cover the grace window; cleared opportunistically).
  std::set<InodeId> attr_deleted_ GUARDED_BY(mu_);
  std::set<InodeId> linked_ GUARDED_BY(mu_);
  std::vector<Dangling> dangling_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace cfs

#endif  // CFS_CORE_GC_H_
