// Write-ahead log.
//
// Append-only sequence of opaque records, each assigned a monotonically
// increasing LSN. Its one consumer is raft, which persists log entries and
// votes and replays them on restart. (The garbage collector's
// change-data-capture feed tails raft's committed log, not the WAL.)
//
// Records live in a bounded memory window and, when a path is configured,
// are also framed to a file ([crc32c][varint len][payload]) so recovery and
// corruption-detection paths can be tested against real bytes. fsync is
// simulated by default (a configurable sleep standing in for the paper's
// NVMe WAL flush); file-backed WALs can request real fdatasync.

#ifndef CFS_WAL_WAL_H_
#define CFS_WAL_WAL_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace cfs {

struct WalOptions {
  // Simulated flush latency applied on every synced append (0 disables).
  int64_t fsync_delay_us = 0;
  // Backing file; empty keeps the log memory-only.
  std::string path;
  // Issue a real fdatasync on synced appends (requires `path`).
  bool real_fsync = false;
  // Cap on the in-memory record window a memory-only Replay delivers; older
  // records are dropped from memory (they remain in the file if any).
  size_t memory_window = 1 << 20;
};

class Wal {
 public:
  explicit Wal(WalOptions options = {});
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Opens (and replays nothing by itself); see Recover().
  Status Open();

  // Appends a record; if sync, pays the flush cost. Returns the LSN.
  StatusOr<uint64_t> Append(std::string_view record, bool sync = true);

  // Replays records from the backing file (or the memory window when
  // memory-only), in LSN order. Stops at the first corrupt frame, returning
  // how many records were delivered via Status OK (corrupt tails are
  // expected after a crash).
  Status Replay(
      const std::function<void(uint64_t lsn, std::string_view record)>& fn);

  // LSN the next append will receive.
  uint64_t NextLsn() const;

  // Test hook: chop the last `bytes` off the backing file to emulate a torn
  // write; subsequent Replay must stop cleanly before the torn frame.
  Status CorruptTailForTest(size_t bytes);

  uint64_t synced_appends() const {
    MutexLock lock(mu_);
    return synced_appends_;
  }

 private:
  Status AppendToFileLocked(std::string_view record) REQUIRES(mu_);

  WalOptions options_;  // tsa-coverage: allow(immutable after construction)
  // Leaf within the write path: raft appends while holding its own locks,
  // so wal.log ranks above them; the simulated fsync sleep happens with mu_
  // released.
  mutable Mutex mu_{"wal.log", 70};
  std::deque<std::string> window_ GUARDED_BY(mu_);
  uint64_t window_base_ GUARDED_BY(mu_) = 0;  // LSN of window_.front()
  uint64_t next_lsn_ GUARDED_BY(mu_) = 0;
  std::FILE* file_ GUARDED_BY(mu_) = nullptr;
  uint64_t synced_appends_ GUARDED_BY(mu_) = 0;
};

}  // namespace cfs

#endif  // CFS_WAL_WAL_H_
