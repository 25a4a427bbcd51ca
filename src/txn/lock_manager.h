// Row-level lock manager — the coordination mechanism whose cost the paper
// measures (§2.2: locking accounts for 52.91%..93.86% of request time in
// HopsFS) and that CFS's single-shard primitives remove from the hot path.
//
// Shared/exclusive locks over string row keys with FIFO wait queues,
// timeout-based deadlock escape, and ordered multi-key acquisition. The
// time a thread spends blocked is accumulated in a thread-local counter so
// the Fig 4 latency-breakdown bench can report Lock vs Execute vs Other.

#ifndef CFS_TXN_LOCK_MANAGER_H_
#define CFS_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace cfs {

using TxnId = uint64_t;

enum class LockMode { kShared, kExclusive };

struct LockManagerOptions {
  int64_t default_timeout_us = 2000000;  // deadlock escape hatch
};

class LockManager {
 public:
  // `scope_class` / `scope_justification` name the logical
  // critical-section class (src/common/lock_order.h) that a transaction's
  // row-lock hold window is charged to: entered when a txn's held set goes
  // empty -> non-empty on this manager, exited when it drains. Row locks
  // are granted and released over RPC but *held* by the calling thread in
  // between — exactly the lock-across-round-trips scope the paper prunes —
  // so the class is registered kAllowedAcrossRpc and must justify itself.
  // cs-policy: allowed-across-rpc lockmgr.row
  explicit LockManager(
      LockManagerOptions options = {}, const Clock* clock = RealClock::Get(),
      const char* scope_class = "lockmgr.row",
      const char* scope_justification =
          "row locks intentionally span RPC round trips: lock-based "
          "transactions (HopsFS/InfiniFS baselines and CFS's !primitives "
          "mode) read, mutate and commit over the network while holding "
          "them — the critical-section scope the paper measures and prunes");

  // Blocks until granted or timeout (kTimeout). Reentrant: a txn already
  // holding the key in the same (or stronger) mode succeeds immediately; a
  // sole shared holder may upgrade to exclusive.
  Status Lock(TxnId txn, std::string_view key, LockMode mode,
              int64_t timeout_us = -1);

  // Sorts keys and acquires them in order (deadlock avoidance for
  // multi-object transactions). On failure, releases everything acquired.
  Status LockAll(TxnId txn, std::vector<std::string> keys, LockMode mode,
                 int64_t timeout_us = -1);

  void Unlock(TxnId txn, std::string_view key);
  void UnlockAll(TxnId txn);

  // Introspection / test support.
  bool IsLocked(std::string_view key) const;
  size_t HeldCount(TxnId txn) const;

  // Thread-local accumulated blocked time, for latency breakdowns. These
  // delegate to the calling thread's OpTrace kLockWait phase (see
  // src/common/metrics.h) so span- and counter-based callers agree.
  static void ResetThreadWait();
  static int64_t ThreadWaitMicros();
  // Adds externally measured lock-phase time (e.g. the RPC round trips a
  // client spends acquiring/releasing remote locks) to the same counter.
  // No-op while a kLockWait TraceSpan is open on this thread.
  static void AddThreadWait(int64_t micros);

  struct Stats {
    uint64_t acquisitions = 0;
    uint64_t contended_acquisitions = 0;
    uint64_t timeouts = 0;
    int64_t total_wait_us = 0;
  };
  Stats stats() const;

 private:
  struct Waiter {
    TxnId txn;
    LockMode mode;
    uint64_t ticket;
  };

  struct Entry {
    // Current holders. Exclusive implies exactly one holder.
    std::map<TxnId, LockMode> holders;
    std::deque<Waiter> queue;
  };

  // True if `txn` can be granted `mode` on `e` right now, honoring FIFO
  // (no grant past earlier waiters unless already compatible holder).
  bool CanGrantLocked(const Entry& e, TxnId txn, LockMode mode,
                      uint64_t ticket) const REQUIRES(mu_);

  // Pushes/pops a row-lock scope entry on empty<->non-empty transitions of
  // held_[txn]. The entry lands on the *calling* thread's held stack
  // (grants run inline on the caller via SimNet), which is what makes
  // RPC-under-row-lock accounting work.
  void ScopeEnter();
  void ScopeExit();

  // tsa-coverage: allow(immutable after construction)
  LockManagerOptions options_;
  const Clock* clock_;
  uint32_t scope_class_ = 0;
  // Per-manager table lock. Held only for table bookkeeping — blocked
  // acquisitions wait on cv_ with mu_ released, and no other cfs lock is
  // ever taken underneath it (Metrics() instruments are cached pointers).
  mutable Mutex mu_{"lockmgr.shard", 50};
  CondVar cv_;
  std::map<std::string, Entry, std::less<>> table_ GUARDED_BY(mu_);
  std::map<TxnId, std::set<std::string>> held_ GUARDED_BY(mu_);
  uint64_t next_ticket_ GUARDED_BY(mu_) = 1;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace cfs

#endif  // CFS_TXN_LOCK_MANAGER_H_
