// The held-lock record behind cfs::Mutex / cfs::SharedMutex
// (src/common/thread_annotations.h), and the three checkers that read it:
// the lock-order (potential-deadlock) tracker, the critical-section scope
// auditor, and the race detector's locksets (src/common/race_detector.h).
//
// One switch: the CMake option CFS_LOCK_ORDER (ON by default) defines
// CFS_LOCK_ORDER_TRACKING, which sets kTracking below. With it off, the
// wrappers compile to bare std mutexes and nothing here is called. With it
// on, the record is always kept; the race detector is additionally armed at
// runtime by env CFS_RACE_DETECT=1 (race::SetEnabled).
//
// The record: each thread keeps a stack of Held entries (class, mode,
// RPCs issued under it, acquisition time), pushed and popped only by the
// wrapper hooks below and by OnScopeEnter/Exit. Every mutex belongs to a
// lock *class* keyed by its registered name — all 16 shards of the dentry
// cache are one class. The wrappers call only this module; it forwards the
// race detector's happens-before join (after the mutex is owned) and
// publish (before it is released) only while the detector is armed.
//
// Lock order (a deliberately small lockdep). A blocking acquisition is
// checked two ways before it blocks:
//
//   1. Rank rule: the acquired class's rank must be strictly greater than
//      the rank of every held ranked class (DESIGN.md's hierarchy table).
//      Rank 0 = unranked, exempt from this rule.
//   2. Held-before graph: for every held class H, the edge H -> C is added
//      to a global digraph. If C already reaches H, this acquisition order
//      inverts an order executed earlier (possibly by another thread, hours
//      ago, across an RPC hop) and a cycle report fires with both lock
//      names and the offending path.
//
// Acquisitions via try_lock are recorded as held but not checked: a try
// that never blocks cannot complete a deadlock cycle, but later blocking
// acquisitions must still order against the lock it took.
//
// The graph only grows on the first occurrence of an edge per thread (a
// thread-local verified-edge cache front-runs the global graph mutex), and
// the class table is written once per class at registration and read
// without a lock, so steady-state overhead is a few thread-local bit tests
// per acquisition.
//
// Violations invoke the installed handler; the default prints both lock
// names plus the held stack to stderr and aborts. Tests install a recording
// handler (SetViolationHandler) to observe reports without dying.
//
// ---------------------------------------------------------------------------
// Critical-section scope auditing (the paper's central invariant)
//
// CFS scales by *pruning the scope of critical sections*: unlike HopsFS
// (row locks held across the RPCs of a multi-round transaction) and
// InfiniFS, CFS's single-shard primitives never hold a lock across a
// network round trip. The tracker turns that thesis into a machine-checked
// invariant:
//
//   - Every lock class carries an RpcHoldPolicy. kNeverAcrossRpc (the
//     default) means issuing an RPC with the class held is a bug;
//     kAllowedAcrossRpc requires a justification string and marks classes
//     that *intentionally* model baseline behaviour (the lock manager's
//     logical row locks, the renamer's directory locks).
//   - SimNet::Call and every slot of a SimNet::FanOut round invoke
//     OnRpcEdge with the call's edge (source and destination node names)
//     on the calling thread, wherever the handler then runs. Every held
//     entry's RPC count is bumped; a held kNeverAcrossRpc class raises a
//     kRpcUnderLock violation naming the lock class and the RPC edge (abort
//     by default, counted when enforcement is off or a recording handler is
//     installed).
//   - Releases feed per-class hold-span accounting: hold-time totals and
//     maxima split by "number of RPCs issued under the lock"
//     (0 / 1 / 2-7 / 8+), so scripts/cs_scope_report.sh can reproduce the
//     paper's scope-comparison narrative against both baselines.
//   - Logical (non-mutex) critical sections — e.g. a transaction's row
//     locks, granted and released over RPC but *held* by the calling
//     thread between the two — enter the same record through
//     OnScopeEnter/Exit. Scope entries are audited for RPCs-under-lock and
//     hold spans, count in the race detector's locksets, and are exempt
//     from the rank/cycle/self checks (row-lock deadlocks are handled by
//     the lock manager's timeouts, and one thread legally holds many row
//     locks of one class).

#ifndef CFS_COMMON_LOCK_ORDER_H_
#define CFS_COMMON_LOCK_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cfs {
namespace lock_order {

// Compile-time switch for everything in this header (CMake CFS_LOCK_ORDER).
// The wrappers test it with `if constexpr`, so an untracked build pays
// nothing.
#ifdef CFS_LOCK_ORDER_TRACKING
inline constexpr bool kTracking = true;
#else
inline constexpr bool kTracking = false;
#endif

// Upper bound on registered lock classes; ids are 1..kMaxLockClasses-1.
// The race detector's locksets are bitsets over class ids.
inline constexpr size_t kMaxLockClasses = 256;

enum class LockMode : uint8_t { kExclusive = 0, kShared = 1 };

// How a lock class relates to network round trips (the paper's pruned
// critical-section scope). kAllowedAcrossRpc requires a justification.
enum class RpcHoldPolicy : uint8_t {
  kNeverAcrossRpc = 0,
  kAllowedAcrossRpc = 1,
};

const char* RpcHoldPolicyName(RpcHoldPolicy policy);

struct Violation {
  enum class Kind { kRank, kCycle, kSelf, kRpcUnderLock };
  Kind kind = Kind::kRank;
  std::string acquiring;  // class being acquired (empty for kRpcUnderLock)
  int acquiring_rank = 0;
  std::string held;  // held class it conflicts with
  int held_rank = 0;
  // For kRpcUnderLock: "source-node -> destination-node" of the offending
  // call.
  std::string rpc_edge;
  // Human-readable elaboration: the held stack, and for cycles the
  // held-before path that the new edge closes.
  std::string detail;
};

// Registers (or looks up) the lock class `name` and returns its id (> 0).
// All registrations of one name must agree on `rank`, `policy` and
// `justification`; a mismatch aborts — it is a programming error, not a
// runtime condition. kAllowedAcrossRpc without a non-empty justification
// aborts: intentionally holding a lock across an RPC is an exception that
// must explain itself.
uint32_t RegisterClass(const char* name, int rank);
uint32_t RegisterClass(const char* name, int rank, RpcHoldPolicy policy,
                       const char* justification);

// One entry of a thread's held-lock record. scope_only entries are logical
// critical sections (OnScopeEnter): they take part in RPC-under-lock
// accounting, hold spans and locksets, but not in the rank/cycle/self
// checks.
struct Held {
  uint32_t cls = 0;
  LockMode mode = LockMode::kExclusive;
  bool scope_only = false;
  uint64_t rpcs = 0;       // RPCs issued while this entry was held
  int64_t acquire_ns = 0;  // acquisition time (virtual under a scheduler)
};

// The calling thread's held-lock record, oldest acquisition first. The
// race detector derives its locksets from it; tests inspect it.
const std::vector<Held>& HeldLocks();

// How many times the calling thread has released class `cls` (race
// detector's AccessScope: a guard dropped and retaken mid-region moves it).
uint64_t ReleaseCount(uint32_t cls);

// Hooks called by the cfs::Mutex / cfs::SharedMutex wrappers, in this
// order around the std mutex operation:
//   OnAcquire -> lock -> OnAcquired,  try_lock -> OnTryAcquired,
//   OnRelease -> unlock -> OnReleased.
void OnAcquire(uint32_t cls, LockMode mode);      // rank + cycle checks, push
void OnAcquired(uint32_t cls);                    // race HB join when armed
void OnTryAcquired(uint32_t cls, LockMode mode);  // push (cannot deadlock)
void OnRelease(uint32_t cls);  // race HB publish when armed, pop, hold span
void OnReleased();             // schedule-fuzz point after the unlock

// Logical critical sections (no mutex object): pushed/popped around e.g. a
// transaction's row-lock hold window, in exclusive mode. Exempt from the
// rank/cycle/self checks, and one thread may hold many entries of one
// class.
void OnScopeEnter(uint32_t cls);
void OnScopeExit(uint32_t cls);

// Called by SimNet once per issued RPC with the call's edge. Charges the
// RPC to every held entry and reports a kRpcUnderLock violation for every
// held kNeverAcrossRpc class (see SetRpcEnforcement).
void OnRpcEdge(const char* from_node, const char* to_node);

// Aborts unless the calling thread holds a lock of class `cls`.
void AssertHeld(uint32_t cls);

// When enforcement is on (the default), an RPC issued under a
// kNeverAcrossRpc class reports a violation (abort unless a handler is
// installed). When off, the event is only counted in the scope stats —
// the mode the scope-report tool uses to *measure* baselines instead of
// killing them.
void SetRpcEnforcement(bool enforce);
bool RpcEnforcement();

// Installs `handler` for subsequent violations; an empty handler restores
// the default print-and-abort behaviour.
using ViolationHandler = std::function<void(const Violation&)>;
void SetViolationHandler(ViolationHandler handler);

// The name/rank pairs of every class registered so far (diagnostics).
std::vector<std::pair<std::string, int>> RegisteredClasses();

// The registered name of class `cls` ("<unknown>" for 0/unregistered).
// Used by the race detector to report violations by lock-class name.
const std::string& ClassName(uint32_t cls);

// ---------------------------------------------------------------------------
// Scope accounting snapshot

// Hold spans are split by how many RPCs were issued while the entry was
// held: bucket 0 = no RPC, 1 = one, 2 = 2..7, 3 = 8 or more.
inline constexpr size_t kNumRpcHoldBuckets = 4;
const char* RpcHoldBucketLabel(size_t bucket);
size_t RpcHoldBucketFor(uint64_t rpcs);

struct ClassScope {
  std::string name;
  int rank = 0;
  RpcHoldPolicy policy = RpcHoldPolicy::kNeverAcrossRpc;
  std::string justification;

  uint64_t holds = 0;           // completed hold spans
  uint64_t holds_with_rpc = 0;  // spans during which >= 1 RPC was issued
  uint64_t rpcs_under_lock = 0; // total RPCs issued while held
  uint64_t rpc_violations = 0;  // RPCs under a held kNeverAcrossRpc class
  uint64_t unbalanced_pops = 0; // releases with no matching held entry
  int64_t max_hold_us = 0;
  int64_t total_hold_us = 0;

  struct Bucket {
    uint64_t holds = 0;
    int64_t total_us = 0;
    int64_t max_us = 0;
  };
  Bucket rpc_buckets[kNumRpcHoldBuckets];
};

// Per-class scope stats for every registered class, in registration order.
std::vector<ClassScope> ScopeSnapshot();
// Zeroes every class's scope stats (the report tool calls this between
// systems; class registrations survive).
void ResetScopeStats();
// Process-wide totals (cheap; used by tests and the metrics probe).
uint64_t TotalRpcUnderLockViolations();
uint64_t TotalUnbalancedPops();

// Test support: drops every held-before edge and invalidates the per-thread
// verified-edge caches. Registered classes survive (their ids are baked
// into live mutexes).
void ResetGraphForTest();

}  // namespace lock_order
}  // namespace cfs

#endif  // CFS_COMMON_LOCK_ORDER_H_
