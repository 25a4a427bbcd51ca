// Compile-time lock discipline: Clang thread-safety-analysis macros plus the
// annotated capability wrappers (cfs::Mutex / cfs::SharedMutex / cfs::CondVar)
// every subsystem uses instead of the raw std synchronization types.
//
// Three layers, from bottom to top:
//
//   1. The annotation macros (GUARDED_BY, REQUIRES, ACQUIRE/RELEASE, ...).
//      Under clang they expand to thread-safety attributes, so
//      `-Wthread-safety` (the CFS_WERROR_TSA CMake option) proves at compile
//      time that every access to a guarded field happens with the right lock
//      held. Under other compilers they expand to nothing — zero overhead,
//      and the annotations are still enforced whenever anyone builds with
//      clang (scripts/lint.sh runs that build where clang is on PATH).
//
//   2. cfs::Mutex / cfs::SharedMutex: drop-in replacements for std::mutex /
//      std::shared_mutex carrying the CAPABILITY attribute (std types are
//      invisible to the analysis) and a registered name + rank. Ranks encode
//      the allowed nesting order documented in DESIGN.md ("Concurrency
//      invariants"): a lock may only be acquired while every held lock has a
//      strictly smaller rank.
//
//   3. The held-lock record (src/common/lock_order.h). The wrappers'
//      acquire/release hooks call lock_order and nothing else; it keeps one
//      per-thread record of held lock classes that three runtime checkers
//      read. The lock-order tracker checks the rank rule and a global
//      held-before graph before each blocking acquisition, so a potential
//      deadlock aborts with both lock names the first time the inverted
//      order is *executed* — even when the two acquisitions are separated by
//      an RPC hop (SimNet handlers run on the caller's thread, so lock
//      nesting spans "network" boundaries). The annotations cannot see that;
//      TSan only reports it if two threads actually race into the deadlock.
//      The critical-section scope auditor charges RPCs to the held entries,
//      and the race detector (src/common/race_detector.h), when armed by env
//      CFS_RACE_DETECT=1, derives its locksets from the record.
//
//      One switch compiles all three in: the CFS_LOCK_ORDER CMake option
//      (default ON), seen here as lock_order::kTracking. With it off every
//      hook is discarded by `if constexpr (kTrack)` and the wrappers are
//      bare std mutexes.
//
// Lock naming convention (enforced by scripts/lint.sh): construct every
// mutex on a single line as  cfs::Mutex mu_{"subsystem.name", rank};  so the
// registered name/rank can be cross-checked against DESIGN.md's hierarchy
// table.

#ifndef CFS_COMMON_THREAD_ANNOTATIONS_H_
#define CFS_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "src/common/lock_order.h"
#include "src/common/race_detector.h"

// ---------------------------------------------------------------------------
// Annotation macros (abseil/LLVM style). No-ops outside clang.

#if defined(__clang__)
#define CFS_TSA_ATTRIBUTE_(x) __attribute__((x))
#else
#define CFS_TSA_ATTRIBUTE_(x)  // no-op
#endif

#define CAPABILITY(x) CFS_TSA_ATTRIBUTE_(capability(x))
#define SCOPED_CAPABILITY CFS_TSA_ATTRIBUTE_(scoped_lockable)
#define GUARDED_BY(x) CFS_TSA_ATTRIBUTE_(guarded_by(x))
#define PT_GUARDED_BY(x) CFS_TSA_ATTRIBUTE_(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) CFS_TSA_ATTRIBUTE_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) CFS_TSA_ATTRIBUTE_(acquired_after(__VA_ARGS__))
#define REQUIRES(...) CFS_TSA_ATTRIBUTE_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  CFS_TSA_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) CFS_TSA_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  CFS_TSA_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) CFS_TSA_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  CFS_TSA_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  CFS_TSA_ATTRIBUTE_(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) CFS_TSA_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  CFS_TSA_ATTRIBUTE_(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) CFS_TSA_ATTRIBUTE_(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) CFS_TSA_ATTRIBUTE_(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  CFS_TSA_ATTRIBUTE_(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) CFS_TSA_ATTRIBUTE_(lock_returned(x))
// Escape hatch for code the analysis cannot model. The only legitimate uses
// are inside this header's wrappers; scripts/lint.sh rejects it anywhere else.
#define NO_THREAD_SAFETY_ANALYSIS CFS_TSA_ATTRIBUTE_(no_thread_safety_analysis)

namespace cfs {

// ---------------------------------------------------------------------------
// cfs::Mutex — annotated, named, ranked std::mutex.

class CAPABILITY("mutex") Mutex {
 public:
  // `name` ("subsystem.lock") and `rank` identify this mutex's lock *class*
  // in the runtime order tracker; all instances constructed with the same
  // name share one class. rank > 0 enforces "only acquire while every held
  // lock has a smaller rank"; rank 0 opts out of the rank rule and relies on
  // the held-before graph alone (used by tests).
  //
  // `policy` is the class's critical-section scope policy (DESIGN.md §9):
  // kNeverAcrossRpc (default) makes issuing a SimNet RPC with this class
  // held a reported violation; kAllowedAcrossRpc marks a class that
  // intentionally spans round trips (baseline modeling) and requires a
  // non-empty `justification`.
  explicit Mutex(const char* name, int rank = 0,
                 lock_order::RpcHoldPolicy policy =
                     lock_order::RpcHoldPolicy::kNeverAcrossRpc,
                 const char* justification = nullptr) {
    if constexpr (kTrack) {
      order_class_ =
          lock_order::RegisterClass(name, rank, policy, justification);
    }
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // Hook order (lock_order.h): the order check and push happen before
  // blocking, the race detector's happens-before join once the mutex is
  // owned, its publish before another thread can win the lock, and the
  // schedule-fuzz point after the unlock.
  void Lock() ACQUIRE() {
    if constexpr (kTrack) lock_order::OnAcquire(order_class_, kX);
    mu_.lock();
    if constexpr (kTrack) lock_order::OnAcquired(order_class_);
  }

  void Unlock() RELEASE() {
    if constexpr (kTrack) lock_order::OnRelease(order_class_);
    mu_.unlock();
    if constexpr (kTrack) lock_order::OnReleased();
  }

  // try_lock never blocks, so it cannot close a deadlock cycle itself; it
  // is recorded as held (without an order check) so that later blocking
  // acquisitions are checked against it.
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if constexpr (kTrack) lock_order::OnTryAcquired(order_class_, kX);
    return true;
  }

  // Runtime claim that the calling thread holds this mutex's lock class
  // (the tracker cannot distinguish instances of one class). Aborts if not.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
    if constexpr (kTrack) lock_order::AssertHeld(order_class_);
  }

  // This mutex's lock-order class id (0 when tracking is compiled out).
  // The CFS_SHARED_READ/WRITE annotations use it to name the declared
  // guard in race reports.
  uint32_t order_class() const { return order_class_; }

  // BasicLockable interface so std::condition_variable_any (cfs::CondVar)
  // can unlock/relock through the tracker hooks. Annotated identically.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }

 private:
  static constexpr bool kTrack = lock_order::kTracking;
  static constexpr lock_order::LockMode kX = lock_order::LockMode::kExclusive;

  std::mutex mu_;
  uint32_t order_class_ = 0;
};

// ---------------------------------------------------------------------------
// cfs::SharedMutex — annotated, named, ranked std::shared_mutex. Shared
// acquisitions participate in order tracking exactly like exclusive ones
// (reader/writer deadlocks are still deadlocks).

class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* name, int rank = 0,
                       lock_order::RpcHoldPolicy policy =
                           lock_order::RpcHoldPolicy::kNeverAcrossRpc,
                       const char* justification = nullptr) {
    if constexpr (kTrack) {
      order_class_ =
          lock_order::RegisterClass(name, rank, policy, justification);
    }
  }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  // Same hook order as Mutex; the record carries the mode.
  void Lock() ACQUIRE() {
    if constexpr (kTrack) lock_order::OnAcquire(order_class_, kX);
    mu_.lock();
    if constexpr (kTrack) lock_order::OnAcquired(order_class_);
  }

  void Unlock() RELEASE() {
    if constexpr (kTrack) lock_order::OnRelease(order_class_);
    mu_.unlock();
    if constexpr (kTrack) lock_order::OnReleased();
  }

  void ReaderLock() ACQUIRE_SHARED() {
    if constexpr (kTrack) lock_order::OnAcquire(order_class_, kS);
    mu_.lock_shared();
    if constexpr (kTrack) lock_order::OnAcquired(order_class_);
  }

  void ReaderUnlock() RELEASE_SHARED() {
    if constexpr (kTrack) lock_order::OnRelease(order_class_);
    mu_.unlock_shared();
    if constexpr (kTrack) lock_order::OnReleased();
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if constexpr (kTrack) lock_order::OnTryAcquired(order_class_, kX);
    return true;
  }

  void AssertHeld() const ASSERT_CAPABILITY(this) {
    if constexpr (kTrack) lock_order::AssertHeld(order_class_);
  }

  // See Mutex::order_class().
  uint32_t order_class() const { return order_class_; }

 private:
  static constexpr bool kTrack = lock_order::kTracking;
  static constexpr lock_order::LockMode kX = lock_order::LockMode::kExclusive;
  static constexpr lock_order::LockMode kS = lock_order::LockMode::kShared;

  std::shared_mutex mu_;
  uint32_t order_class_ = 0;
};

// ---------------------------------------------------------------------------
// Scoped lockers. These replace std::lock_guard / std::unique_lock /
// std::shared_lock at every call site: the std lockers have no thread-safety
// annotations, so guarded-field accesses under them would not be credited.

class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() {
    if (held_) mu_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Manual unlock/relock inside the scope (e.g. dropping the lock across an
  // RPC and re-acquiring afterwards — raft's replicator loop).
  void Unlock() RELEASE() {
    mu_.Unlock();
    held_ = false;
  }
  void Lock() ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() { mu_.ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// ---------------------------------------------------------------------------
// cfs::CondVar — condition variable waiting directly on cfs::Mutex, so the
// wait's internal unlock/relock flows through the order-tracker hooks and
// the analysis sees the lock held across the wait (the abseil convention:
// Wait REQUIRES the mutex).
//
// Deliberately no predicate-lambda overloads: the analysis checks lambda
// bodies separately and cannot credit the held lock to guarded fields read
// inside them. Call sites spell the loop out:
//     while (!condition) cv.Wait(mu);

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS { cv_.wait(mu); }

  // Returns false if `deadline` passed without a notification.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_until(mu, deadline) == std::cv_status::no_timeout;
  }

  // Returns false on timeout.
  bool WaitForMicros(Mutex& mu, int64_t micros) REQUIRES(mu)
      NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_for(mu, std::chrono::microseconds(micros)) ==
           std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace cfs

#endif  // CFS_COMMON_THREAD_ANNOTATIONS_H_
