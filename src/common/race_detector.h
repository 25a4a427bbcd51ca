// Dynamic race & atomicity auditor (DESIGN.md §12) — the runtime half of
// the GUARDED_BY coverage story. The static thread-safety analysis
// (thread_annotations.h + the guarded-by rule of scripts/lint.sh) proves
// every *declared* guard relationship at compile time under clang; this
// module checks, while the code actually runs, that every annotated shared
// access really happens under the right lock — and that no schedule the
// virtual-time fuzzer (simtime::Scheduler::SetFuzz) can produce breaks that
// property.
//
// Lineage: Eraser's lockset algorithm refined with FastTrack-style
// happens-before exoneration, at the granularity this codebase already made
// first-class — named lock *classes* (lock_order.h), not mutex instances.
//
//   - Locksets. The detector keeps no lock state of its own: it reads the
//     calling thread's held-lock record in lock_order (HeldLocks), the one
//     the deadlock tracker and scope auditor keep, and derives the set of
//     classes held in any mode and the set held exclusive from it. Because
//     the record is kept whether or not the detector is armed, locks taken
//     before arming count. LockManager row locks and other logical critical
//     sections are scope entries in the same record.
//
//   - Access annotations. CFS_SHARED_READ(field, mu) / CFS_SHARED_WRITE
//     (field, mu) are one-line markers placed at a shared field's access
//     sites; they record (address, declared lock class, mode) against the
//     calling context. race::AccessScope is the RAII form for compound
//     read-modify-write regions: it additionally re-checks at destruction
//     that the declared lock was held for the *whole* scope (an atomicity
//     check — catches a guard dropped mid-update).
//
//   - Checks. Two violation kinds, reported by lock-class name, field name,
//     site, lockset, and active trace id (trace_event.h):
//       kUnheldDeclaredLock ("empty lockset" w.r.t. the declaration): the
//         annotated access ran without its declared class held — writes
//         require exclusive mode, reads accept shared.
//       kLocksetEmpty (lockset intersection): the set of classes held at
//         *every* access to the location since it became shared has drained
//         to empty, and the conflicting accesses are not ordered by
//         happens-before — the Eraser condition.
//
//   - Happens-before. Per-context vector clocks, joined through lock-class
//     release→acquire edges (lock_order calls OnLockAcquired once the mutex
//     is owned and OnLockReleased before it is unlocked, only while the
//     detector is armed) and through simtime scheduling edges (a task
//     that schedules an event happens-before that event). Contexts are OS
//     threads plus simulated tasks: the scheduler multiplexes thousands of
//     logical clients onto one driving thread, and treating them as one
//     context would order everything and detect nothing. An event created
//     from inside a task continues that task's context (closed-loop clients
//     are sequential chains); an event created outside any task gets a
//     fresh context.
//
// The init-then-share idiom does not report: a location stays in an
// exclusive state while one context accesses it, and ownership transfers
// silently when the old owner's accesses happen-before the new context.
//
// Determinism: under a seeded simtime::Scheduler every context id, clock
// tick and report is a pure function of the seed, so a schedule-fuzz hit
// replays byte-identically (Fingerprint()); context-id salting in report
// fingerprints uses the same SplitMix64 stream discipline as the scheduler.
//
// Compiled in with the lock-order tracker (CMake option CFS_LOCK_ORDER,
// default ON; with it off the access annotations are no-ops and Enabled()
// is always false). Runtime-armed by env CFS_RACE_DETECT=1 or
// SetEnabled(true); disarmed it costs one relaxed atomic load per lock
// operation. Reports print to stderr and accumulate (bounded);
// CFS_RACE_ABORT=1 / SetAbortOnReport makes the first report fatal — the
// mode the planted-race death tests and the CI race-audit job run in.
// CFS_RACE_MAX_REPORTS bounds the retained list.

#ifndef CFS_COMMON_RACE_DETECTOR_H_
#define CFS_COMMON_RACE_DETECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cfs {
namespace race {

struct Report {
  enum class Kind : uint8_t {
    kUnheldDeclaredLock,  // annotated access without its declared class held
    kLocksetEmpty,        // candidate lockset drained, accesses unordered
    kScopeGuardDropped,   // AccessScope: declared lock released mid-scope
  };
  Kind kind = Kind::kUnheldDeclaredLock;
  std::string field;          // annotated field name (#field)
  std::string declared_lock;  // lock-class name named in the annotation
  std::string locks_held;     // comma-joined lockset at the access
  std::string prior;          // prior conflicting access "ctx/clock/locks"
  std::string file;
  int line = 0;
  bool is_write = false;
  uint32_t ctx = 0;           // context (thread or sim task) id
  uint64_t trace_id = 0;      // active causal trace, 0 if none
  int64_t virtual_us = -1;    // simtime task clock, -1 off-scheduler
};

const char* ReportKindName(Report::Kind kind);

// Deterministic one-line summary (no wall-clock content): what the
// same-seed reproducibility tests and the race-audit artifact compare.
std::string Fingerprint(const Report& report);

// ---------------------------------------------------------------------------
// Runtime switches. Enabled() reads env CFS_RACE_DETECT on first call;
// AbortOnReport() reads CFS_RACE_ABORT.

void SetEnabled(bool enabled);
bool Enabled();
void SetAbortOnReport(bool abort_on_report);
bool AbortOnReport();

// ---------------------------------------------------------------------------
// Happens-before hooks, called by lock_order only while armed: the join
// after a lock of class `cls` (> 0) is owned, and the publish before it is
// released. Scope entries count as exclusive locks of their class.

void OnLockAcquired(uint32_t cls);
void OnLockReleased(uint32_t cls);

// Hooks from simtime::Scheduler, giving simulated tasks their own contexts
// and the creator→event happens-before edge. OnTaskCreate returns a token
// for the future event (0 when disabled — pass it back verbatim).
uint64_t OnTaskCreate();
void OnTaskBegin(uint64_t token);
void OnTaskEnd();

// ---------------------------------------------------------------------------
// Access recording (what the CFS_SHARED_* macros expand to).

void RecordAccess(const void* addr, const char* field, uint32_t declared_cls,
                  bool is_write, const char* file, int line);

// RAII compound-access region: records the access up front and verifies at
// destruction that the declared class is still held (atomicity of the whole
// region, not just the first touch).
class AccessScope {
 public:
  AccessScope(const void* addr, const char* field, uint32_t declared_cls,
              bool is_write, const char* file, int line);
  ~AccessScope();

  AccessScope(const AccessScope&) = delete;
  AccessScope& operator=(const AccessScope&) = delete;

 private:
  const char* field_;
  uint32_t declared_cls_;
  const char* file_;
  int line_;
  bool armed_;
  // Declared class's release count at entry (lock_order::ReleaseCount);
  // any change by destruction means the guard was dropped (even if
  // reacquired) mid-region.
  uint64_t releases_at_entry_ = 0;
};

// ---------------------------------------------------------------------------
// Results & test support.

size_t ReportCount();                 // total reports (including dropped)
std::vector<Report> Reports();        // retained reports, oldest first
void ResetForTest();                  // drops reports + location table + VCs

}  // namespace race
}  // namespace cfs

// ---------------------------------------------------------------------------
// Annotation macros. `mu` is a cfs::Mutex / cfs::SharedMutex (anything with
// an order_class()); `field` is the shared member the statement touches.
// Place at the access site, inside the critical section:
//
//   WriterMutexLock lock(epoch_mu_);
//   CFS_SHARED_WRITE(dir_epochs_, epoch_mu_);
//   dir_epochs_[dir]++;
//
// No-ops (to the last token) when the lock-order tracker is compiled out.

#ifdef CFS_LOCK_ORDER_TRACKING
#define CFS_SHARED_WRITE(field, mu)                                       \
  ::cfs::race::RecordAccess(&(field), #field, (mu).order_class(),         \
                            /*is_write=*/true, __FILE__, __LINE__)
#define CFS_SHARED_READ(field, mu)                                        \
  ::cfs::race::RecordAccess(&(field), #field, (mu).order_class(),         \
                            /*is_write=*/false, __FILE__, __LINE__)
#define CFS_ACCESS_SCOPE(scope_name, field, mu, is_write)                 \
  ::cfs::race::AccessScope scope_name(&(field), #field, (mu).order_class(), \
                                      (is_write), __FILE__, __LINE__)
#else
#define CFS_SHARED_WRITE(field, mu) ((void)0)
#define CFS_SHARED_READ(field, mu) ((void)0)
#define CFS_ACCESS_SCOPE(scope_name, field, mu, is_write) ((void)0)
#endif

#endif  // CFS_COMMON_RACE_DETECTOR_H_
