// Virtual time for discrete-event simulation (DESIGN.md §11).
//
// A simtime::Scheduler owns a monotonically advancing virtual clock and a
// min-heap of pending events. One OS thread drives it (RunUntil); while it
// does, the scheduler is published as the thread's *current* scheduler, and
// everything the dispatched task touches — SimNet latency injection, WAL
// fsync delay, LoadGate processing cost, OpTrace/TraceSpan timestamps —
// reads virtual time instead of sleeping or reading the steady clock.
//
// Execution model: run-to-completion with latency accrual. A dispatched
// task executes synchronously to completion on the scheduler thread; every
// modelled delay it hits calls AdvanceUs, which accrues onto the task-local
// clock (task_now_us = dispatch time + accrued so far) without yielding.
// A closed-loop client reschedules its next op At(task_now_us()), so the
// delays it accrued become the virtual spacing between its ops. This is
// weaker than a full coroutine DES — while one task runs, virtual time may
// locally run ahead of events still queued behind it — but dispatch order
// is a deterministic function of the event heap alone, which is the
// property replay needs (§11 discusses the approximation).
//
// Determinism: the scheduler's PRNG (NextRand) is the only randomness
// source virtual-mode components may use, and it is consumed in dispatch
// order, so identical seeds replay identical interleavings, latencies and
// results. Nothing here is thread-safe by design: all scheduling must
// happen on the driving thread (checked).

#ifndef CFS_COMMON_SIMTIME_H_
#define CFS_COMMON_SIMTIME_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/clock.h"

namespace cfs {
namespace simtime {

// Preemption-point kinds for schedule fuzzing (FuzzPoint below).
enum class FuzzKind : uint8_t {
  kLockAcquire = 0,
  kLockRelease = 1,
  kRpcEdge = 2,
  kWalFsync = 3,
};
inline constexpr size_t kNumFuzzKinds = 4;

// PCT-inspired seeded schedule perturbation (DESIGN.md §12). Under the
// run-to-completion accrual model there is no mid-task preemption to force;
// what reorders interleavings is *when* each task's next event lands and
// how same-time events tie-break. Fuzzing perturbs both, deterministically:
//
//   1. Every event pushed while fuzzing gets a priority drawn from a
//      dedicated SplitMix64 stream; same-virtual-time events dispatch in
//      priority order instead of FIFO (the priority-perturbation leg).
//   2. At every instrumented preemption point — lock acquire/release
//      (lock_order hooks), SimNet RPC edges, WAL fsync — FuzzPoint()
//      accrues, with probability prob_pct, a random virtual delay in
//      [1, max_perturb_us], sliding the running task's subsequent events
//      (and thus every lock-acquisition race) across other tasks' slots.
//
// The fuzz stream is separate from the scheduler's main PRNG so a seed
// sweep varies only the schedule, and identical (seed, fuzz seed) pairs
// replay byte-identically. Env knobs (read once, at Scheduler
// construction): CFS_SIM_FUZZ=1 enables, CFS_SIM_FUZZ_SEED (default:
// derived from the scheduler seed), CFS_SIM_FUZZ_PROB_PCT (default 25),
// CFS_SIM_FUZZ_MAX_US (default 50).
struct FuzzOptions {
  bool enabled = false;
  uint64_t seed = 0;  // 0 = derive from the scheduler seed
  uint32_t prob_pct = 25;
  int64_t max_perturb_us = 50;

  // Defaults overlaid with the CFS_SIM_FUZZ* environment knobs.
  static FuzzOptions FromEnv();
};

class Scheduler {
 public:
  explicit Scheduler(uint64_t seed = 42);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Schedules `fn` at virtual time `t_us` (clamped to now: scheduling into
  // the past dispatches in the current time slot, after already-queued
  // events of that slot — ties dispatch FIFO by insertion). Must be called
  // from the driving thread (inside RunUntil) or before/between runs.
  void At(int64_t t_us, std::function<void()> fn);
  // Schedules `fn` at task_now_us() + delta_us.
  void After(int64_t delta_us, std::function<void()> fn);

  // Dispatches events in (time, insertion) order until the heap is empty or
  // the next event is past `deadline_us`; leaves now_us() == deadline_us.
  // Publishes this scheduler as Current() for the duration.
  void RunUntil(int64_t deadline_us);

  // Drops all pending events (callers whose event closures are about to go
  // out of scope must cancel before returning). Returns how many.
  size_t CancelPending();

  // Virtual dispatch clock: the time of the event being dispatched. Never
  // decreases.
  int64_t now_us() const { return now_us_; }
  // Task-local clock: dispatch time plus delay accrued by the running task.
  int64_t task_now_us() const { return now_us_ + accrued_us_; }
  // Accrues `us` of modelled delay onto the running task (no-op if <= 0).
  void AdvanceUs(int64_t us) {
    if (us > 0) accrued_us_ += us;
  }

  // The seeded PRNG stream (SplitMix64). Sole randomness source for
  // virtual-mode components; consumed in dispatch order.
  uint64_t NextRand();

  // Installs a schedule-fuzz configuration (overriding the env-derived one
  // applied at construction). Affects events pushed from now on.
  void SetFuzz(const FuzzOptions& fuzz);
  const FuzzOptions& fuzz() const { return fuzz_; }

  // Called by the instrumented preemption points via the free FuzzPoint();
  // draws from the fuzz stream and maybe accrues a perturbation delay.
  void FuzzPointHit(FuzzKind kind);
  // Perturbations applied per kind (diagnostics / tests).
  uint64_t fuzz_perturbations(FuzzKind kind) const {
    return fuzz_hits_[static_cast<size_t>(kind)];
  }

  uint64_t seed() const { return seed_; }
  uint64_t events_run() const { return events_run_; }
  size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    int64_t t_us;
    uint64_t pri;  // fuzzing: seeded draw; otherwise 0 (FIFO by seq)
    uint64_t seq;  // insertion order; breaks time (and priority) ties FIFO
    uint64_t race_token;  // race-detector HB token (0 when detector is off)
    std::function<void()> fn;
  };
  // std::push_heap/pop_heap max-heap comparator: "a after b".
  static bool Later(const Event& a, const Event& b) {
    if (a.t_us != b.t_us) return a.t_us > b.t_us;
    if (a.pri != b.pri) return a.pri > b.pri;
    return a.seq > b.seq;
  }

  std::vector<Event> heap_;
  int64_t now_us_ = 0;
  int64_t accrued_us_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  uint64_t seed_;
  uint64_t rng_state_;
  FuzzOptions fuzz_;
  uint64_t fuzz_rng_state_ = 0;
  uint64_t fuzz_hits_[kNumFuzzKinds] = {};
  bool running_ = false;
};

// The scheduler driving this thread (set for the duration of RunUntil), or
// nullptr on every other thread — the discriminator every sim-aware delay
// and clock site branches on.
Scheduler* Current();

// Virtual task-clock nanoseconds under a driving scheduler, real
// steady-clock nanoseconds otherwise. Timestamp source for OpTrace,
// TraceSpan and causal-trace events.
int64_t NowNanosOrReal();

// The one wall-clock sleep for modelled delay (RTT, service time, fsync).
// Linux lets a thread's timer fire up to its timer slack late, 50 µs by
// default, so a 150 µs sleep takes ~210 µs there. The first call on a
// thread sets that thread's slack to 1 ns (prctl PR_SET_TIMERSLACK, a
// per-thread attribute), so the sleep ends close to `us`; it never ends
// early. No-op if us <= 0.
void SleepUs(int64_t us);

// Charges `us` of modelled delay: accrues virtual time under a driving
// scheduler, SleepUs otherwise.
void AdvanceOrSleepUs(int64_t us);

// Preemption point: forwards to the driving scheduler's FuzzPointHit when
// there is one with fuzzing enabled; free otherwise (one TLS read).
inline void FuzzPoint(FuzzKind kind) {
  Scheduler* sched = Current();
  if (sched != nullptr && sched->fuzz().enabled) sched->FuzzPointHit(kind);
}

// Clock facade over NowNanosOrReal, for components that take a Clock*
// (e.g. the dentry cache's TTL checks must expire in virtual time during a
// simulated run and wall time otherwise).
class SimAwareClock : public Clock {
 public:
  static const SimAwareClock* Get();
  MonoNanos NowNanos() const override { return NowNanosOrReal(); }
};

}  // namespace simtime
}  // namespace cfs

#endif  // CFS_COMMON_SIMTIME_H_
