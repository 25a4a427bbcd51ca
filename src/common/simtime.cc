#include "src/common/simtime.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "src/common/check.h"
#include "src/common/race_detector.h"
#include "src/common/random.h"

namespace cfs {
namespace simtime {
namespace {

thread_local Scheduler* t_current = nullptr;

int64_t EnvInt64(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return def;
  return std::strtoll(v, nullptr, 10);
}

}  // namespace

FuzzOptions FuzzOptions::FromEnv() {
  FuzzOptions fuzz;
  fuzz.enabled = EnvInt64("CFS_SIM_FUZZ", 0) != 0;
  fuzz.seed = static_cast<uint64_t>(EnvInt64("CFS_SIM_FUZZ_SEED", 0));
  fuzz.prob_pct = static_cast<uint32_t>(
      std::clamp<int64_t>(EnvInt64("CFS_SIM_FUZZ_PROB_PCT", 25), 0, 100));
  fuzz.max_perturb_us =
      std::max<int64_t>(EnvInt64("CFS_SIM_FUZZ_MAX_US", 50), 1);
  return fuzz;
}

Scheduler::Scheduler(uint64_t seed)
    : seed_(seed), rng_state_(seed ^ 0x9e3779b97f4a7c15ULL) {
  SetFuzz(FuzzOptions::FromEnv());
}

Scheduler::~Scheduler() {
  CFS_CHECK(!running_);
  CFS_CHECK(t_current != this);
}

void Scheduler::At(int64_t t_us, std::function<void()> fn) {
  // Scheduling is only legal from the driving thread: the heap is
  // deliberately unsynchronized so dispatch order is a pure function of
  // its contents.
  CFS_CHECK(!running_ || t_current == this);
  uint64_t pri = fuzz_.enabled ? SplitMix64(fuzz_rng_state_) : 0;
  heap_.push_back(Event{std::max(t_us, now_us_), pri, next_seq_++,
                        race::OnTaskCreate(), std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

void Scheduler::After(int64_t delta_us, std::function<void()> fn) {
  At(task_now_us() + std::max<int64_t>(delta_us, 0), std::move(fn));
}

void Scheduler::RunUntil(int64_t deadline_us) {
  CFS_CHECK(!running_);
  CFS_CHECK(t_current == nullptr);
  running_ = true;
  t_current = this;
  while (!heap_.empty() && heap_.front().t_us <= deadline_us) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Event event = std::move(heap_.back());
    heap_.pop_back();
    now_us_ = std::max(now_us_, event.t_us);
    accrued_us_ = 0;
    events_run_++;
    race::OnTaskBegin(event.race_token);
    event.fn();
    race::OnTaskEnd();
  }
  now_us_ = std::max(now_us_, deadline_us);
  accrued_us_ = 0;
  t_current = nullptr;
  running_ = false;
}

size_t Scheduler::CancelPending() {
  size_t n = heap_.size();
  heap_.clear();
  return n;
}

uint64_t Scheduler::NextRand() { return SplitMix64(rng_state_); }

void Scheduler::SetFuzz(const FuzzOptions& fuzz) {
  fuzz_ = fuzz;
  if (fuzz_.seed == 0) fuzz_.seed = seed_ ^ 0xf0221f0221f0221fULL;
  fuzz_rng_state_ = fuzz_.seed;
}

void Scheduler::FuzzPointHit(FuzzKind kind) {
  if (!fuzz_.enabled) return;
  // Draw unconditionally so the stream position depends only on the
  // sequence of preemption points, not on which ones fired.
  uint64_t draw = SplitMix64(fuzz_rng_state_);
  if (fuzz_.prob_pct == 0 || (draw % 100) >= fuzz_.prob_pct) return;
  int64_t us = 1 + static_cast<int64_t>(
                       SplitMix64(fuzz_rng_state_) %
                       static_cast<uint64_t>(fuzz_.max_perturb_us));
  fuzz_hits_[static_cast<size_t>(kind)]++;
  AdvanceUs(us);
}

Scheduler* Current() { return t_current; }

int64_t NowNanosOrReal() {
  Scheduler* sched = t_current;
  return sched != nullptr ? sched->task_now_us() * 1000
                          : RealClock::Get()->NowNanos();
}

void SleepUs(int64_t us) {
  if (us <= 0) return;
#ifdef __linux__
  // Runs once per thread, on its first modelled sleep.
  [[maybe_unused]] thread_local const int t_slack =
      prctl(PR_SET_TIMERSLACK, 1UL);
#endif
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

void AdvanceOrSleepUs(int64_t us) {
  Scheduler* sched = t_current;
  if (sched != nullptr) {
    sched->AdvanceUs(us);
  } else {
    SleepUs(us);
  }
}

const SimAwareClock* SimAwareClock::Get() {
  static const SimAwareClock clock;
  return &clock;
}

}  // namespace simtime
}  // namespace cfs
