#include "src/txn/lock_manager.h"

#include <algorithm>
#include <chrono>

#include "src/common/metrics.h"
#include "src/common/trace_event.h"

namespace cfs {
namespace {

// Cached global-registry instruments shared by all LockManager instances.
struct LockMetrics {
  Counter* acquisitions;
  Counter* contended;
  Counter* timeouts;
  Counter* wait_us;
  Gauge* waiters;
};

LockMetrics& Metrics() {
  static LockMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return LockMetrics{r.GetCounter("lockmgr.acquisitions"),
                       r.GetCounter("lockmgr.contended"),
                       r.GetCounter("lockmgr.timeouts"),
                       r.GetCounter("lockmgr.wait_us"),
                       r.GetGauge("lockmgr.waiters")};
  }();
  return m;
}

}  // namespace

LockManager::LockManager(LockManagerOptions options, const Clock* clock,
                         const char* scope_class,
                         const char* scope_justification)
    : options_(options), clock_(clock) {
  // Rank 0: logical scope entries are exempt from the rank/cycle checks
  // (deadlock escape is the timeout above); the class exists for the
  // RPC-under-lock and hold-span audit.
  if constexpr (lock_order::kTracking) {
    scope_class_ = lock_order::RegisterClass(
        scope_class, 0, lock_order::RpcHoldPolicy::kAllowedAcrossRpc,
        scope_justification);
  }
}

void LockManager::ScopeEnter() {
  if constexpr (lock_order::kTracking) lock_order::OnScopeEnter(scope_class_);
}

void LockManager::ScopeExit() {
  if constexpr (lock_order::kTracking) lock_order::OnScopeExit(scope_class_);
}

bool LockManager::CanGrantLocked(const Entry& e, TxnId txn, LockMode mode,
                                 uint64_t ticket) const {
  auto self = e.holders.find(txn);
  if (self != e.holders.end()) {
    if (self->second == LockMode::kExclusive || mode == LockMode::kShared) {
      return true;  // reentrant
    }
    // Upgrade S -> X: only as the sole holder; upgrades may jump the queue
    // (queued writers would otherwise deadlock against us).
    return e.holders.size() == 1;
  }
  if (mode == LockMode::kShared) {
    for (const auto& [holder, held_mode] : e.holders) {
      if (held_mode == LockMode::kExclusive) return false;
    }
    // Don't overtake an earlier-queued writer (starvation control).
    for (const auto& w : e.queue) {
      if (w.ticket >= ticket) break;
      if (w.mode == LockMode::kExclusive) return false;
    }
    return true;
  }
  // Exclusive: no other holders and nobody queued ahead.
  if (!e.holders.empty()) return false;
  for (const auto& w : e.queue) {
    if (w.ticket < ticket) return false;
    break;
  }
  return true;
}

Status LockManager::Lock(TxnId txn, std::string_view key, LockMode mode,
                         int64_t timeout_us) {
  if (timeout_us < 0) timeout_us = options_.default_timeout_us;
  MutexLock lock(mu_);
  auto& entry = table_[std::string(key)];

  // Fast path.
  if (CanGrantLocked(entry, txn, mode, next_ticket_)) {
    auto [it, inserted] = entry.holders.emplace(txn, mode);
    if (!inserted && mode == LockMode::kExclusive) {
      it->second = LockMode::kExclusive;  // upgrade
    }
    auto& txn_keys = held_[txn];
    bool first_key = txn_keys.empty();
    txn_keys.insert(std::string(key));
    if (first_key) ScopeEnter();
    stats_.acquisitions++;
    Metrics().acquisitions->Add();
    return Status::Ok();
  }

  // Contended: enqueue and wait.
  uint64_t ticket = next_ticket_++;
  entry.queue.push_back(Waiter{txn, mode, ticket});
  stats_.contended_acquisitions++;
  Metrics().contended->Add();
  Metrics().waiters->Add(1);
  MonoNanos start = clock_->NowNanos();
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout_us);
  bool granted = false;
  while (!granted) {
    auto& e = table_[std::string(key)];
    if (CanGrantLocked(e, txn, mode, ticket)) {
      granted = true;
      break;
    }
    if (!cv_.WaitUntil(mu_, deadline)) {
      auto& e2 = table_[std::string(key)];
      if (CanGrantLocked(e2, txn, mode, ticket)) {
        granted = true;
        break;
      }
      // Remove our waiter entry and give up.
      auto& q = e2.queue;
      q.erase(std::remove_if(q.begin(), q.end(),
                             [&](const Waiter& w) { return w.ticket == ticket; }),
              q.end());
      stats_.timeouts++;
      int64_t waited = (clock_->NowNanos() - start) / 1000;
      stats_.total_wait_us += waited;
      OpTrace::AddPhase(Phase::kLockWait, waited);
      // Causal-trace mirror of the AddPhase stamp: a span covering the
      // in-queue wait (thread-local write, safe under mu_).
      trace::CompleteSpan(trace::Category::kLock, "queue_timeout", waited,
                          static_cast<uint8_t>(Phase::kLockWait));
      Metrics().timeouts->Add();
      Metrics().wait_us->Add(static_cast<uint64_t>(waited));
      Metrics().waiters->Add(-1);
      cv_.NotifyAll();
      return Status::Timeout("lock timeout on " + std::string(key));
    }
  }
  auto& e = table_[std::string(key)];
  auto& q = e.queue;
  q.erase(std::remove_if(q.begin(), q.end(),
                         [&](const Waiter& w) { return w.ticket == ticket; }),
          q.end());
  auto [it, inserted] = e.holders.emplace(txn, mode);
  if (!inserted && mode == LockMode::kExclusive) {
    it->second = LockMode::kExclusive;
  }
  auto& txn_keys = held_[txn];
  bool first_key = txn_keys.empty();
  txn_keys.insert(std::string(key));
  if (first_key) ScopeEnter();
  stats_.acquisitions++;
  int64_t waited = (clock_->NowNanos() - start) / 1000;
  stats_.total_wait_us += waited;
  OpTrace::AddPhase(Phase::kLockWait, waited);
  trace::CompleteSpan(trace::Category::kLock, "queue_wait", waited,
                      static_cast<uint8_t>(Phase::kLockWait));
  Metrics().acquisitions->Add();
  Metrics().wait_us->Add(static_cast<uint64_t>(waited));
  Metrics().waiters->Add(-1);
  // Our grant may unblock compatible readers queued behind us.
  cv_.NotifyAll();
  return Status::Ok();
}

Status LockManager::LockAll(TxnId txn, std::vector<std::string> keys,
                            LockMode mode, int64_t timeout_us) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::string> acquired;
  for (const auto& key : keys) {
    Status st = Lock(txn, key, mode, timeout_us);
    if (!st.ok()) {
      for (const auto& k : acquired) {
        Unlock(txn, k);
      }
      return st;
    }
    acquired.push_back(key);
  }
  return Status::Ok();
}

void LockManager::Unlock(TxnId txn, std::string_view key) {
  MutexLock lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) return;
  it->second.holders.erase(txn);
  auto hit = held_.find(txn);
  if (hit != held_.end()) {
    hit->second.erase(std::string(key));
    if (hit->second.empty()) {
      held_.erase(hit);
      ScopeExit();
    }
  }
  if (it->second.holders.empty() && it->second.queue.empty()) {
    table_.erase(it);
  }
  cv_.NotifyAll();
}

void LockManager::UnlockAll(TxnId txn) {
  MutexLock lock(mu_);
  auto hit = held_.find(txn);
  if (hit == held_.end()) return;
  for (const auto& key : hit->second) {
    auto it = table_.find(key);
    if (it == table_.end()) continue;
    it->second.holders.erase(txn);
    if (it->second.holders.empty() && it->second.queue.empty()) {
      table_.erase(it);
    }
  }
  held_.erase(hit);
  ScopeExit();
  cv_.NotifyAll();
}

bool LockManager::IsLocked(std::string_view key) const {
  MutexLock lock(mu_);
  auto it = table_.find(key);
  return it != table_.end() && !it->second.holders.empty();
}

size_t LockManager::HeldCount(TxnId txn) const {
  MutexLock lock(mu_);
  auto it = held_.find(txn);
  return it == held_.end() ? 0 : it->second.size();
}

// The legacy thread-wait accessors are pure delegates to the kLockWait
// phase of the thread's OpTrace, so span-based and counter-based callers
// agree on one number.
void LockManager::ResetThreadWait() { OpTrace::ClearPhase(Phase::kLockWait); }
int64_t LockManager::ThreadWaitMicros() {
  return OpTrace::PhaseUs(Phase::kLockWait);
}
void LockManager::AddThreadWait(int64_t micros) {
  OpTrace::AddPhase(Phase::kLockWait, micros);
  trace::CompleteSpan(trace::Category::kLock, "thread_wait", micros,
                      static_cast<uint8_t>(Phase::kLockWait));
}

LockManager::Stats LockManager::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace cfs
