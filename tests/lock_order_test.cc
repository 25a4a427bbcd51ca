// Tests for the runtime lock-order tracker (src/common/lock_order.h) and
// the annotated cfs::Mutex / cfs::SharedMutex / cfs::CondVar wrappers
// (src/common/thread_annotations.h).
//
// Lock-class names are process-global and live for the process lifetime, so
// every test uses names unique to itself ("t.<test>.<lock>"); rank-0 classes
// exercise the held-before graph alone, ranked classes the rank rule.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/lock_order.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/simtime.h"
#include "src/common/thread_annotations.h"

namespace cfs {
namespace {

using lock_order::Violation;

#ifdef CFS_LOCK_ORDER_TRACKING

// Installs a recording handler for the test's lifetime (the default handler
// aborts the process) and resets the held-before graph so tests do not see
// edges recorded by earlier tests or by static initialization.
class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lock_order::ResetGraphForTest();
    lock_order::SetViolationHandler(
        [this](const Violation& v) { violations_.push_back(v); });
  }

  void TearDown() override {
    lock_order::SetViolationHandler(nullptr);
    lock_order::ResetGraphForTest();
  }

  std::vector<Violation> violations_;
};

TEST_F(LockOrderTest, RankRespectingNestingIsSilent) {
  Mutex outer{"t.silent.outer", 101};
  Mutex inner{"t.silent.inner", 102};
  for (int i = 0; i < 3; i++) {
    MutexLock a(outer);
    MutexLock b(inner);
    EXPECT_TRUE(violations_.empty());
  }
  EXPECT_TRUE(violations_.empty());
  EXPECT_EQ(lock_order::HeldLocks().size(), 0u);
}

TEST_F(LockOrderTest, RankInversionReportsBothNames) {
  Mutex low{"t.rank.low", 110};
  Mutex high{"t.rank.high", 111};
  {
    MutexLock a(high);
    MutexLock b(low);  // rank 110 while holding rank 111: inversion
  }
  ASSERT_EQ(violations_.size(), 1u);
  const Violation& v = violations_[0];
  EXPECT_EQ(v.kind, Violation::Kind::kRank);
  EXPECT_EQ(v.acquiring, "t.rank.low");
  EXPECT_EQ(v.acquiring_rank, 110);
  EXPECT_EQ(v.held, "t.rank.high");
  EXPECT_EQ(v.held_rank, 111);
}

TEST_F(LockOrderTest, UnrankedClassesSkipTheRankRule) {
  // Rank 0 opts out of the rank rule: nesting under a ranked lock in either
  // order is fine as long as the graph stays acyclic.
  Mutex ranked{"t.unranked.ranked", 120};
  Mutex graph_only{"t.unranked.free", 0};
  {
    MutexLock a(ranked);
    MutexLock b(graph_only);
  }
  {
    // Same order again — consistent, so still silent.
    MutexLock a(ranked);
    MutexLock b(graph_only);
  }
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockOrderTest, InvertedOrderReportsCycleWithBothNames) {
  Mutex a{"t.cycle.a", 0};
  Mutex b{"t.cycle.b", 0};
  {
    MutexLock la(a);
    MutexLock lb(b);  // records a -> b
  }
  EXPECT_TRUE(violations_.empty());
  {
    MutexLock lb(b);
    MutexLock la(a);  // a already reaches b: deadlock potential
  }
  ASSERT_EQ(violations_.size(), 1u);
  const Violation& v = violations_[0];
  EXPECT_EQ(v.kind, Violation::Kind::kCycle);
  EXPECT_EQ(v.acquiring, "t.cycle.a");
  EXPECT_EQ(v.held, "t.cycle.b");
  // The report's elaboration names the path closing the cycle.
  EXPECT_NE(v.detail.find("t.cycle.a"), std::string::npos);
  EXPECT_NE(v.detail.find("t.cycle.b"), std::string::npos);
}

TEST_F(LockOrderTest, CycleAcrossThreeClassesIsDetected) {
  Mutex a{"t.cycle3.a", 0};
  Mutex b{"t.cycle3.b", 0};
  Mutex c{"t.cycle3.c", 0};
  {
    MutexLock la(a);
    MutexLock lb(b);  // a -> b
  }
  {
    MutexLock lb(b);
    MutexLock lc(c);  // b -> c
  }
  EXPECT_TRUE(violations_.empty());
  {
    MutexLock lc(c);
    MutexLock la(a);  // a reaches c transitively: cycle
  }
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].kind, Violation::Kind::kCycle);
  EXPECT_EQ(violations_[0].acquiring, "t.cycle3.a");
  EXPECT_EQ(violations_[0].held, "t.cycle3.c");
}

TEST_F(LockOrderTest, InversionsAreSeenAcrossThreads) {
  // The whole point of the graph: thread 1 executes a -> b, thread 2
  // executes b -> a, and the second thread gets the report even though
  // neither thread ever deadlocks in this run.
  Mutex a{"t.xthread.a", 0};
  Mutex b{"t.xthread.b", 0};
  std::thread t1([&] {
    MutexLock la(a);
    MutexLock lb(b);
  });
  t1.join();
  EXPECT_TRUE(violations_.empty());
  // Handler runs on the violating thread; collect into a local vector.
  std::vector<Violation> remote;
  lock_order::SetViolationHandler(
      [&remote](const Violation& v) { remote.push_back(v); });
  std::thread t2([&] {
    MutexLock lb(b);
    MutexLock la(a);
  });
  t2.join();
  ASSERT_EQ(remote.size(), 1u);
  EXPECT_EQ(remote[0].kind, Violation::Kind::kCycle);
  EXPECT_EQ(remote[0].acquiring, "t.xthread.a");
  EXPECT_EQ(remote[0].held, "t.xthread.b");
}

TEST_F(LockOrderTest, RecursiveAcquisitionReportsSelf) {
  // Driven through the hook API: actually relocking a std::mutex would
  // deadlock before the expectation ran. In production the report aborts,
  // so the underlying relock is never reached.
  uint32_t cls = lock_order::RegisterClass("t.self.mu", 0);
  lock_order::OnAcquire(cls, lock_order::LockMode::kExclusive);
  lock_order::OnAcquire(cls, lock_order::LockMode::kExclusive);
  ASSERT_GE(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].kind, Violation::Kind::kSelf);
  EXPECT_EQ(violations_[0].acquiring, "t.self.mu");
  lock_order::OnRelease(cls);
  lock_order::OnRelease(cls);
  EXPECT_EQ(lock_order::HeldLocks().size(), 0u);
}

TEST_F(LockOrderTest, RepeatedInversionKeepsReporting) {
  // The inverted edge is never admitted to the graph, so re-executing the
  // bad order re-reports instead of silently "sanctioning" it.
  Mutex a{"t.repeat.a", 0};
  Mutex b{"t.repeat.b", 0};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  for (int i = 0; i < 2; i++) {
    MutexLock lb(b);
    MutexLock la(a);
  }
  EXPECT_EQ(violations_.size(), 2u);
}

TEST_F(LockOrderTest, TryLockIsRecordedButNotChecked) {
  Mutex low{"t.try.low", 130};
  Mutex high{"t.try.high", 131};
  {
    MutexLock a(high);
    // A try-acquisition never blocks, so it is exempt from the order check…
    ASSERT_TRUE(low.TryLock());
    EXPECT_TRUE(violations_.empty());
    EXPECT_EQ(lock_order::HeldLocks().size(), 2u);
    low.Unlock();
  }
  // …but a blocking acquisition made while a try-lock is held is checked
  // against it.
  ASSERT_TRUE(high.TryLock());
  {
    MutexLock b(low);  // rank 130 while holding rank 131
  }
  high.Unlock();
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].kind, Violation::Kind::kRank);
  EXPECT_EQ(violations_[0].held, "t.try.high");
}

TEST_F(LockOrderTest, SharedMutexParticipatesInOrdering) {
  SharedMutex rw{"t.shared.rw", 141};
  Mutex low{"t.shared.low", 140};
  {
    ReaderMutexLock r(rw);
    EXPECT_EQ(lock_order::HeldLocks().size(), 1u);
  }
  {
    WriterMutexLock w(rw);
    EXPECT_EQ(lock_order::HeldLocks().size(), 1u);
  }
  EXPECT_EQ(lock_order::HeldLocks().size(), 0u);
  EXPECT_TRUE(violations_.empty());
  // Shared acquisitions obey the rank rule too.
  {
    MutexLock a(low);
    ReaderMutexLock r(rw);  // 141 over 140: fine
  }
  EXPECT_TRUE(violations_.empty());
  {
    ReaderMutexLock r(rw);
    MutexLock a(low);  // 140 while holding 141: inversion
  }
  // Both detectors fire: the rank rule, and the cycle check (the first
  // nesting above recorded low -> rw, which this order inverts).
  ASSERT_EQ(violations_.size(), 2u);
  EXPECT_EQ(violations_[0].kind, Violation::Kind::kRank);
  EXPECT_EQ(violations_[1].kind, Violation::Kind::kCycle);
  for (const Violation& v : violations_) {
    EXPECT_EQ(v.acquiring, "t.shared.low");
    EXPECT_EQ(v.held, "t.shared.rw");
  }
}

TEST_F(LockOrderTest, CondVarWaitReleasesAndReacquiresThroughTracker) {
  Mutex mu{"t.condvar.mu", 150};
  CondVar cv;
  bool ready = false;
  size_t depth_after_wait = 0;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) {
      cv.Wait(mu);
    }
    // The wait's relock went through OnAcquire: the lock is tracked as held.
    depth_after_wait = lock_order::HeldLocks().size();
  });
  {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyAll();
  }
  waiter.join();
  EXPECT_EQ(depth_after_wait, 1u);
  EXPECT_TRUE(violations_.empty());
  EXPECT_EQ(lock_order::HeldLocks().size(), 0u);
}

TEST_F(LockOrderTest, CondVarWaitUntilTimesOut) {
  Mutex mu{"t.condvar.timeout", 151};
  CondVar cv;
  MutexLock lock(mu);
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_FALSE(cv.WaitUntil(mu, deadline));
  // Timed-out wait still re-acquired: the held stack is balanced.
  EXPECT_EQ(lock_order::HeldLocks().size(), 1u);
}

TEST_F(LockOrderTest, RelockableMutexLockBalancesTheStack) {
  Mutex mu{"t.relock.mu", 160};
  {
    MutexLock lock(mu);
    EXPECT_EQ(lock_order::HeldLocks().size(), 1u);
    lock.Unlock();
    EXPECT_EQ(lock_order::HeldLocks().size(), 0u);
    lock.Lock();
    EXPECT_EQ(lock_order::HeldLocks().size(), 1u);
  }
  EXPECT_EQ(lock_order::HeldLocks().size(), 0u);
  EXPECT_TRUE(violations_.empty());
}

// ---------------------------------------------------------------------------
// Virtual-time leg: the tracker must behave identically when the locking
// code runs inside simtime::Scheduler tasks, and its hold-span accounting
// must read the *virtual* clock there (a lock held across AdvanceUs charges
// the advanced microseconds, not the nanoseconds of wall time that passed).

TEST_F(LockOrderTest, InversionDetectedInsideSchedulerTasks) {
  Mutex a{"t.vt.inv.a", 0};
  Mutex b{"t.vt.inv.b", 0};
  simtime::Scheduler sched(7);
  sched.At(0, [&] {
    MutexLock la(a);
    MutexLock lb(b);  // record a -> b
  });
  sched.At(10, [&] {
    MutexLock lb(b);
    MutexLock la(a);  // invert it
  });
  sched.RunUntil(100);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].kind, Violation::Kind::kCycle);
  EXPECT_EQ(violations_[0].acquiring, "t.vt.inv.a");
  EXPECT_EQ(violations_[0].held, "t.vt.inv.b");
}

TEST_F(LockOrderTest, HoldSpansAccrueOnTheVirtualClock) {
  Mutex mu{"t.vt.span", 0};
  lock_order::ResetScopeStats();
  simtime::Scheduler sched(7);
  sched.At(0, [&] {
    MutexLock lock(mu);
    sched.AdvanceUs(1000);
  });
  sched.RunUntil(10'000);
  for (const auto& scope : lock_order::ScopeSnapshot()) {
    if (scope.name != "t.vt.span") continue;
    EXPECT_EQ(scope.holds, 1u);
    // The wall time spent inside the task is nanoseconds; only the virtual
    // advance can account for a 1000us span.
    EXPECT_GE(scope.total_hold_us, 1000);
    EXPECT_LE(scope.total_hold_us, 1100);
    return;
  }
  FAIL() << "class t.vt.span not found in ScopeSnapshot()";
}

TEST_F(LockOrderTest, ProductionRanksMatchDesignTable) {
  // Every production class registered so far must carry a positive rank —
  // rank 0 is reserved for test locks, and an unranked production class
  // would silently opt out of the hierarchy. Classes register lazily when
  // their mutex is constructed, so force two cfs_common ones to exist.
  MetricsRegistry::Global().GetCounter("lock_order_test.touch")->Add();
  CFS_LOG(kDebug) << "lock_order_test touching common.logging";
  bool saw_production_class = false;
  for (const auto& [name, rank] : lock_order::RegisteredClasses()) {
    if (name.rfind("t.", 0) == 0) continue;  // this file's classes
    saw_production_class = true;
    EXPECT_GT(rank, 0) << "production lock class \"" << name
                       << "\" is unranked";
  }
  EXPECT_TRUE(saw_production_class);
}

#endif  // CFS_LOCK_ORDER_TRACKING

// Wrapper smoke tests that must hold with or without the tracker compiled
// in (CFS_LOCK_ORDER=OFF builds still use the wrappers everywhere).
TEST(LockWrappersTest, MutexBasicLockableInterface) {
  Mutex mu{"t.smoke.basic", 0};
  mu.lock();
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  mu.Lock();
  std::thread t([&] {
    EXPECT_FALSE(mu.TryLock());  // held by the main thread
  });
  t.join();
  mu.Unlock();
}

TEST(LockWrappersTest, SharedMutexAllowsConcurrentReaders) {
  SharedMutex rw{"t.smoke.readers", 0};
  ReaderMutexLock r1(rw);
  std::thread t([&] {
    ReaderMutexLock r2(rw);  // would deadlock if readers excluded each other
  });
  t.join();
}

TEST(LockWrappersTest, MutexActuallyExcludes) {
  Mutex mu{"t.smoke.excl", 0};
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; i++) {
        MutexLock lock(mu);
        counter++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 4000);
}

}  // namespace
}  // namespace cfs
