// Tests for the dynamic race & atomicity auditor (src/common/race_detector.h):
// locksets read from lock_order's held-lock record across Mutex/SharedMutex
// modes, locks taken before arming, LockManager row-lock scope entries, the
// unheld-declared-lock and Eraser lockset-empty checks, happens-before
// exoneration (init-then-share and same-lock handoff), AccessScope
// atomicity, seeded reproducibility of report fingerprints under schedule
// fuzzing, and the abort-on-report mode the CI race-audit job runs in.

#include "src/common/race_detector.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/lock_order.h"
#include "src/common/simtime.h"
#include "src/common/thread_annotations.h"
#include "src/txn/lock_manager.h"

namespace cfs {
namespace {

#ifdef CFS_LOCK_ORDER_TRACKING

constexpr lock_order::LockMode kExcl = lock_order::LockMode::kExclusive;
constexpr lock_order::LockMode kShared = lock_order::LockMode::kShared;

// True if the calling thread's held-lock record has `cls` in `mode`.
bool Holds(uint32_t cls, lock_order::LockMode mode) {
  for (const lock_order::Held& h : lock_order::HeldLocks()) {
    if (h.cls == cls && h.mode == mode) return true;
  }
  return false;
}

class RaceDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    race::ResetForTest();
    race::SetEnabled(true);
    race::SetAbortOnReport(false);
  }
  void TearDown() override {
    race::SetEnabled(false);
    race::ResetForTest();
  }

  static std::vector<race::Report> ReportsOfKind(race::Report::Kind kind) {
    std::vector<race::Report> out;
    for (const auto& r : race::Reports()) {
      if (r.kind == kind) out.push_back(r);
    }
    return out;
  }
};

// --- Lockset bookkeeping across lock modes -------------------------------

TEST_F(RaceDetectorTest, LocksetTracksExclusiveAndSharedModes) {
  Mutex mu{"t.race.ls.mu", 0};
  SharedMutex smu{"t.race.ls.smu", 0};
  EXPECT_EQ(lock_order::HeldLocks().size(), 0u);
  {
    MutexLock lock(mu);
    EXPECT_TRUE(Holds(mu.order_class(), kExcl));
    EXPECT_FALSE(Holds(mu.order_class(), kShared));
    EXPECT_EQ(lock_order::HeldLocks().size(), 1u);
    {
      ReaderMutexLock rlock(smu);
      EXPECT_TRUE(Holds(smu.order_class(), kShared));
      EXPECT_FALSE(Holds(smu.order_class(), kExcl));
      EXPECT_EQ(lock_order::HeldLocks().size(), 2u);
    }
    EXPECT_FALSE(Holds(smu.order_class(), kShared));
  }
  {
    WriterMutexLock wlock(smu);
    EXPECT_TRUE(Holds(smu.order_class(), kExcl));
    EXPECT_FALSE(Holds(smu.order_class(), kShared));
  }
  EXPECT_EQ(lock_order::HeldLocks().size(), 0u);
  EXPECT_EQ(race::ReportCount(), 0u);
}

TEST_F(RaceDetectorTest, LockTakenBeforeArmingCounts) {
  // The detector reads the tracker's record, which is kept whether or not
  // the detector is armed: a lock taken while disarmed still guards
  // accesses made after arming.
  race::SetEnabled(false);
  Mutex mu{"t.race.prearm.mu", 0};
  int field = 0;
  {
    MutexLock lock(mu);
    race::SetEnabled(true);
    CFS_SHARED_WRITE(field, mu);
    field = 1;
  }
  EXPECT_EQ(race::ReportCount(), 0u);
}

TEST_F(RaceDetectorTest, RowLockScopeEntrySatisfiesItsScopeClass) {
  // A LockManager's row locks enter the record as scope entries of its
  // scope class, so an access declared on that class is guarded while the
  // transaction holds a row lock, and unguarded once it released them all.
  const char* kJustification = "test row locks held across round trips";
  LockManager lm(LockManagerOptions{}, RealClock::Get(), "t.race.rowlock",
                 kJustification);
  uint32_t cls = lock_order::RegisterClass(
      "t.race.rowlock", 0, lock_order::RpcHoldPolicy::kAllowedAcrossRpc,
      kJustification);
  int row = 0;
  auto write_row = [&] {
    race::RecordAccess(&row, "row", cls, /*is_write=*/true, __FILE__,
                       __LINE__);
  };
  ASSERT_TRUE(lm.Lock(/*txn=*/1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(Holds(cls, kExcl));
  write_row();
  EXPECT_EQ(race::ReportCount(), 0u);
  lm.UnlockAll(1);  // last row lock released: ScopeExit
  EXPECT_FALSE(Holds(cls, kExcl));
  write_row();
  auto reports = ReportsOfKind(race::Report::Kind::kUnheldDeclaredLock);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].declared_lock, "t.race.rowlock");
  EXPECT_EQ(reports[0].locks_held, "<none>");
}

// --- The declaration check (unheld-declared-lock) ------------------------

TEST_F(RaceDetectorTest, WriteUnderDeclaredLockIsClean) {
  Mutex mu{"t.race.decl.ok", 0};
  int field = 0;
  {
    MutexLock lock(mu);
    CFS_SHARED_WRITE(field, mu);
    field = 1;
  }
  {
    MutexLock lock(mu);
    CFS_SHARED_READ(field, mu);
    EXPECT_EQ(field, 1);
  }
  EXPECT_EQ(race::ReportCount(), 0u);
}

TEST_F(RaceDetectorTest, WriteWithoutDeclaredLockReports) {
  Mutex mu{"t.race.decl.miss", 0};
  int field = 0;
  CFS_SHARED_WRITE(field, mu);  // no lock held: the planted bug
  field = 1;
  auto reports = ReportsOfKind(race::Report::Kind::kUnheldDeclaredLock);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].field, "field");
  EXPECT_EQ(reports[0].declared_lock, "t.race.decl.miss");
  EXPECT_TRUE(reports[0].is_write);
  EXPECT_EQ(reports[0].locks_held, "<none>");
}

TEST_F(RaceDetectorTest, SharedModeAcceptsReadsButNotWrites) {
  SharedMutex smu{"t.race.decl.shared", 0};
  int field = 0;
  {
    ReaderMutexLock rlock(smu);
    CFS_SHARED_READ(field, smu);  // read under shared mode: fine
    (void)field;
  }
  EXPECT_EQ(race::ReportCount(), 0u);
  {
    ReaderMutexLock rlock(smu);
    CFS_SHARED_WRITE(field, smu);  // write needs exclusive mode
    field = 1;
  }
  auto reports = ReportsOfKind(race::Report::Kind::kUnheldDeclaredLock);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].declared_lock, "t.race.decl.shared");
  {
    WriterMutexLock wlock(smu);
    CFS_SHARED_WRITE(field, smu);  // write under exclusive mode: fine
    field = 2;
  }
  EXPECT_EQ(race::ReportCount(), 1u);
}

TEST_F(RaceDetectorTest, HoldingTheWrongLockStillViolatesTheDeclaration) {
  Mutex declared{"t.race.decl.right", 0};
  Mutex other{"t.race.decl.wrong", 0};
  int field = 0;
  {
    MutexLock lock(other);
    CFS_SHARED_WRITE(field, declared);
    field = 1;
  }
  auto reports = ReportsOfKind(race::Report::Kind::kUnheldDeclaredLock);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].declared_lock, "t.race.decl.right");
  EXPECT_EQ(reports[0].locks_held, "t.race.decl.wrong");
}

// --- AccessScope: atomicity of compound regions --------------------------

TEST_F(RaceDetectorTest, AccessScopeCleanWhenGuardHeldThroughout) {
  Mutex mu{"t.race.scope.ok", 0};
  int field = 0;
  {
    MutexLock lock(mu);
    CFS_ACCESS_SCOPE(scope, field, mu, /*is_write=*/true);
    field += 1;
    field += 1;
  }
  EXPECT_EQ(race::ReportCount(), 0u);
}

TEST_F(RaceDetectorTest, AccessScopeReportsGuardDroppedMidRegion) {
  Mutex mu{"t.race.scope.drop", 0};
  int field = 0;
  {
    MutexLock lock(mu);
    CFS_ACCESS_SCOPE(scope, field, mu, /*is_write=*/true);
    field += 1;
    lock.Unlock();  // guard dropped while the compound update is in flight
    field += 1;
    lock.Lock();
  }
  auto reports = ReportsOfKind(race::Report::Kind::kScopeGuardDropped);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].field, "field");
  EXPECT_EQ(reports[0].declared_lock, "t.race.scope.drop");
}

// --- Happens-before exoneration ------------------------------------------

TEST_F(RaceDetectorTest, InitThenShareAcrossTasksIsSilent) {
  // Unlocked initialization, then hand-off to a simulated task: the
  // creator→event edge orders the accesses, so no report.
  int field = 0;
  race::RecordAccess(&field, "field", /*declared_cls=*/0, /*is_write=*/true,
                     __FILE__, __LINE__);
  field = 1;
  Mutex mu{"t.race.hb.handoff", 0};
  simtime::Scheduler sched(11);
  sched.At(0, [&] {
    MutexLock lock(mu);
    CFS_SHARED_WRITE(field, mu);
    field = 2;
  });
  sched.RunUntil(100);
  EXPECT_EQ(race::ReportCount(), 0u);
}

TEST_F(RaceDetectorTest, SameLockHandoffAcrossTasksIsSilent) {
  Mutex mu{"t.race.hb.samelock", 0};
  int field = 0;
  simtime::Scheduler sched(11);
  for (int i = 0; i < 4; i++) {
    sched.At(i * 10, [&] {
      MutexLock lock(mu);
      CFS_SHARED_WRITE(field, mu);
      field += 1;
    });
  }
  sched.RunUntil(1000);
  EXPECT_EQ(field, 4);
  EXPECT_EQ(race::ReportCount(), 0u);
}

TEST_F(RaceDetectorTest, DisjointLocksetsAcrossTasksReportLocksetEmpty) {
  // The classic Eraser condition: two tasks guard the same location with
  // *different* locks. Each access satisfies its own (wrong) declaration,
  // but the candidate lockset drains to empty and no happens-before edge
  // orders the writes.
  Mutex mu_a{"t.race.eraser.a", 0};
  Mutex mu_b{"t.race.eraser.b", 0};
  int field = 0;
  simtime::Scheduler sched(11);
  sched.At(0, [&] {
    MutexLock lock(mu_a);
    CFS_SHARED_WRITE(field, mu_a);
    field += 1;
  });
  sched.At(10, [&] {
    MutexLock lock(mu_b);
    CFS_SHARED_WRITE(field, mu_b);
    field += 1;
  });
  sched.RunUntil(1000);
  auto reports = ReportsOfKind(race::Report::Kind::kLocksetEmpty);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].field, "field");
  EXPECT_EQ(reports[0].locks_held, "t.race.eraser.b");
  EXPECT_NE(reports[0].prior.find("locks=t.race.eraser.a"), std::string::npos)
      << reports[0].prior;
  EXPECT_GE(reports[0].virtual_us, 0) << "expected an on-scheduler report";
}

TEST_F(RaceDetectorTest, AddressReuseAcrossObjectLifetimesRestartsTracking) {
  // The fig9-style teardown/rebuild pattern: an object dies and the
  // allocator hands its storage to an unrelated object. With no
  // deallocation hook, the detector must notice the field identity changed
  // at that address and restart tracking instead of fabricating a race
  // between the two objects' histories.
  Mutex mu_a{"t.race.reuse.a", 0};
  Mutex mu_b{"t.race.reuse.b", 0};
  int slot = 0;  // stands in for a reused heap address
  simtime::Scheduler sched(11);
  sched.At(0, [&] {
    MutexLock lock(mu_a);
    race::RecordAccess(&slot, "old_object_field", mu_a.order_class(),
                       /*is_write=*/true, __FILE__, __LINE__);
    slot = 1;
  });
  sched.At(10, [&] {
    MutexLock lock(mu_b);
    race::RecordAccess(&slot, "new_object_field", mu_b.order_class(),
                       /*is_write=*/true, __FILE__, __LINE__);
    slot = 2;
  });
  sched.RunUntil(1000);
  EXPECT_EQ(race::ReportCount(), 0u);
}

// --- Schedule fuzzing ----------------------------------------------------

TEST_F(RaceDetectorTest, FuzzedProperlyLockedWorkloadStaysClean) {
  Mutex mu{"t.race.fuzz.clean", 0};
  int counter = 0;
  simtime::Scheduler sched(29);
  simtime::FuzzOptions fuzz;
  fuzz.enabled = true;
  fuzz.seed = 123;
  fuzz.prob_pct = 50;
  fuzz.max_perturb_us = 20;
  sched.SetFuzz(fuzz);
  for (int i = 0; i < 64; i++) {
    sched.At(i % 8, [&] {  // deliberate same-time ties for the fuzzer
      MutexLock lock(mu);
      CFS_SHARED_WRITE(counter, mu);
      counter += 1;
    });
  }
  sched.RunUntil(100000);
  EXPECT_EQ(counter, 64);
  EXPECT_EQ(race::ReportCount(), 0u);
  EXPECT_GT(sched.fuzz_perturbations(simtime::FuzzKind::kLockAcquire), 0u)
      << "fuzzer should have perturbed at least one lock acquisition";
}

// Context ids are allocated from a process-global counter, so absolute ids
// differ between runs in one process; reproducibility is about everything
// else plus the *relative* context structure. Renumber ctx ids by first
// appearance before comparing.
std::string NormalizeCtxIds(const std::vector<std::string>& fingerprints) {
  std::string joined;
  for (const auto& f : fingerprints) joined += f + "\n";
  std::vector<std::string> seen;
  std::string out;
  size_t i = 0;
  while (i < joined.size()) {
    if (joined.compare(i, 4, "ctx=") == 0) {
      size_t j = i + 4;
      while (j < joined.size() && isdigit(joined[j]) != 0) j++;
      std::string id = joined.substr(i + 4, j - (i + 4));
      size_t idx = 0;
      for (; idx < seen.size(); idx++) {
        if (seen[idx] == id) break;
      }
      if (idx == seen.size()) seen.push_back(id);
      out += "ctx=#" + std::to_string(idx);
      i = j;
    } else {
      out += joined[i++];
    }
  }
  return out;
}

TEST_F(RaceDetectorTest, SameSeedReproducesIdenticalFingerprints) {
  auto run = [&](uint64_t seed) {
    race::ResetForTest();
    Mutex mu_a{"t.race.repro.a", 0};
    Mutex mu_b{"t.race.repro.b", 0};
    int field = 0;
    int bare = 0;
    simtime::Scheduler sched(seed);
    simtime::FuzzOptions fuzz;
    fuzz.enabled = true;
    fuzz.seed = seed;
    fuzz.prob_pct = 50;
    fuzz.max_perturb_us = 30;
    sched.SetFuzz(fuzz);
    // Two planted bugs: disjoint locksets on `field`, and an unlocked
    // write to `bare` with a declared guard.
    for (int i = 0; i < 4; i++) {
      sched.At(5, [&] {
        MutexLock lock(mu_a);
        CFS_SHARED_WRITE(field, mu_a);
        field += 1;
      });
      sched.At(5, [&] {
        MutexLock lock(mu_b);
        CFS_SHARED_WRITE(field, mu_b);
        field += 1;
      });
    }
    sched.At(7, [&] {
      CFS_SHARED_WRITE(bare, mu_a);
      bare = 1;
    });
    sched.RunUntil(100000);
    std::vector<std::string> fps;
    for (const auto& r : race::Reports()) fps.push_back(race::Fingerprint(r));
    EXPECT_FALSE(fps.empty());
    return NormalizeCtxIds(fps);
  };
  std::string first = run(77);
  std::string second = run(77);
  EXPECT_EQ(first, second) << "same seed must replay identical reports";
}

// --- Abort-on-report (the CI race-audit mode) ----------------------------

using RaceDetectorDeathTest = RaceDetectorTest;

TEST_F(RaceDetectorDeathTest, PlantedRaceAbortsNamingTheViolation) {
  Mutex mu{"t.race.death.mu", 0};
  int planted = 0;
  EXPECT_DEATH(
      {
        race::SetAbortOnReport(true);
        CFS_SHARED_WRITE(planted, mu);
        planted = 1;
      },
      "\\[race\\] unheld-declared-lock field=planted write "
      "declared=t\\.race\\.death\\.mu");
}

#else

TEST(RaceDetectorTest, UntrackedBuildIsInert) {
  race::SetEnabled(true);  // cannot arm without the held-lock record
  int field = 0;
  race::RecordAccess(&field, "field", 0, true, __FILE__, __LINE__);
  EXPECT_EQ(race::ReportCount(), 0u);
  EXPECT_FALSE(race::Enabled());
}

#endif  // CFS_LOCK_ORDER_TRACKING

}  // namespace
}  // namespace cfs
