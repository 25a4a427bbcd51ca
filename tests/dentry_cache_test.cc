// Unit tests for the sharded, epoch-tagged client dentry cache
// (src/core/dentry_cache.h): LRU bounds, negative-entry TTLs, epoch
// staleness and revalidation, prefix invalidation, and concurrent use.

#include "src/core/dentry_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"

namespace cfs {
namespace {

using Outcome = DentryCache::Outcome;

constexpr InodeId kDir = 7;

DentryCache::Options SmallOptions() {
  DentryCache::Options o;
  o.capacity = 8;
  o.shards = 1;  // deterministic LRU order
  o.negative_ttl_ms = 10;
  o.epoch_ttl_ms = 100;
  return o;
}

TEST(DentryCacheTest, MissThenHitAfterFill) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 0);

  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/0);

  auto hit = cache.Lookup("/d/a", kDir);
  EXPECT_EQ(hit.outcome, Outcome::kHit);
  EXPECT_EQ(hit.id, 42u);
  EXPECT_EQ(hit.type, InodeType::kFile);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DentryCacheTest, EntryWithoutEpochViewIsStale) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  // Fill without ever observing the parent's epoch: the entry must not be
  // trusted (it has no coherence baseline).
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/0);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

TEST(DentryCacheTest, EpochMismatchDropsEntry) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 3);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/3);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kHit);

  // A directory mutation elsewhere bumps the epoch; once this engine
  // observes it, the tagged entry is stale on first touch.
  cache.ObserveDirEpoch(kDir, 4);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  // And the entry is gone, not resurrectable.
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
}

TEST(DentryCacheTest, ParentMismatchDropsEntry) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);
  // Same path string, different parent directory id (the directory was
  // replaced): the entry must not serve.
  cache.ObserveDirEpoch(kDir + 1, 1);
  EXPECT_EQ(cache.Lookup("/d/a", kDir + 1).outcome, Outcome::kMiss);
}

TEST(DentryCacheTest, AgedEpochViewDemandsValidation) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);  // epoch_ttl_ms = 100
  cache.ObserveDirEpoch(kDir, 5);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/5);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kHit);

  clock.AdvanceMicros(101 * 1000);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kNeedsValidation);
  EXPECT_EQ(cache.stats().revalidations, 1u);

  // Revalidation with an unchanged epoch refreshes the view; the entry
  // serves again.
  cache.ObserveDirEpoch(kDir, 5);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kHit);

  // Revalidation that surfaces a bump turns the entry stale instead.
  clock.AdvanceMicros(101 * 1000);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kNeedsValidation);
  cache.ObserveDirEpoch(kDir, 6);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
}

TEST(DentryCacheTest, NegativeEntryServesThenExpires) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);  // negative_ttl_ms = 10
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutNegative("/d/missing", kDir, /*epoch=*/1);

  EXPECT_EQ(cache.Lookup("/d/missing", kDir).outcome, Outcome::kNegativeHit);
  EXPECT_EQ(cache.stats().negative_hits, 1u);

  clock.AdvanceMicros(11 * 1000);
  EXPECT_EQ(cache.Lookup("/d/missing", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

TEST(DentryCacheTest, ZeroNegativeTtlDisablesNegativeCaching) {
  ManualClock clock;
  DentryCache::Options options = SmallOptions();
  options.negative_ttl_ms = 0;
  DentryCache cache(options, &clock);
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);

  // PutNegative with the TTL disabled must not plant an ENOENT — but it
  // must still retire the contradicted positive entry.
  cache.PutNegative("/d/a", kDir, /*epoch=*/1);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DentryCacheTest, LruEvictsOldestWithinCapacity) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);  // capacity 8, one shard
  cache.ObserveDirEpoch(kDir, 1);
  for (int i = 0; i < 8; i++) {
    cache.PutPositive("/d/e" + std::to_string(i), kDir, 100 + i,
                      InodeType::kFile, /*epoch=*/1);
  }
  // Touch the oldest so it moves to the front.
  EXPECT_EQ(cache.Lookup("/d/e0", kDir).outcome, Outcome::kHit);

  cache.PutPositive("/d/e8", kDir, 108, InodeType::kFile, /*epoch=*/1);
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // e1 (now the LRU tail) was evicted; e0 survived its touch.
  EXPECT_EQ(cache.Lookup("/d/e1", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.Lookup("/d/e0", kDir).outcome, Outcome::kHit);
}

TEST(DentryCacheTest, ErasePrefixDropsSubtreeButNotSiblingPrefix) {
  ManualClock clock;
  DentryCache::Options options = SmallOptions();
  options.capacity = 64;
  options.shards = 4;  // prefix scan must cover every shard
  DentryCache cache(options, &clock);
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/a", kDir, 1, InodeType::kDirectory, /*epoch=*/1);
  cache.PutPositive("/a/x", kDir, 2, InodeType::kFile, /*epoch=*/1);
  cache.PutPositive("/a/x/y", kDir, 3, InodeType::kFile, /*epoch=*/1);
  cache.PutPositive("/ab", kDir, 4, InodeType::kFile,
                    /*epoch=*/1);  // sibling, not child

  cache.ErasePrefix("/a");
  EXPECT_EQ(cache.Lookup("/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.Lookup("/a/x", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.Lookup("/a/x/y", kDir).outcome, Outcome::kMiss);
  // "/ab" shares the byte prefix but is not inside "/a": must survive.
  EXPECT_EQ(cache.Lookup("/ab", kDir).outcome, Outcome::kHit);
  EXPECT_EQ(cache.stats().prefix_drops, 2u);  // "/a/x", "/a/x/y"
}

TEST(DentryCacheTest, ZeroCapacityDisablesCache) {
  ManualClock clock;
  DentryCache::Options options = SmallOptions();
  options.capacity = 0;
  DentryCache cache(options, &clock);
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.size(), 0u);
  // Disabled-cache lookups do not pollute the hit/miss counters.
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(DentryCacheTest, EpochRegressionIgnoredExceptReset) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 9);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/9);

  // A reordered (older) observation must not roll the view back.
  cache.ObserveDirEpoch(kDir, 8);
  EXPECT_EQ(cache.ObservedDirEpoch(kDir), 9u);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kHit);

  // A reset to 0 (shard restart) is adopted and invalidates tagged entries.
  cache.ObserveDirEpoch(kDir, 0);
  EXPECT_EQ(cache.ObservedDirEpoch(kDir), 0u);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
}

// Regression for the fill/broadcast race: a resolve reads a dentry while
// the parent is at epoch 1; before the fill lands, a rename commits, bumps
// the epoch, and its invalidation broadcast refreshes this engine's view
// to 2. The fill is tagged with the epoch observed WITH the data (1), so
// it must be refused (and counted as a stale drop) — tagging with the
// refreshed view would make pre-rename data indistinguishable from fresh.
TEST(DentryCacheTest, FillTaggedOlderThanViewIsStaleNotFresh) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 1);
  // ... dentry read happens here, piggybacking epoch 1 ...
  cache.ObserveDirEpoch(kDir, 2);  // broadcast lands before the fill
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);
  EXPECT_EQ(cache.size(), 0u);

  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

DirChanges Slice(uint64_t since, uint64_t epoch, bool covered,
                 std::vector<std::string> names = {}) {
  DirChanges changes;
  changes.since = since;
  changes.epoch = epoch;
  changes.covered = covered;
  changes.names = std::move(names);
  return changes;
}

// A covered slice starting at or below the view names everything that
// changed since: the named entries go, the unnamed siblings keep serving,
// and the view advances.
TEST(DentryCacheTest, CoveredSliceKeepsUnnamedSiblings) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 3);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/3);
  cache.PutPositive("/d/b", kDir, 43, InodeType::kFile, /*epoch=*/3);
  cache.PutNegative("/d/n", kDir, /*epoch=*/3);

  cache.ObserveDirChanges(kDir, "/d", Slice(3, 5, true, {"a", "n", "zz"}));
  EXPECT_EQ(cache.ObservedDirEpoch(kDir), 5u);
  EXPECT_EQ(cache.stats().journal_drops, 2u);  // "/d/zz" was not cached
  EXPECT_EQ(cache.Lookup("/d/b", kDir).outcome, Outcome::kHit);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.Lookup("/d/n", kDir).outcome, Outcome::kMiss);
  // Fills tagged with the new epoch serve alongside the old siblings.
  cache.PutPositive("/d/c", kDir, 44, InodeType::kFile, /*epoch=*/5);
  EXPECT_EQ(cache.Lookup("/d/c", kDir).outcome, Outcome::kHit);
  EXPECT_EQ(cache.Lookup("/d/b", kDir).outcome, Outcome::kHit);
  EXPECT_EQ(cache.stats().stale_drops, 0u);

  // Entries directly under the root are keyed "/name".
  cache.ObserveDirEpoch(kRootInode, 1);
  cache.PutPositive("/r", kRootInode, 45, InodeType::kFile, /*epoch=*/1);
  cache.ObserveDirChanges(kRootInode, "/", Slice(1, 2, true, {"r"}));
  EXPECT_EQ(cache.Lookup("/r", kRootInode).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().journal_drops, 3u);
}

// A slice that starts above the view (changes in between are unknown) or
// is not covered (the journal no longer reaches back) moves the whole
// view: every sibling may be stale.
TEST(DentryCacheTest, UncoveredSliceInvalidatesSiblings) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 3);
  cache.PutPositive("/d/b", kDir, 43, InodeType::kFile, /*epoch=*/3);
  cache.ObserveDirChanges(kDir, "/d", Slice(4, 5, true, {"a"}));
  EXPECT_EQ(cache.ObservedDirEpoch(kDir), 5u);
  EXPECT_EQ(cache.Lookup("/d/b", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);

  cache.PutPositive("/d/b", kDir, 43, InodeType::kFile, /*epoch=*/5);
  cache.ObserveDirChanges(kDir, "/d", Slice(5, 6, false));
  EXPECT_EQ(cache.ObservedDirEpoch(kDir), 6u);
  EXPECT_EQ(cache.Lookup("/d/b", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 2u);
  EXPECT_EQ(cache.stats().journal_drops, 0u);
}

// A resolve read "/d/a" at epoch 3; a covered slice naming "/d/a" then
// advanced the view to 4. The in-flight fill carries data tagged 3 and
// must be refused, even though entries already cached under epoch 3 stay
// valid.
TEST(DentryCacheTest, FillTaggedBelowAdvancedViewIsRefused) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 3);
  cache.PutPositive("/d/b", kDir, 43, InodeType::kFile, /*epoch=*/3);
  // ... dentry read of /d/a happens here, piggybacking epoch 3 ...
  cache.ObserveDirChanges(kDir, "/d", Slice(3, 4, true, {"a"}));
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/3);

  EXPECT_EQ(cache.stats().stale_drops, 1u);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.Lookup("/d/b", kDir).outcome, Outcome::kHit);
}

TEST(DentryCacheTest, LookupValidatedRefreshesAgedViewAndServesHit) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);  // epoch_ttl_ms = 100
  cache.ObserveDirEpoch(kDir, 5);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/5);
  cache.PutPositive("/d/b", kDir, 43, InodeType::kFile, /*epoch=*/5);
  clock.AdvanceMicros(101 * 1000);

  int refreshes = 0;
  auto refresh = [&](uint64_t since, DirChanges* changes) {
    refreshes++;
    EXPECT_EQ(since, 5u);
    *changes = Slice(since, 6, true, {"b"});  // only a sibling changed
    return true;
  };
  auto result = cache.LookupValidated("/d/a", kDir, refresh);
  EXPECT_EQ(result.outcome, Outcome::kHit);
  EXPECT_EQ(result.id, 42u);
  EXPECT_EQ(refreshes, 1);
  // One logical lookup: one terminal outcome, plus the revalidate event.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().revalidations, 1u);
  EXPECT_EQ(cache.stats().journal_drops, 1u);  // "/d/b"
}

// With epoch_ttl_ms <= 0 every hit revalidates — but the revalidated retry
// must then serve the hit (one extra RPC per hit), not degrade every
// lookup to a miss plus the RPC.
TEST(DentryCacheTest, ZeroEpochTtlRevalidatesEveryHitButStillServes) {
  ManualClock clock;
  DentryCache::Options options = SmallOptions();
  options.epoch_ttl_ms = 0;
  DentryCache cache(options, &clock);
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);

  auto refresh = [](uint64_t since, DirChanges* changes) {
    *changes = Slice(since, 1, true);
    return true;
  };
  EXPECT_EQ(cache.LookupValidated("/d/a", kDir, refresh).outcome,
            Outcome::kHit);
  EXPECT_EQ(cache.LookupValidated("/d/a", kDir, refresh).outcome,
            Outcome::kHit);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().revalidations, 2u);
}

TEST(DentryCacheTest, LookupValidatedRefreshSurfacingBumpDropsEntry) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 5);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/5);
  clock.AdvanceMicros(101 * 1000);

  auto refresh = [](uint64_t since, DirChanges* changes) {
    *changes = Slice(since, 6, true, {"a"});  // "/d/a" changed since the fill
    return true;
  };
  EXPECT_EQ(cache.LookupValidated("/d/a", kDir, refresh).outcome,
            Outcome::kMiss);
  EXPECT_EQ(cache.stats().journal_drops, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Without a covering journal the refresh drops the entry as stale.
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/6);
  clock.AdvanceMicros(101 * 1000);
  auto uncovered = [](uint64_t since, DirChanges* changes) {
    *changes = Slice(since, 7, false);
    return true;
  };
  EXPECT_EQ(cache.LookupValidated("/d/a", kDir, uncovered).outcome,
            Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

TEST(DentryCacheTest, LookupValidatedUnreachableShardIsMiss) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 5);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/5);
  clock.AdvanceMicros(101 * 1000);

  auto refresh = [](uint64_t, DirChanges*) { return false; };
  EXPECT_EQ(cache.LookupValidated("/d/a", kDir, refresh).outcome,
            Outcome::kMiss);
  // The entry itself was not dropped — it may serve once the view can be
  // refreshed again.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().revalidations, 1u);
}

// Counter accounting: N logical lookups record exactly N terminal
// outcomes, whatever mix of revalidations happened along the way.
TEST(DentryCacheTest, OneTerminalOutcomePerLogicalLookup) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);  // epoch_ttl_ms = 100
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);
  cache.PutNegative("/d/gone", kDir, /*epoch=*/1);

  auto refresh = [](uint64_t since, DirChanges* changes) {
    *changes = Slice(since, 1, true);
    return true;
  };
  constexpr uint64_t kLookups = 12;
  for (uint64_t i = 0; i < kLookups; i++) {
    // Half the rounds age the view out so the revalidation path runs.
    if (i % 2 == 0) clock.AdvanceMicros(101 * 1000);
    const char* path = i % 3 == 0 ? "/d/a" : (i % 3 == 1 ? "/d/gone"
                                                         : "/d/absent");
    (void)cache.LookupValidated(path, kDir, refresh);
  }
  DentryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.negative_hits, kLookups);
}

// Concurrency smoke: mixed fills, lookups, and prefix drops across threads.
// Run under TSan by scripts/check.sh; asserts only crash-freedom and that
// the LRU bound holds.
TEST(DentryCacheTest, ConcurrentMixedUseStaysBounded) {
  DentryCache::Options options;
  options.capacity = 256;
  options.shards = 8;
  options.negative_ttl_ms = 1;
  options.epoch_ttl_ms = 1;
  DentryCache cache(options);  // real clock: TTL paths get exercised

  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; i++) {
        InodeId dir = static_cast<InodeId>(i % 16);
        std::string path =
            "/p" + std::to_string(i % 16) + "/c" + std::to_string(i % 97);
        switch ((i + t) % 5) {
          case 0:
            cache.ObserveDirEpoch(dir, static_cast<uint64_t>(i % 7));
            break;
          case 1:
            cache.PutPositive(path, dir, static_cast<InodeId>(i),
                              InodeType::kFile,
                              static_cast<uint64_t>(i % 7));
            break;
          case 2:
            cache.PutNegative(path, dir, static_cast<uint64_t>(i % 7));
            break;
          case 3:
            (void)cache.Lookup(path, dir);
            break;
          case 4:
            if (i % 31 == 0) {
              cache.ErasePrefix("/p" + std::to_string(i % 16));
            } else {
              cache.Erase(path);
            }
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 256u);
}

}  // namespace
}  // namespace cfs
