// DentryCache — the client-side dentry cache behind CFS's metadata
// resolving (paper §3.1), replacing the placeholder per-engine map.
//
// Design (see DESIGN.md "Client cache & coherence"):
//   - Sharded bounded LRU: entries hash by full path onto N shards, each
//     with its own mutex and LRU list, so concurrent resolves on one engine
//     never serialize on a process-wide lock.
//   - Positive AND negative entries: a cached ENOENT short-circuits repeat
//     lookups of missing names; negative entries expire after a TTL, which
//     bounds how long a create by another client can stay invisible.
//   - Per-entry epoch tags: every entry records the parent directory's
//     mutation epoch (replicated state of the directory's TafDB shard)
//     observed in the same round as the data it caches — not the view at
//     fill time, which a concurrent invalidation broadcast could have
//     refreshed past the data. A lookup is a hit only if the tag lies in
//     the engine's current view of that epoch.
//   - Narrow invalidation from the directory's change journal: the shard
//     journals which dentry names each epoch bump touched, and every epoch
//     observation arrives as a DirChanges slice (a read piggyback, a
//     revalidation, the reply to an own mutation, a Renamer broadcast).
//     A covered slice that starts at or below the view erases exactly the
//     named entries and advances the view, so cached siblings survive any
//     client's unlink/rename. An uncovered slice (journal trimmed, a
//     name-less bump such as a directory setattr, a restored shard) moves
//     the whole view, so everything tagged below it goes stale on first
//     touch. Fills tagged below the view are refused, which keeps data
//     read before a change out of the cache.
//   - Epoch views age: a view older than epoch_ttl_ms yields
//     kNeedsValidation, telling the engine to refresh the view with one
//     cheap RPC before trusting the hit. The TTL is therefore the staleness
//     bound for mutations that are not broadcast (see below).
//   - Eager prefix invalidation: directory renames drop whole cached
//     subtrees via ErasePrefix (driven by the Renamer's cluster-wide
//     broadcast), so deep paths under a moved directory never serve the old
//     location.
//
// Thread safety: all methods are safe for concurrent use. Lock order is
// epoch-view shard -> entry shard; no method holds two entry-shard locks.

#ifndef CFS_CORE_DENTRY_CACHE_H_
#define CFS_CORE_DENTRY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/thread_annotations.h"
#include "src/tafdb/primitives.h"
#include "src/tafdb/schema.h"

namespace cfs {

class DentryCache {
 public:
  struct Options {
    // Total entry budget across all shards (positive + negative). 0
    // disables caching entirely: every Lookup is a miss, every Put a no-op.
    size_t capacity = 65536;
    // Shard count (rounded up to a power of two).
    size_t shards = 16;
    // How long a cached ENOENT may be served. <= 0 disables negative
    // caching entirely.
    int64_t negative_ttl_ms = 1000;
    // How long an observed directory epoch is trusted before a hit demands
    // revalidation. <= 0 means every hit revalidates.
    int64_t epoch_ttl_ms = 2000;
  };

  enum class Outcome : uint8_t {
    kMiss,             // nothing cached (or the entry was stale and dropped)
    kHit,              // valid positive entry
    kNegativeHit,      // valid cached ENOENT
    kNeedsValidation,  // entry present but the parent's epoch view is too
                       // old to trust; refresh via ObserveDirChanges, retry
  };

  struct LookupResult {
    Outcome outcome = Outcome::kMiss;
    InodeId id = kInvalidInode;
    InodeType type = InodeType::kNone;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t negative_hits = 0;
    uint64_t stale_drops = 0;    // epoch/parent mismatch or expired negative
    uint64_t evictions = 0;      // LRU capacity evictions
    uint64_t prefix_drops = 0;   // entries removed by ErasePrefix
    uint64_t journal_drops = 0;  // entries erased by a covered DirChanges
    uint64_t revalidations = 0;  // epoch revalidation rounds triggered
  };

  // Fetches the parent's changes since the view epoch `since` with one
  // cheap RPC; returns false if the shard is unreachable.
  using RefreshFn = std::function<bool(uint64_t since, DirChanges* changes)>;

  explicit DentryCache(Options options, const Clock* clock = RealClock::Get());

  // Consults the cache for `path`, whose final component lives in directory
  // `parent`. Never blocks on RPCs; kNeedsValidation asks the caller to
  // refresh the directory's view and retry (see LookupValidated, which does
  // exactly that). Records one counter per call.
  LookupResult Lookup(const std::string& path, InodeId parent);

  // Lookup plus the revalidation round: on kNeedsValidation, invokes
  // `refresh`, observes the slice under `path`'s directory, and retries
  // with the refreshed view trusted as fresh — even when epoch_ttl_ms <= 0
  // (revalidate-every-hit), the post-refresh retry can serve the hit.
  // Exactly one terminal outcome (hit / negative hit / miss) is recorded
  // per call, plus the revalidate event when a refresh happened; a failed
  // refresh is a miss.
  LookupResult LookupValidated(const std::string& path, InodeId parent,
                               const RefreshFn& refresh);

  // Fills a positive / negative entry tagged with `epoch` — the parent
  // directory's mutation epoch observed IN THE SAME ROUND as the data
  // being cached (e.g. piggybacked on the dentry-read RPC), never the
  // current view: a view refreshed by a concurrent invalidation broadcast
  // between the read and the fill would tag pre-mutation data as fresh.
  // A fill tagged below the view is refused and counted as a stale drop
  // (the view check and the insert are atomic, so it cannot slip in
  // behind an ObserveDirChanges). Fills under a parent whose epoch was
  // never observed are stored but treated as stale on first lookup.
  void PutPositive(const std::string& path, InodeId parent, InodeId id,
                   InodeType type, uint64_t epoch);
  void PutNegative(const std::string& path, InodeId parent, uint64_t epoch);

  // Drops the exact path.
  void Erase(const std::string& path);
  // Drops the exact path and every cached descendant ("path/..."). O(cached
  // entries) — acceptable because directory renames are rare (paper §4.3).
  void ErasePrefix(const std::string& path);

  // Records a slice of `dir`'s change journal; `dir_path` is the path the
  // directory's entries are cached under. If the slice is covered and the
  // view is at or above its `since`, the named entries are erased and the
  // view advances to the slice's epoch with the other entries still valid.
  // Otherwise it is handled like ObserveDirEpoch.
  void ObserveDirChanges(InodeId dir, const std::string& dir_path,
                         const DirChanges& changes);
  // Records an observation of `dir`'s epoch with no journal slice. A newer
  // epoch invalidates every entry tagged below it. Regressing epochs are
  // ignored except a reset to 0, which conservatively invalidates.
  void ObserveDirEpoch(InodeId dir, uint64_t epoch);
  // The engine's current view of `dir`'s epoch (0 if never observed).
  uint64_t ObservedDirEpoch(InodeId dir) const;

  void Clear();
  size_t size() const;
  size_t capacity() const { return options_.capacity; }
  Stats stats() const;

 private:
  struct Entry {
    InodeId parent = kInvalidInode;
    InodeId id = kInvalidInode;
    InodeType type = InodeType::kNone;
    uint64_t epoch = 0;            // parent epoch tag at fill time
    bool negative = false;
    int64_t negative_expire_us = 0;
  };
  // LRU list front = most recent; the index maps path -> list node.
  using LruList = std::list<std::pair<std::string, Entry>>;
  struct EntryShard {
    // All entry shards share one lock class; no method holds two at once.
    mutable Mutex mu{"dentry.entry", 41};
    LruList lru GUARDED_BY(mu);
    std::unordered_map<std::string, LruList::iterator> index GUARDED_BY(mu);
  };
  struct EpochView {
    uint64_t epoch = 0;
    // Oldest tag still valid: entries tagged in [valid_from, epoch] serve.
    // Covered slices advance `epoch` alone; any other change moves both.
    uint64_t valid_from = 0;
    int64_t observed_us = 0;
  };
  struct EpochShard {
    // Ordered before dentry.entry (see the lock-order note above).
    mutable Mutex mu{"dentry.epoch", 40};
    std::unordered_map<InodeId, EpochView> views GUARDED_BY(mu);
  };

  EntryShard& ShardFor(const std::string& path);
  EpochShard& EpochShardFor(InodeId dir) const;
  // Reads the view under the epoch-shard lock; ok=false when unobserved.
  bool ViewOf(InodeId dir, EpochView* out) const;
  // Drops the exact path; true if it was cached.
  bool EraseEntry(const std::string& path);
  void PutEntry(const std::string& path, Entry entry);
  // One cache consultation, no counters. `view_is_fresh` marks a view
  // refreshed within the same logical lookup (skips the TTL check; cannot
  // return kNeedsValidation). `*stale` is set when a stale entry was
  // dropped.
  LookupResult LookupRound(const std::string& path, InodeId parent,
                           bool view_is_fresh, bool* stale);
  void RecordOutcome(Outcome outcome, bool stale);

  Options options_;
  const Clock* clock_;
  size_t shard_mask_ = 0;
  size_t per_shard_capacity_ = 0;
  std::vector<EntryShard> entry_shards_;
  mutable std::vector<EpochShard> epoch_shards_;

  // Per-instance stats are atomics so recording stays outside the shard
  // mutexes; global registry counters aggregate the same events across all
  // engines (dentry_cache.*).
  struct AtomicStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> negative_hits{0};
    std::atomic<uint64_t> stale_drops{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> prefix_drops{0};
    std::atomic<uint64_t> journal_drops{0};
    std::atomic<uint64_t> revalidations{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace cfs

#endif  // CFS_CORE_DENTRY_CACHE_H_
