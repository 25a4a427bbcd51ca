#include "src/core/dentry_cache.h"

#include <algorithm>
#include <functional>

#include "src/common/metrics.h"
#include "src/common/race_detector.h"
#include "src/core/metadata_client.h"

namespace cfs {
namespace {

// Cluster-wide cache counters (all engines fold in). Pointers are stable
// for the process lifetime; resolve once.
struct GlobalCounters {
  Counter* hit;
  Counter* miss;
  Counter* negative_hit;
  Counter* stale;
  Counter* evict;
  Counter* prefix_drop;
  Counter* journal_drop;
  Counter* revalidate;
};

const GlobalCounters& Counters() {
  static const GlobalCounters counters = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return GlobalCounters{
        registry.GetCounter("dentry_cache.hit"),
        registry.GetCounter("dentry_cache.miss"),
        registry.GetCounter("dentry_cache.negative_hit"),
        registry.GetCounter("dentry_cache.stale"),
        registry.GetCounter("dentry_cache.evict"),
        registry.GetCounter("dentry_cache.prefix_drop"),
        registry.GetCounter("dentry_cache.journal_drop"),
        registry.GetCounter("dentry_cache.revalidate"),
    };
  }();
  return counters;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

DentryCache::DentryCache(Options options, const Clock* clock)
    : options_(options), clock_(clock) {
  size_t shards = RoundUpPow2(options_.shards == 0 ? 1 : options_.shards);
  // Never spread the budget so thin that shards round down to nothing.
  while (shards > 1 && options_.capacity > 0 && options_.capacity / shards == 0) {
    shards >>= 1;
  }
  shard_mask_ = shards - 1;
  per_shard_capacity_ = options_.capacity / shards;
  entry_shards_ = std::vector<EntryShard>(shards);
  epoch_shards_ = std::vector<EpochShard>(shards);
}

DentryCache::EntryShard& DentryCache::ShardFor(const std::string& path) {
  return entry_shards_[std::hash<std::string>{}(path) & shard_mask_];
}

DentryCache::EpochShard& DentryCache::EpochShardFor(InodeId dir) const {
  // Mix: sequential inode ids must not all land on one shard.
  uint64_t h = dir * 0x9e3779b97f4a7c15ULL;
  return epoch_shards_[(h >> 32) & shard_mask_];
}

bool DentryCache::ViewOf(InodeId dir, EpochView* out) const {
  EpochShard& shard = EpochShardFor(dir);
  MutexLock lock(shard.mu);
  CFS_SHARED_READ(shard.views, shard.mu);
  auto it = shard.views.find(dir);
  if (it == shard.views.end()) return false;
  *out = it->second;
  return true;
}

void DentryCache::ObserveDirEpoch(InodeId dir, uint64_t epoch) {
  DirChanges changes;
  changes.since = epoch;
  changes.epoch = epoch;
  ObserveDirChanges(dir, std::string(), changes);
}

void DentryCache::ObserveDirChanges(InodeId dir, const std::string& dir_path,
                                    const DirChanges& changes) {
  if (options_.capacity == 0) return;
  int64_t now_us = clock_->NowMicros();
  EpochShard& shard = EpochShardFor(dir);
  // Held across the erases, so a fill tagged below the advanced view is
  // either refused by PutEntry or already in the cache and erased here.
  MutexLock lock(shard.mu);
  CFS_SHARED_WRITE(shard.views, shard.mu);
  auto [it, inserted] = shard.views.try_emplace(dir);
  EpochView& view = it->second;
  if (!inserted && changes.covered && view.epoch >= changes.since) {
    // The journal names everything that changed since the view: drop
    // exactly those entries and keep valid_from, so the rest stay valid.
    uint64_t dropped = 0;
    for (const std::string& name : changes.names) {
      if (EraseEntry(JoinPath(dir_path, name))) dropped++;
    }
    if (dropped > 0) {
      stats_.journal_drops.fetch_add(dropped, std::memory_order_relaxed);
      Counters().journal_drop->Add(dropped);
    }
    view.epoch = std::max(view.epoch, changes.epoch);
  } else if (inserted || changes.epoch > view.epoch || changes.epoch == 0) {
    // Anything else that changed the directory invalidates every tag. A
    // lower epoch is a reordered observation and only refreshes the
    // timestamp below (the shard was reachable just now); a reset to 0 is
    // adopted, so tagged entries conservatively revalidate.
    view.epoch = changes.epoch;
    view.valid_from = changes.epoch;
  }
  view.observed_us = now_us;
}

uint64_t DentryCache::ObservedDirEpoch(InodeId dir) const {
  EpochView view;
  return ViewOf(dir, &view) ? view.epoch : 0;
}

DentryCache::LookupResult DentryCache::LookupRound(const std::string& path,
                                                   InodeId parent,
                                                   bool view_is_fresh,
                                                   bool* stale) {
  LookupResult result;
  EpochView view;
  bool has_view = ViewOf(parent, &view);
  int64_t now_us = clock_->NowMicros();

  EntryShard& shard = ShardFor(path);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(path);
  if (it == shard.index.end()) return result;
  const Entry& entry = it->second->second;
  if (entry.parent != parent || !has_view || entry.epoch < view.valid_from ||
      entry.epoch > view.epoch ||
      (entry.negative && now_us >= entry.negative_expire_us)) {
    // Re-parented, never-validated, outside the valid epoch range, or an
    // expired ENOENT: drop it and miss.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    *stale = true;
  } else if (!view_is_fresh &&
             (options_.epoch_ttl_ms <= 0 ||
              now_us - view.observed_us > options_.epoch_ttl_ms * 1000)) {
    // The entry agrees with our view, but the view itself has aged out:
    // ask the caller to refresh the epoch first. A view refreshed within
    // this logical lookup (view_is_fresh) is trusted unconditionally,
    // which is what lets epoch_ttl_ms <= 0 mean "one revalidation RPC per
    // hit" rather than "hits never serve".
    result.outcome = Outcome::kNeedsValidation;
  } else {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    result.outcome = entry.negative ? Outcome::kNegativeHit : Outcome::kHit;
    result.id = entry.id;
    result.type = entry.type;
  }
  return result;
}

void DentryCache::RecordOutcome(Outcome outcome, bool stale) {
  switch (outcome) {
    case Outcome::kHit:
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      Counters().hit->Add();
      break;
    case Outcome::kNegativeHit:
      stats_.negative_hits.fetch_add(1, std::memory_order_relaxed);
      Counters().negative_hit->Add();
      break;
    case Outcome::kNeedsValidation:
      stats_.revalidations.fetch_add(1, std::memory_order_relaxed);
      Counters().revalidate->Add();
      break;
    case Outcome::kMiss:
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
      Counters().miss->Add();
      if (stale) {
        stats_.stale_drops.fetch_add(1, std::memory_order_relaxed);
        Counters().stale->Add();
      }
      break;
  }
}

DentryCache::LookupResult DentryCache::Lookup(const std::string& path,
                                              InodeId parent) {
  if (options_.capacity == 0) {
    return LookupResult();  // disabled: always a miss, skip the counters
  }
  bool stale = false;
  LookupResult result = LookupRound(path, parent, /*view_is_fresh=*/false,
                                    &stale);
  RecordOutcome(result.outcome, stale);
  return result;
}

DentryCache::LookupResult DentryCache::LookupValidated(
    const std::string& path, InodeId parent, const RefreshFn& refresh) {
  if (options_.capacity == 0) {
    return LookupResult();  // disabled: always a miss, skip the counters
  }
  bool stale = false;
  LookupResult result = LookupRound(path, parent, /*view_is_fresh=*/false,
                                    &stale);
  if (result.outcome == Outcome::kNeedsValidation) {
    // The revalidate event is recorded here; the retry below records the
    // terminal outcome, so one logical lookup counts exactly one of
    // hit / negative_hit / miss.
    RecordOutcome(Outcome::kNeedsValidation, /*stale=*/false);
    DirChanges changes;
    if (refresh && refresh(ObservedDirEpoch(parent), &changes)) {
      // Cached paths are normalized, so the directory is everything before
      // the last '/' (the root for a top-level name).
      size_t slash = path.rfind('/');
      ObserveDirChanges(parent, path.substr(0, slash == 0 ? 1 : slash),
                        changes);
      result = LookupRound(path, parent, /*view_is_fresh=*/true, &stale);
    } else {
      // Shard unreachable: the view could not be refreshed, so the hit
      // cannot be trusted — treat as a miss.
      result = LookupResult();
    }
  }
  RecordOutcome(result.outcome, stale);
  return result;
}

void DentryCache::PutEntry(const std::string& path, Entry entry) {
  if (options_.capacity == 0) return;
  bool evicted = false;
  EntryShard& shard = ShardFor(path);
  {
    // Held across the insert so the view check is atomic with it: an
    // ObserveDirChanges either precedes the check (and the fill is
    // refused) or follows the insert (and its erase removes the entry).
    EpochShard& epochs = EpochShardFor(entry.parent);
    MutexLock epoch_lock(epochs.mu);
    CFS_SHARED_READ(epochs.views, epochs.mu);
    auto view = epochs.views.find(entry.parent);
    if (view != epochs.views.end() && entry.epoch < view->second.epoch) {
      stats_.stale_drops.fetch_add(1, std::memory_order_relaxed);
      Counters().stale->Add();
      return;
    }
    MutexLock lock(shard.mu);
    auto it = shard.index.find(path);
    if (it != shard.index.end()) {
      it->second->second = entry;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= per_shard_capacity_ && !shard.lru.empty()) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evicted = true;
    }
    shard.lru.emplace_front(path, entry);
    shard.index.emplace(path, shard.lru.begin());
  }
  if (evicted) {
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    Counters().evict->Add();
  }
}

void DentryCache::PutPositive(const std::string& path, InodeId parent,
                              InodeId id, InodeType type, uint64_t epoch) {
  Entry entry;
  entry.parent = parent;
  entry.id = id;
  entry.type = type;
  entry.epoch = epoch;
  PutEntry(path, entry);
}

void DentryCache::PutNegative(const std::string& path, InodeId parent,
                              uint64_t epoch) {
  if (options_.negative_ttl_ms <= 0) {
    // Negative caching disabled — but the ENOENT we just observed proves
    // any cached positive entry for this path is wrong.
    Erase(path);
    return;
  }
  Entry entry;
  entry.parent = parent;
  entry.negative = true;
  entry.epoch = epoch;
  entry.negative_expire_us =
      clock_->NowMicros() + options_.negative_ttl_ms * 1000;
  PutEntry(path, entry);
}

void DentryCache::Erase(const std::string& path) { (void)EraseEntry(path); }

bool DentryCache::EraseEntry(const std::string& path) {
  EntryShard& shard = ShardFor(path);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(path);
  if (it == shard.index.end()) return false;
  shard.lru.erase(it->second);
  shard.index.erase(it);
  return true;
}

void DentryCache::ErasePrefix(const std::string& path) {
  Erase(path);
  std::string prefix = path;
  if (prefix.empty() || prefix.back() != '/') prefix.push_back('/');
  uint64_t dropped = 0;
  for (EntryShard& shard : entry_shards_) {
    MutexLock lock(shard.mu);
    for (auto it = shard.index.begin(); it != shard.index.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        shard.lru.erase(it->second);
        it = shard.index.erase(it);
        dropped++;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    stats_.prefix_drops.fetch_add(dropped, std::memory_order_relaxed);
    Counters().prefix_drop->Add(dropped);
  }
}

void DentryCache::Clear() {
  for (EntryShard& shard : entry_shards_) {
    MutexLock lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
  for (EpochShard& shard : epoch_shards_) {
    MutexLock lock(shard.mu);
    shard.views.clear();
  }
}

size_t DentryCache::size() const {
  size_t total = 0;
  for (const EntryShard& shard : entry_shards_) {
    MutexLock lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

DentryCache::Stats DentryCache::stats() const {
  Stats out;
  out.hits = stats_.hits.load(std::memory_order_relaxed);
  out.misses = stats_.misses.load(std::memory_order_relaxed);
  out.negative_hits = stats_.negative_hits.load(std::memory_order_relaxed);
  out.stale_drops = stats_.stale_drops.load(std::memory_order_relaxed);
  out.evictions = stats_.evictions.load(std::memory_order_relaxed);
  out.prefix_drops = stats_.prefix_drops.load(std::memory_order_relaxed);
  out.journal_drops = stats_.journal_drops.load(std::memory_order_relaxed);
  out.revalidations = stats_.revalidations.load(std::memory_order_relaxed);
  return out;
}

}  // namespace cfs
