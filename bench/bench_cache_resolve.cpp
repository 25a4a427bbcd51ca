// Dentry-cache resolve benchmark: lookup throughput vs. cache capacity, and
// throughput under a concurrent rename-invalidation load.
//
// Part 1 sweeps CfsOptions::dentry_cache_capacity over {0 (uncached), 1k,
// 64k} and measures multi-threaded getattr throughput on deep paths
// (/priv<t>/lvl1/lvl2/f<i>, 4 components). With the cache cold-disabled
// every resolve walks the chain through TafDB; warm caches collapse it to
// one attribute fetch, which is the client-side metadata resolving win the
// paper builds on (§3.1).
//
// Part 2 keeps the cache at 64k and injects cross-directory renames at
// increasing rates from a dedicated client; every rename broadcasts a
// prefix invalidation, so the sweep shows coherence overhead vs. churn.
//
// Output: paper-style rows plus the dentry_cache.* counters and the final
// metrics-registry JSON (CFS_BENCH_JSON=1).

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/metrics.h"
#include "src/common/random.h"

namespace cfs::bench {
namespace {

constexpr size_t kDirsPerClient = 2;   // lvl1 fan-out under each /priv<t>
constexpr size_t kFilesPerDir = 64;

struct CacheCounters {
  uint64_t hit, miss, negative_hit, stale, evict, prefix_drop, revalidate;
};

CacheCounters ReadCounters() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  return CacheCounters{
      registry.GetCounter("dentry_cache.hit")->value(),
      registry.GetCounter("dentry_cache.miss")->value(),
      registry.GetCounter("dentry_cache.negative_hit")->value(),
      registry.GetCounter("dentry_cache.stale")->value(),
      registry.GetCounter("dentry_cache.evict")->value(),
      registry.GetCounter("dentry_cache.prefix_drop")->value(),
      registry.GetCounter("dentry_cache.revalidate")->value(),
  };
}

CacheCounters Delta(const CacheCounters& a, const CacheCounters& b) {
  return CacheCounters{b.hit - a.hit,
                       b.miss - a.miss,
                       b.negative_hit - a.negative_hit,
                       b.stale - a.stale,
                       b.evict - a.evict,
                       b.prefix_drop - a.prefix_drop,
                       b.revalidate - a.revalidate};
}

// Builds /priv<t>/d<j>/sub/f<i> for every client thread.
void PopulateDeepTree(const System& system, size_t clients) {
  auto setup = system.new_client();
  for (size_t t = 0; t < clients; t++) {
    std::string priv = "/priv" + std::to_string(t);
    (void)setup->Mkdir(priv, 0755);
    for (size_t j = 0; j < kDirsPerClient; j++) {
      std::string d1 = priv + "/d" + std::to_string(j);
      (void)setup->Mkdir(d1, 0755);
      (void)setup->Mkdir(d1 + "/sub", 0755);
      for (size_t i = 0; i < kFilesPerDir; i++) {
        (void)setup->Create(d1 + "/sub/f" + std::to_string(i), 0644);
      }
    }
  }
}

std::string DeepPath(size_t t, uint64_t j, uint64_t i) {
  return "/priv" + std::to_string(t) + "/d" + std::to_string(j) + "/sub/f" +
         std::to_string(i);
}

// Runs `clients` closed-loop clients of deep-path getattrs on threads for
// DurationMs; returns kops (exits on any failed op).
double RunLookupLoad(const System& system, size_t clients) {
  auto owned = system.MakeClients(clients);
  ThreadExecutor threads;
  RunResult result = RunClosedLoop(
      threads, RawClients(owned),
      [](MetadataClient* client, size_t t, uint64_t, Rng& rng) {
        return client
            ->GetAttr(DeepPath(t, rng.Uniform(kDirsPerClient),
                               rng.Uniform(kFilesPerDir)))
            .status();
      },
      Loop::Timed(DurationMs()));
  ExitOnFailedOps(system.name, "lookup", result.errors, result.ops);
  return static_cast<double>(result.ops) / 1000.0 / result.seconds;
}

void PrintRow(const std::string& label, double kops,
              const CacheCounters& d) {
  uint64_t lookups = d.hit + d.miss + d.negative_hit;
  double hit_rate =
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(d.hit + d.negative_hit) /
                         static_cast<double>(lookups);
  std::printf(
      "%-28s %8.1f kops/s   hit%%=%5.1f  hits=%llu misses=%llu stale=%llu "
      "evict=%llu prefix_drop=%llu revalidate=%llu\n",
      label.c_str(), kops, hit_rate, (unsigned long long)d.hit,
      (unsigned long long)d.miss, (unsigned long long)d.stale,
      (unsigned long long)d.evict, (unsigned long long)d.prefix_drop,
      (unsigned long long)d.revalidate);
}

void CapacitySweep(size_t clients) {
  PrintHeader("cache_resolve: getattr throughput vs. dentry cache capacity");
  const size_t capacities[] = {0, 1024, 65536};
  for (size_t capacity : capacities) {
    CfsOptions options = CfsFullOptions();
    options.dentry_cache_capacity = capacity;
    System system = MakeCfs("CFS", options);
    PopulateDeepTree(system, clients);

    CacheCounters before = ReadCounters();
    double kops = RunLookupLoad(system, clients);
    CacheCounters after = ReadCounters();
    PrintRow("capacity=" + std::to_string(capacity), kops,
             Delta(before, after));
    system.stop();
  }
}

void RenameChurnSweep(size_t clients) {
  PrintHeader("cache_resolve: lookup throughput vs. rename-invalidation rate");
  const int64_t renames_per_sec[] = {0, 20, 200};
  for (int64_t rate : renames_per_sec) {
    CfsOptions options = CfsFullOptions();  // 64k cache
    System system = MakeCfs("CFS", options);
    PopulateDeepTree(system, clients);
    // Directories the churn thread shuffles around (normal-path renames:
    // each one broadcasts a subtree prefix invalidation to every engine).
    auto renamer_client = system.new_client();
    (void)renamer_client->Mkdir("/churn", 0755);
    (void)renamer_client->Mkdir("/churn/a", 0755);
    (void)renamer_client->Create("/churn/a/f", 0644);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> renames{0};
    std::thread churn([&] {
      MetadataClient* c = renamer_client.get();
      bool flip = false;
      while (rate > 0 && !stop.load(std::memory_order_relaxed)) {
        Status st = flip ? c->Rename("/churn/b", "/churn/a")
                         : c->Rename("/churn/a", "/churn/b");
        if (st.ok()) {
          flip = !flip;
          renames.fetch_add(1);
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(1000000 / rate));
      }
    });

    CacheCounters before = ReadCounters();
    double kops = RunLookupLoad(system, clients);
    CacheCounters after = ReadCounters();
    stop.store(true);
    churn.join();
    PrintRow("renames/s=" + std::to_string(rate) +
                 " (did " + std::to_string(renames.load()) + ")",
             kops, Delta(before, after));
    system.stop();
  }
}

}  // namespace
}  // namespace cfs::bench

int main() {
  using namespace cfs::bench;
  TraceSession trace_session("cache_resolve");
  size_t clients = Clients() > 16 ? 16 : Clients();
  std::printf("clients=%zu duration_ms=%lld\n", clients,
              (long long)DurationMs());

  CapacitySweep(clients);
  RenameChurnSweep(clients);

  if (EnvInt("CFS_BENCH_JSON", 0) != 0) {
    std::printf("\n--- metrics registry (JSON) ---\n%s\n",
                cfs::MetricsRegistry::Global().DumpJson().c_str());
  }
  return 0;
}
