// Big-data analytics example — the high-contention pattern §2.2 calls out:
// "applications like big data analysis often concurrently read from or
// write to a shared directory". Every reducer writes its part-file into one
// output directory, so every create updates the same parent attributes.
//
// The example runs the same job twice: once on full CFS (single-shard
// atomic primitives merge the counter updates without locks) and once on
// the lock-based configuration (CFS-base), printing the throughput gap —
// a miniature of Figure 11.

#include <cstdio>
#include <vector>

#include "src/core/cfs.h"
#include "src/core/gc.h"
#include "src/workload/workload.h"

namespace {

// Returns the job's closed-loop result: one op per part-file.
cfs::RunResult RunJob(cfs::Cfs* fs, size_t reducers, size_t parts_per_reducer) {
  using namespace cfs;
  auto setup = fs->NewClient();
  (void)setup->Mkdir("/output", 0755);

  // One closed-loop client per reducer, each writing its part-files.
  std::vector<std::unique_ptr<MetadataClient>> clients;
  for (size_t r = 0; r < reducers; r++) clients.push_back(fs->NewClient());
  ThreadExecutor threads;
  RunResult result = RunClosedLoop(
      threads, RawClients(clients),
      [](MetadataClient* client, size_t r, uint64_t p, Rng&) {
        std::string path =
            "/output/part-" + std::to_string(r) + "-" + std::to_string(p);
        Status st = client->Create(path, 0644);
        return st.ok() ? client->Write(path, 0, "rowgroup-data") : st;
      },
      Loop::Count(parts_per_reducer));

  // _SUCCESS marker and a consistency audit: the shared directory's
  // delta-applied children counter must equal the real fanout.
  (void)setup->Create("/output/_SUCCESS", 0644);
  auto dir = setup->GetAttr("/output");
  auto listing = setup->ReadDir("/output");
  std::printf("  audit: children counter=%lld, listed=%zu\n",
              static_cast<long long>(dir->children), listing->size());
  return result;
}

}  // namespace

int main() {
  using namespace cfs;
  constexpr size_t kReducers = 8;
  constexpr size_t kParts = 40;

  struct Config {
    const char* label;
    CfsOptions options;
  };
  std::vector<Config> configs = {
      {"full CFS (primitives, no locks)", CfsFullOptions()},
      {"lock-based (CFS-base)", CfsBaseOptions()},
  };

  double baseline_rate = 0;
  for (auto& config : configs) {
    config.options.num_servers = 6;
    config.options.tafdb.num_shards = 2;
    config.options.filestore.num_nodes = 2;
    Cfs fs(config.options);
    if (!fs.Start().ok()) return 1;
    std::printf("%s:\n", config.label);
    RunResult result = RunJob(&fs, kReducers, kParts);
    uint64_t parts = result.ops - result.errors;
    double rate = parts / result.seconds;
    std::printf("  %llu part-files in %.2fs -> %.0f creates/s\n",
                static_cast<unsigned long long>(parts), result.seconds, rate);
    if (baseline_rate == 0) {
      baseline_rate = rate;
    } else {
      std::printf("  -> full CFS speedup over lock-based: %.2fx\n",
                  baseline_rate / rate);
    }
    fs.Stop();
  }
  return 0;
}
