// Trace replay example — synthesizes the paper's three production traces
// (tr-0 read-only, tr-1 read-intensive with writes/renames, tr-2 mixed
// office/automation) from the published statistics (Table 3 op mixes,
// Fig 14 size distributions) and replays them against CFS with data access
// enabled, printing throughput and tail latency per trace (the Fig 15
// quantities for a single system).

#include <cstdio>

#include "src/core/cfs.h"
#include "src/core/gc.h"
#include "src/workload/traces.h"

int main() {
  using namespace cfs;

  CfsOptions options = CfsFullOptions();
  options.num_servers = 6;
  options.tafdb.num_shards = 2;
  options.filestore.num_nodes = 2;
  Cfs fs(options);
  if (!fs.Start().ok()) return 1;

  constexpr size_t kClients = 4;

  std::printf("%-6s %12s %14s %12s %12s\n", "trace", "fs ops/s",
              "metadata ops/s", "fs P999(us)", "errors");
  for (const auto& spec : AllTraces()) {
    TraceReplayConfig config;
    config.num_dirs = 4;
    config.files_per_dir = 32;
    config.duration_ms = 1500;
    config.warmup_ms = 200;

    TraceReplayer replayer(spec, config);
    auto setup = fs.NewClient();
    std::vector<std::unique_ptr<MetadataClient>> populate;
    for (size_t i = 0; i < kClients; i++) populate.push_back(fs.NewClient());
    ThreadExecutor threads;
    if (Status st =
            replayer.Prepare(threads, setup.get(), RawClients(populate));
        !st.ok()) {
      std::fprintf(stderr, "prepare failed for %s: %s\n", spec.name.c_str(),
                   st.ToString().c_str());
      return 1;
    }

    std::vector<std::unique_ptr<MetadataClient>> clients;
    for (size_t i = 0; i < kClients; i++) clients.push_back(fs.NewClient());
    TraceReplayResult result = replayer.Replay(threads, RawClients(clients));

    std::printf("%-6s %12.0f %14.0f %12lld %12llu\n", spec.name.c_str(),
                result.fs_ops_per_sec(), result.meta_ops_per_sec(),
                static_cast<long long>(result.fs_latency.P999()),
                static_cast<unsigned long long>(result.errors));
  }

  fs.Stop();
  return 0;
}
