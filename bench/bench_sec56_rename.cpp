// §5.6 rename test — a mix of 90% intra-directory file renames (CFS fast
// path: one insert_and_delete_with_update primitive) and 10% other renames
// (normal path through the rename coordinator / lock-based transactions).
// Reports throughput and P99/P999 tail latency for all three systems.
//
// Expected shape: CFS > InfiniFS > HopsFS throughput; HopsFS's subtree
// locking serializes renames (worst tails); CFS's tails are the shortest
// because 90% of requests never touch a coordinator.

#include "bench/bench_common.h"

using namespace cfs;
using namespace cfs::bench;

int main() {
  TraceSession trace_session("sec56_rename");
  Logger::Get().set_level(LogLevel::kWarn);
  size_t clients = Clients();
  int64_t duration = DurationMs();
  constexpr int kFilesPerThread = 16;

  PrintHeader("Section 5.6: rename mix (90% intra-directory file renames)");
  std::printf("%-10s %12s %10s %10s %10s\n", "system", "renames/s", "avg(us)",
              "P99(us)", "P999(us)");

  std::vector<std::pair<std::string, RunResult>> results;
  for (auto& make_system : AllSystems()) {
    System system = make_system();
    std::fprintf(stderr, "[sec56] %s...\n", system.name.c_str());
    // Populate the rename working set: /ren/t<t>/r<i>_a plus the
    // cross-directory targets /ren/x<t>.
    auto setup = system.new_client();
    (void)setup->Mkdir("/ren", 0755);
    for (size_t t = 0; t < clients; t++) {
      (void)setup->Mkdir("/ren/t" + std::to_string(t), 0755);
      (void)setup->Mkdir("/ren/x" + std::to_string(t), 0755);
    }
    {
      auto workers = system.MakeClients(8);
      ThreadExecutor threads;
      (void)RunPartitioned(
          threads, RawClients(workers), clients * kFilesPerThread,
          [](MetadataClient* client, size_t i, Rng&) {
            std::string dir = "/ren/t" + std::to_string(i / kFilesPerThread);
            return client->Create(
                dir + "/r" + std::to_string(i % kFilesPerThread) + "_a", 0644);
          });
    }

    RunResult result =
        RunWorkload(system, clients, MakeRenameOp(0.9), duration, duration / 4);
    std::printf("%-10s %12.0f %10.0f %10lld %10lld\n", system.name.c_str(),
                result.ops_per_sec(), result.latency.mean(),
                static_cast<long long>(result.latency.P99()),
                static_cast<long long>(result.latency.P999()));
    results.emplace_back(system.name, std::move(result));
    system.stop();
  }

  const RunResult& cfs_result = results.back().second;
  for (size_t s = 0; s + 1 < results.size(); s++) {
    const RunResult& base = results[s].second;
    std::printf(
        "CFS vs %-9s throughput %+.1f%%, P99 %.1f%% shorter, P999 %.1f%% "
        "shorter\n",
        results[s].first.c_str(),
        100.0 * (cfs_result.ops_per_sec() / base.ops_per_sec() - 1.0),
        100.0 * (1.0 - static_cast<double>(cfs_result.latency.P99()) /
                           static_cast<double>(base.latency.P99())),
        100.0 * (1.0 - static_cast<double>(cfs_result.latency.P999()) /
                           static_cast<double>(base.latency.P999())));
  }
  return 0;
}
