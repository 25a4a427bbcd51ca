// Figure 15 — end-to-end replay of the three production traces with data
// access enabled, CFS vs InfiniFS (the paper drops HopsFS here: HDFS
// semantics can't replay the random-access traces). Reports metadata and
// file-system-op throughput plus P999 tail latency.
//
// Expected shape: CFS ahead on every trace (paper: 1.62-2.55x end-to-end,
// 35-62% P999 reductions), with the biggest tail win on rename-bearing
// tr-1.

#include "bench/bench_common.h"

using namespace cfs;
using namespace cfs::bench;

int main() {
  TraceSession trace_session("fig15_production_traces");
  Logger::Get().set_level(LogLevel::kWarn);
  size_t clients = Clients();
  int64_t duration = DurationMs();

  struct Cell {
    double fs_kops;
    double meta_kops;
    int64_t fs_p999;
    int64_t meta_p999;
  };
  // results[system][trace]
  std::vector<std::vector<Cell>> results;
  std::vector<std::string> system_names;

  std::vector<std::function<System()>> systems = {MakeInfiniFs, MakeCfsFull};
  for (auto& make_system : systems) {
    System system = make_system();
    system_names.push_back(system.name);
    std::vector<Cell> row;
    for (const auto& spec : AllTraces()) {
      std::fprintf(stderr, "[fig15] %s replaying %s...\n", system.name.c_str(),
                   spec.name.c_str());
      TraceReplayConfig config;
      config.num_dirs = 16;
      config.files_per_dir = 64;
      config.duration_ms = duration;
      config.warmup_ms = duration / 4;
      TraceReplayer replayer(spec, config);

      auto setup = system.new_client();
      auto populate = system.MakeClients(8);
      ThreadExecutor threads;
      Status st = replayer.Prepare(threads, setup.get(), RawClients(populate));
      if (!st.ok()) {
        std::fprintf(stderr, "prepare failed: %s\n", st.ToString().c_str());
        return 1;
      }
      auto replay_clients = system.MakeClients(clients);
      TraceReplayResult result =
          replayer.Replay(threads, RawClients(replay_clients));
      ExitOnFailedOps(system.name, spec.name, result.errors, result.fs_ops);
      row.push_back(Cell{result.fs_ops_per_sec() / 1000.0,
                         result.meta_ops_per_sec() / 1000.0,
                         result.fs_latency.P999(),
                         result.meta_latency.P999()});
    }
    results.push_back(std::move(row));
    system.stop();
  }

  auto traces = AllTraces();
  PrintHeader("Figure 15: trace replay with data access, " +
              std::to_string(clients) + " clients");
  std::printf("%-10s %-6s %12s %12s %12s %12s\n", "system", "trace",
              "fs Kops/s", "meta Kops/s", "fs P999(us)", "meta P999(us)");
  for (size_t s = 0; s < results.size(); s++) {
    for (size_t t = 0; t < traces.size(); t++) {
      const Cell& cell = results[s][t];
      std::printf("%-10s %-6s %12.2f %12.2f %12lld %12lld\n",
                  system_names[s].c_str(), traces[t].name.c_str(),
                  cell.fs_kops, cell.meta_kops,
                  static_cast<long long>(cell.fs_p999),
                  static_cast<long long>(cell.meta_p999));
    }
  }

  PrintHeader("CFS vs InfiniFS");
  for (size_t t = 0; t < traces.size(); t++) {
    const Cell& base = results[0][t];
    const Cell& cfs_cell = results[1][t];
    std::printf(
        "%s: end-to-end %.2fx, metadata %.2fx, fs P999 %.1f%% shorter\n",
        traces[t].name.c_str(), cfs_cell.fs_kops / base.fs_kops,
        cfs_cell.meta_kops / base.meta_kops,
        100.0 * (1.0 - static_cast<double>(cfs_cell.fs_p999) /
                           static_cast<double>(base.fs_p999)));
  }
  return 0;
}
