// Figure 12 — one shared, large, flat directory (the paper uses 1M files;
// scaled here via CFS_BENCH_LARGEDIR_FILES, default 20000), all clients
// issuing requests against it.
//
// Expected shape: write-side ops (create/unlink/mkdir/rmdir) concentrate on
// the directory's single namespace shard for every system, so absolute
// numbers drop — but CFS still wins via lock elimination. The headline is
// getattr/setattr: CFS's file attributes are hash-partitioned across all
// FileStore nodes and keep scaling, while both baselines serve every
// attribute read from the one shard that owns the directory (inline rows)
// and collapse.

#include "bench/bench_common.h"

using namespace cfs;
using namespace cfs::bench;

int main() {
  TraceSession trace_session("fig12_large_directory");
  Logger::Get().set_level(LogLevel::kWarn);
  size_t clients = Clients();
  int64_t duration = DurationMs();
  size_t population =
      static_cast<size_t>(EnvInt("CFS_BENCH_LARGEDIR_FILES", 20000));

  const MetaOp ops[] = {MetaOp::kCreate, MetaOp::kUnlink, MetaOp::kMkdir,
                        MetaOp::kRmdir,  MetaOp::kLookup, MetaOp::kGetAttr,
                        MetaOp::kSetAttr};

  struct Row {
    std::string system;
    double kops[7];
  };
  std::vector<Row> rows;
  JsonReporter json("fig12_large_directory");

  for (auto& make_system : AllSystems()) {
    System system = make_system();
    std::fprintf(stderr, "[fig12] %s: populating %zu files...\n",
                 system.name.c_str(), population);
    auto setup = system.new_client();
    (void)setup->Mkdir("/bigdir", 0755);
    {
      auto workers = system.MakeClients(16);
      ThreadExecutor threads;
      Status st = PopulateDirectories(threads, RawClients(workers), {"/bigdir"},
                                      population);
      if (!st.ok()) {
        std::fprintf(stderr, "populate failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    Row row;
    row.system = system.name;
    for (size_t i = 0; i < 7; i++) {
      RunResult result = RunWorkload(system, clients,
                                     MakeLargeDirOp(ops[i], "/bigdir", population),
                                    duration, duration / 4);
      row.kops[i] = result.kops();
      json.Add(system.name, std::string(MetaOpName(ops[i])), result);
      std::fprintf(stderr, "[fig12] %s %s: %.1f Kops/s\n", system.name.c_str(),
                   std::string(MetaOpName(ops[i])).c_str(), row.kops[i]);
    }
    rows.push_back(row);
    system.stop();
  }

  PrintHeader("Figure 12: shared large directory (" +
              std::to_string(population) + " files), " +
              std::to_string(clients) + " clients — throughput (Kops/s)");
  std::printf("%-10s", "system");
  for (MetaOp op : ops) {
    std::printf(" %9s", std::string(MetaOpName(op)).c_str());
  }
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("%-10s", row.system.c_str());
    for (double v : row.kops) std::printf(" %9.2f", v);
    std::printf("\n");
  }
  PrintHeader("CFS speedups in the large directory");
  for (size_t s = 0; s + 1 < rows.size(); s++) {
    std::printf("vs %-9s", rows[s].system.c_str());
    for (size_t i = 0; i < 7; i++) {
      std::printf(" %8.2fx", rows.back().kops[i] / rows[s].kops[i]);
    }
    std::printf("\n");
  }
  return 0;
}
