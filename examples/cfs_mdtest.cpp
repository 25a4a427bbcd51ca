// cfs_mdtest — an mdtest-style command-line driver (the paper evaluates
// with "mdtest-like benchmarks", §5.1). Boots an in-process cluster of the
// chosen system and runs one metadata phase, printing throughput and
// latency percentiles.
//
// Usage:
//   cfs_mdtest [--system=cfs|cfs-base|hopsfs|infinifs]
//              [--op=create|unlink|mkdir|rmdir|lookup|getattr|setattr|readdir]
//              [--clients=N] [--seconds=S] [--contention=0..100]
//              [--files-per-dir=N] [--latency=zero|sleep]
//
// Examples:
//   cfs_mdtest --op=create --clients=16 --contention=100
//   cfs_mdtest --system=infinifs --op=getattr --files-per-dir=128

#include <cstring>

#include "bench/bench_common.h"

using namespace cfs;
using namespace cfs::bench;

namespace {

struct Args {
  std::string system = "cfs";
  std::string op = "create";
  size_t clients = 8;
  int seconds = 3;
  double contention = 0.0;
  size_t files_per_dir = 64;
  bool sleep_latency = true;

  static Args Parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; i++) {
      std::string arg = argv[i];
      auto value = [&](const char* key) -> const char* {
        size_t len = std::strlen(key);
        if (arg.compare(0, len, key) == 0) return arg.c_str() + len;
        return nullptr;
      };
      if (const char* v = value("--system=")) args.system = v;
      else if (const char* v2 = value("--op=")) args.op = v2;
      else if (const char* v3 = value("--clients=")) args.clients = std::atoi(v3);
      else if (const char* v4 = value("--seconds=")) args.seconds = std::atoi(v4);
      else if (const char* v5 = value("--contention=")) {
        args.contention = std::atof(v5) / 100.0;
      } else if (const char* v6 = value("--files-per-dir=")) {
        args.files_per_dir = std::atoi(v6);
      } else if (const char* v7 = value("--latency=")) {
        args.sleep_latency = std::string(v7) != "zero";
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    return args;
  }
};

System MakeSystem(const Args& args) {
  if (args.system == "hopsfs") return MakeHopsFs();
  if (args.system == "infinifs") return MakeInfiniFs();
  if (args.system == "cfs-base") return MakeCfs("CFS-base", CfsBaseOptions());
  if (args.system == "cfs") return MakeCfsFull();
  std::fprintf(stderr, "unknown system: %s\n", args.system.c_str());
  std::exit(2);
}

OpFn MakeOp(const Args& args) {
  double c = args.contention;
  size_t files = args.files_per_dir;
  if (args.op == "create") return MakeCreateOp(c);
  if (args.op == "unlink") return MakeUnlinkAfterCreateOp(c);
  if (args.op == "mkdir") return MakeMkdirOp(c);
  if (args.op == "rmdir") return MakeRmdirAfterMkdirOp(c);
  if (args.op == "lookup") return MakeLookupOp(c, files, files);
  if (args.op == "getattr") return MakeGetAttrOp(c, files, files);
  if (args.op == "setattr") return MakeSetAttrOp(c, files, files);
  if (args.op == "readdir") return MakeReaddirOp(c);
  std::fprintf(stderr, "unknown op: %s\n", args.op.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Logger::Get().set_level(LogLevel::kWarn);
  Args args = Args::Parse(argc, argv);
  if (!args.sleep_latency) {
    // Zero-latency mode: functional smoke rather than performance shape.
    setenv("CFS_BENCH_DURATION_MS", "500", 0);
  }

  std::fprintf(stderr, "booting %s...\n", args.system.c_str());
  System system = MakeSystem(args);
  // Zero-latency override must happen before any RPC-heavy setup.
  if (!args.sleep_latency) {
    system.net()->set_mode(LatencyMode::kZero);
  }

  bool needs_population = args.op == "lookup" || args.op == "getattr" ||
                          args.op == "setattr" || args.op == "readdir";
  PreparePopulation(system, args.clients,
                    needs_population ? args.files_per_dir : 0,
                    needs_population && args.contention > 0
                        ? args.files_per_dir
                        : 0);

  std::fprintf(stderr, "running %s x%zu clients for %ds (%.0f%% contention)\n",
               args.op.c_str(), args.clients, args.seconds,
               args.contention * 100);
  auto clients = system.MakeClients(args.clients);
  ThreadExecutor threads;
  RunResult result = RunClosedLoop(
      threads, RawClients(clients), MakeOp(args),
      Loop::Timed(args.seconds * 1000, std::min(args.seconds * 250, 1000)));

  std::printf("system      : %s\n", system.name.c_str());
  std::printf("op          : %s\n", args.op.c_str());
  std::printf("clients     : %zu\n", args.clients);
  std::printf("contention  : %.0f%%\n", args.contention * 100);
  std::printf("throughput  : %.1f ops/s (%.2f Kops/s)\n", result.ops_per_sec(),
              result.kops());
  std::printf("latency     : %s\n", result.latency.Summary().c_str());
  std::printf("errors      : %llu / %llu ops\n",
              static_cast<unsigned long long>(result.errors),
              static_cast<unsigned long long>(result.ops));
  system.stop();
  return result.errors == 0 ? 0 : 1;
}
