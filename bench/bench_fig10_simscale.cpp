// Figure 10 at simulation scale — the virtual-clock counterpart of
// bench_fig10_scalability. Runs full CFS twice in one process:
//   1. a wall-clock leg: LatencyMode::kSleep, one OS thread per client
//      (CFS_SIMSCALE_REAL_CLIENTS, default 128; 0 skips the leg), real
//      sleeps for every injected RPC latency;
//   2. a virtual-time leg: LatencyMode::kVirtual + inline raft replication
//      + GC off, with CFS_SIM_CLIENTS (default 10000) simulated clients on
//      a discrete-event scheduler (DESIGN.md §11).
// Both legs run the Fig 10 no-contention create and getattr workloads. The
// point is the tentpole acceptance check: the 10k-client simulated sweep
// finishes in LESS wall-clock time than the 128-thread real run, and two
// runs with the same CFS_SIM_SEED produce identical op counts and latency
// histograms.
//
// Knobs (on top of bench_common.h's):
//   CFS_SIMSCALE_REAL_CLIENTS (default 128)  wall-clock leg threads; 0=skip
//   CFS_SIM_CLIENTS           (default 10000) simulated clients
//   CFS_SIM_SEED              (default 42)
//   CFS_SIM_DURATION_MS / CFS_SIM_WARMUP_MS — defaults here are 1/1 (not
//       the fig benches' 25/6): sim cost scales with clients x virtual
//       time, and 10k clients x 1 ms is already ~10 client-seconds of
//       simulated load per workload.
//   CFS_SIM_FILES_PER_DIR     (default 2)    per-dir population (getattr
//                                            reads it)
//   CFS_SIM_LOG=<path>  write a deterministic fingerprint of the sim leg
//                       (seed, clients, per-workload op counts and latency
//                       histogram stats — no wall-clock values), which CI
//                       byte-compares across two same-seed runs.
//
// The sim leg ignores CFS_SIM: both legs are configured explicitly via
// WithWallMode/WithSimMode so the comparison always runs in one process.
// JSON output records the sim leg only — those numbers are deterministic;
// the wall-clock leg varies run to run and is covered by
// bench_fig10_scalability.

#include <chrono>
#include <cinttypes>

#include "bench/bench_common.h"

using namespace cfs;
using namespace cfs::bench;

namespace {

struct Leg {
  std::string workload;
  RunResult result;
};

double WallSeconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

void PrintLeg(const char* mode, size_t clients, const Leg& leg) {
  std::printf("  %-9s %-8s c=%-6zu ops=%-9" PRIu64 " err=%-4" PRIu64
              " %8.1f kops/s  p50=%" PRId64 "us p99=%" PRId64 "us\n",
              mode, leg.workload.c_str(), clients, leg.result.ops,
              leg.result.errors, leg.result.kops(), leg.result.latency.P50(),
              leg.result.latency.P99());
}

// Runs the two Fig 10 workloads against `system` after populating it. In
// sim mode the population and each workload get a fresh scheduler seeded
// with CFS_SIM_SEED, so a point is replayable on its own. The population
// runs on a scheduler too, so its modelled delays cost virtual time, not
// sleeps: at the defaults it is 10k mkdirs and 20k creates.
std::vector<Leg> RunLegs(const System& system, size_t clients,
                         size_t files_per_dir, bool sim, const Loop& loop) {
  double pop_secs = WallSeconds([&] {
    PreparePopulation(system, clients, files_per_dir, 0, /*on_scheduler=*/sim);
  });
  std::vector<Leg> legs;
  const std::vector<std::pair<std::string, OpFn>> workloads = {
      {"create", MakeCreateOp(0.0)},
      {"getattr", MakeGetAttrOp(0.0, files_per_dir, 0)},
  };
  auto owned = system.MakeClients(clients);
  for (const auto& [name, op] : workloads) {
    RunResult result;
    double secs = WallSeconds([&] {
      result = RunClosedLoop(*NewExecutor(sim, Sim().seed), RawClients(owned),
                             op, loop);
    });
    std::fprintf(stderr, "[simscale] %s %s leg: %.2fs (population %.2fs)\n",
                 sim ? "sim" : "real", name.c_str(), secs, pop_secs);
    ExitOnFailedOps(system.name, name, result.errors, result.ops);
    legs.push_back(Leg{name, std::move(result)});
  }
  return legs;
}

// Deterministic fingerprint of the sim leg: everything here is a pure
// function of (seed, clients, virtual duration) — no wall-clock values —
// so two same-seed runs must produce byte-identical files.
void WriteSimLog(const char* path, uint64_t seed, size_t clients,
                 int64_t duration_ms, const std::vector<Leg>& legs) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[simscale] cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "simscale seed=%" PRIu64 " clients=%zu virtual_ms=%" PRId64
               "\n", seed, clients, duration_ms);
  for (const Leg& leg : legs) {
    const Histogram& h = leg.result.latency;
    std::fprintf(f,
                 "%s ops=%" PRIu64 " errors=%" PRIu64 " count=%" PRId64
                 " mean=%.3f p50=%" PRId64 " p90=%" PRId64 " p99=%" PRId64
                 " p999=%" PRId64 " max=%" PRId64 "\n",
                 leg.workload.c_str(), leg.result.ops, leg.result.errors,
                 h.count(), h.mean(), h.P50(), h.Percentile(90), h.P99(),
                 h.P999(), h.max());
  }
  std::fclose(f);
  std::fprintf(stderr, "[simscale] wrote %s\n", path);
}

}  // namespace

int main() {
  TraceSession trace_session("fig10_simscale");
  Logger::Get().set_level(LogLevel::kWarn);

  const size_t real_clients =
      static_cast<size_t>(EnvInt("CFS_SIMSCALE_REAL_CLIENTS", 128));
  const size_t sim_clients =
      static_cast<size_t>(EnvInt("CFS_SIM_CLIENTS", 10000));
  const size_t files_per_dir =
      static_cast<size_t>(EnvInt("CFS_SIM_FILES_PER_DIR", 2));
  const uint64_t seed = Sim().seed;
  // This bench defaults to a smaller virtual window than the fig benches'
  // CFS_SIM_DURATION_MS default (25 ms): simulation cost scales with
  // clients x virtual time, and at 10k clients 1 ms of virtual time is
  // already ~10 client-seconds of simulated load per workload.
  const int64_t sim_duration_ms = EnvInt("CFS_SIM_DURATION_MS", 1);
  const int64_t sim_warmup_ms = EnvInt("CFS_SIM_WARMUP_MS", 1);
  const int64_t real_duration_ms = DurationMs();

  JsonReporter json("fig10_simscale");

  PrintHeader("Figure 10 at simulation scale: real threads vs virtual time");

  // Wall-clock leg: sleep-injected latency, one OS thread per client.
  double real_secs = 0;
  if (real_clients > 0) {
    std::fprintf(stderr, "[simscale] real leg: %zu threads, %" PRId64
                 " ms\n", real_clients, real_duration_ms);
    System system =
        MakeCfsConfigured("CFS", WithWallMode(BenchCfsOptions(
                                     CfsFullOptions())));
    std::vector<Leg> legs;
    real_secs = WallSeconds([&] {
      legs = RunLegs(system, real_clients, files_per_dir, /*sim=*/false,
                     Loop::Timed(real_duration_ms, real_duration_ms / 4));
    });
    for (const Leg& leg : legs) PrintLeg("real", real_clients, leg);
    std::printf("  real leg wall clock: %.2fs\n", real_secs);
    system.stop();
  } else {
    std::fprintf(stderr, "[simscale] real leg skipped "
                 "(CFS_SIMSCALE_REAL_CLIENTS=0)\n");
  }

  // Virtual-time leg: deterministic discrete-event simulation.
  std::fprintf(stderr, "[simscale] sim leg: %zu simulated clients, %" PRId64
               " virtual ms, seed %" PRIu64 "\n", sim_clients,
               sim_duration_ms, seed);
  System system = MakeCfsConfigured(
      "CFS-sim", WithSimMode(BenchCfsOptions(CfsFullOptions()), seed));
  std::vector<Leg> legs;
  double sim_secs = WallSeconds([&] {
    legs = RunLegs(system, sim_clients, files_per_dir, /*sim=*/true,
                   Loop::Timed(sim_duration_ms, sim_warmup_ms));
  });
  for (const Leg& leg : legs) {
    PrintLeg("sim", sim_clients, leg);
    // Virtual ops/s; deterministic, so safe to track across PRs.
    json.Add("CFS-sim", leg.workload + "/c" + std::to_string(sim_clients),
             leg.result);
  }
  std::printf("  sim leg wall clock: %.2fs (includes population setup)\n",
              sim_secs);
  system.stop();

  if (real_clients > 0) {
    std::printf("\n  %zu simulated clients vs %zu real threads: "
                "%.2fs vs %.2fs wall clock (%.1fx)%s\n",
                sim_clients, real_clients, sim_secs, real_secs,
                real_secs > 0 ? real_secs / sim_secs : 0.0,
                sim_secs < real_secs ? " — sim leg faster" : "");
  }

  if (const char* log = std::getenv("CFS_SIM_LOG");
      log != nullptr && log[0] != '\0') {
    WriteSimLog(log, seed, sim_clients, sim_duration_ms, legs);
  }
  return 0;
}
