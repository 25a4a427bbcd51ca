// Shared benchmark infrastructure: builds the three systems (HopsFS-like,
// InfiniFS-like, CFS and its ablation variants) at "bench scale" — the
// paper's 50-server / 500-client testbed scaled to a single machine (see
// EXPERIMENTS.md):
//   - injected SimNet latency (150 us cross-node RTT, 30 us WAL fsync),
//     paid as real sleeps (wall-clock mode) or as virtual time (sim mode),
//   - 8 physical servers, 8 TafDB shards, 8 FileStore nodes, 4 proxies,
//   - wall-clock mode: up to ~64 client OS threads (each mostly blocked in
//     simulated RPCs); sim mode: tens of thousands of simulated clients.
//
// Every bench binary prints paper-style rows; durations and client counts
// can be scaled via env vars:
//   CFS_BENCH_DURATION_MS (default 2000)   per measured point (wall clock)
//   CFS_BENCH_CLIENTS     (default 48)     "500 concurrent clients"
//   CFS_BENCH_LARGEDIR_FILES (default 20000)  Fig 12 population
//
// Simulation mode (DESIGN.md §11). CFS_SIM=1 switches every bench from
// sleep-injected latency + one OS thread per client to a discrete-event
// virtual clock (LatencyMode::kVirtual, inline raft replication, GC off)
// with one scheduler task per client (SchedulerExecutor). Runs are
// deterministic: same seed, same results, bit for bit. Sim knobs:
//   CFS_SIM             (default 0)    1 = simulate
//   CFS_SIM_SEED        (default 42)   scheduler + jitter + workload seed
//   CFS_SIM_DURATION_MS (default 25)   measured VIRTUAL window per point
//   CFS_SIM_WARMUP_MS   (default CFS_SIM_DURATION_MS/4)  virtual warmup
//   CFS_SIM_CLIENTS     (default 10000)  bench_fig10_simscale client count
// Throughput printed in sim mode is virtual ops/s (ops per simulated
// second) — not comparable to wall-clock numbers (bench_results/BASELINE.md).
//
// Causal tracing (src/common/trace_event.h) is driven by TraceSession:
//   CFS_BENCH_TRACE_OUT        output directory; unset = tracing off
//   CFS_TRACE_SAMPLE_EVERY     head sampling: every Nth op (default 64,
//                              0 = tail capture only)
//   CFS_TRACE_SLOW_US          slow-op threshold in us (default 20000)
//   CFS_TRACE_RING_CAP         per-thread ring capacity (default 4096)
//   CFS_TRACE_MAX_OPS          retained-op store bound (default 512)
//   CFS_TRACE_MAX_SLOW_OPS     slow-op log bound (default 64)
// On destruction the session writes TRACE_<bench>.json (Perfetto) and
// TRACE_<bench>.slowops.txt (indented slow-op span trees) to the directory.

#ifndef CFS_BENCH_BENCH_COMMON_H_
#define CFS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/simtime.h"
#include "src/common/trace_event.h"
#include "src/baselines/hopsfs/hopsfs.h"
#include "src/baselines/infinifs/infinifs.h"
#include "src/core/cfs.h"
#include "src/core/gc.h"
#include "src/workload/traces.h"
#include "src/workload/workload.h"

namespace cfs::bench {

inline int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoll(value) : fallback;
}

inline int64_t DurationMs() { return EnvInt("CFS_BENCH_DURATION_MS", 2000); }
inline size_t Clients() {
  return static_cast<size_t>(EnvInt("CFS_BENCH_CLIENTS", 48));
}

// Virtual-time simulation configuration (see the header comment; knobs are
// read once).
struct SimConfig {
  bool enabled = false;
  uint64_t seed = 42;
  int64_t duration_ms = 25;
  int64_t warmup_ms = 6;
};

inline const SimConfig& Sim() {
  static const SimConfig config = [] {
    SimConfig s;
    s.enabled = EnvInt("CFS_SIM", 0) != 0;
    s.seed = static_cast<uint64_t>(EnvInt("CFS_SIM_SEED", 42));
    s.duration_ms = EnvInt("CFS_SIM_DURATION_MS", 25);
    s.warmup_ms = EnvInt("CFS_SIM_WARMUP_MS", s.duration_ms / 4);
    return s;
  }();
  return config;
}

inline NetOptions BenchNet() {
  NetOptions net;
  net.mode = Sim().enabled ? LatencyMode::kVirtual : LatencyMode::kSleep;
  net.seed = Sim().seed;
  net.cross_node_rtt_us = 150;
  net.same_node_rtt_us = 5;
  net.jitter_pct = 10;
  return net;
}

inline RaftOptions BenchRaft() {
  RaftOptions raft;
  // Long election timeouts: benches must never see spurious elections.
  raft.election_timeout_min_ms = 400;
  raft.election_timeout_max_ms = 800;
  raft.heartbeat_interval_ms = 100;
  raft.wal.fsync_delay_us = 30;  // NVMe-class WAL flush
  // Sim mode replicates synchronously on the proposing (scheduler) thread;
  // no ticker/replicator/heartbeat threads exist to perturb the run.
  raft.inline_replication = Sim().enabled;
  return raft;
}

inline CfsOptions BenchCfsOptions(CfsOptions base) {
  base.num_servers = 8;
  base.num_proxies = 4;
  base.net = BenchNet();
  base.tafdb.num_shards = 8;
  // Pre-split ranges sized for balance: sequential inode ids must spread
  // across shards (the paper's range partitioning assumes operators size
  // ranges appropriately; a coarse stripe would pin every benchmark
  // directory onto one shard).
  base.tafdb.range_stripe_width = 4;
  base.tafdb.raft = BenchRaft();
  base.filestore.num_nodes = 8;
  base.filestore.raft = BenchRaft();
  base.renamer.raft = BenchRaft();
  base.gc_interval_ms = 500;
  // The GC thread ticks on the wall clock, outside virtual time; disable
  // it in sim mode so runs are deterministic.
  if (Sim().enabled) base.start_gc = false;
  return base;
}

inline BaselineOptions BenchBaselineOptions(bool hopsfs) {
  BaselineOptions options;
  options.num_servers = 8;
  options.num_proxies = 4;
  options.net = BenchNet();
  options.tafdb.num_shards = 8;
  options.tafdb.raft = BenchRaft();
  options.filestore.num_nodes = 8;
  options.filestore.raft = BenchRaft();
  if (hopsfs) {
    // Calibration for NDB's heavier per-row processing and lower per-node
    // scalability relative to the key-value backends (paper §5.2: "the
    // limited scalability of each NDB-data node").
    options.tafdb.read_processing_us = 250;
    options.tafdb.read_concurrency = 2;
  }
  return options;
}

// Type-erased running system.
struct System {
  std::string name;
  std::function<std::unique_ptr<MetadataClient>()> new_client;
  std::function<void()> stop;
  std::function<SimNet*()> net;

  std::vector<std::unique_ptr<MetadataClient>> MakeClients(size_t n) const {
    std::vector<std::unique_ptr<MetadataClient>> out;
    out.reserve(n);
    for (size_t i = 0; i < n; i++) out.push_back(new_client());
    return out;
  }
};

inline System MakeHopsFs() {
  auto cluster =
      std::make_shared<HopsFsCluster>("hopsfs", BenchBaselineOptions(true));
  Status st = cluster->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "HopsFS start failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return System{"HopsFS",
                [cluster] { return cluster->NewClient(); },
                [cluster] { cluster->Stop(); },
                [cluster] { return cluster->net(); }};
}

inline System MakeInfiniFs() {
  auto cluster = std::make_shared<InfiniFsCluster>("infinifs",
                                                   BenchBaselineOptions(false));
  Status st = cluster->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "InfiniFS start failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return System{"InfiniFS",
                [cluster] { return cluster->NewClient(); },
                [cluster] { cluster->Stop(); },
                [cluster] { return cluster->net(); }};
}

// Builds a System from fully-configured options (no BenchCfsOptions
// defaults applied) — for benches that configure legs explicitly, e.g.
// bench_fig10_simscale running a wall-clock leg and a virtual-time leg in
// one process regardless of CFS_SIM.
inline System MakeCfsConfigured(const std::string& name, CfsOptions options) {
  auto fs = std::make_shared<Cfs>(std::move(options));
  Status st = fs->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s start failed: %s\n", name.c_str(),
                 st.ToString().c_str());
    std::exit(1);
  }
  return System{name,
                [fs] { return fs->NewClient(); },
                [fs] { fs->Stop(); },
                [fs] { return fs->net(); }};
}

inline System MakeCfs(const std::string& name, CfsOptions options) {
  return MakeCfsConfigured(name, BenchCfsOptions(std::move(options)));
}

// Forces a mode onto fully-built options — what BenchCfsOptions picks from
// CFS_SIM, made explicit for MakeCfsConfigured callers.
inline CfsOptions WithSimMode(CfsOptions options, uint64_t seed) {
  options.net.mode = LatencyMode::kVirtual;
  options.net.seed = seed;
  options.tafdb.raft.inline_replication = true;
  options.filestore.raft.inline_replication = true;
  options.renamer.raft.inline_replication = true;
  options.start_gc = false;
  return options;
}

inline CfsOptions WithWallMode(CfsOptions options) {
  options.net.mode = LatencyMode::kSleep;
  options.tafdb.raft.inline_replication = false;
  options.filestore.raft.inline_replication = false;
  options.renamer.raft.inline_replication = false;
  options.start_gc = true;
  return options;
}

inline System MakeCfsFull() { return MakeCfs("CFS", CfsFullOptions()); }

// All three systems of §5.2-§5.6.
inline std::vector<std::function<System()>> AllSystems() {
  return {MakeHopsFs, MakeInfiniFs, MakeCfsFull};
}

// A fresh executor for one loop: one OS thread per client, or with `sim`
// one task per client on a new scheduler seeded with `seed`, so every loop
// replays on its own from the seed.
inline std::unique_ptr<Executor> NewExecutor(bool sim, uint64_t seed) {
  if (sim) return std::make_unique<SchedulerExecutor>(seed);
  return std::make_unique<ThreadExecutor>();
}

// Makes /priv<t> (one per client) and /shared, then fills each private dir
// with `files_per_dir` files and /shared with `shared_files`. By default a
// setup client makes the directories and 8 more clients fill them on
// threads. With `on_scheduler`, the setup client does all of it on a
// scheduler seeded with CFS_SIM_SEED, one op per task: modelled delays then
// accrue as virtual time instead of real sleeps, and one client creating in
// a fixed order fixes every inode id.
inline void PreparePopulation(const System& system, size_t clients,
                              size_t files_per_dir, size_t shared_files,
                              bool on_scheduler = false) {
  std::unique_ptr<Executor> exec = NewExecutor(on_scheduler, Sim().seed);
  auto setup = system.new_client();
  Status st = SetupPrivateDirs(*exec, setup.get(), clients);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  auto fillers = system.MakeClients(on_scheduler ? 0 : 8);
  std::vector<MetadataClient*> workers =
      on_scheduler ? std::vector<MetadataClient*>{setup.get()}
                   : RawClients(fillers);
  std::vector<std::string> private_dirs;
  for (size_t t = 0; t < clients; t++) {
    private_dirs.push_back("/priv" + std::to_string(t));
  }
  (void)PopulateDirectories(*exec, workers, private_dirs, files_per_dir);
  (void)PopulateDirectories(*exec, workers, {"/shared"}, shared_files);
}

// A benchmark number measures ops that succeeded: a run with any failed op
// prints the system, label, op and error counts and exits nonzero. Every
// bench that measures ops calls this on each run.
inline void ExitOnFailedOps(const std::string& system, const std::string& label,
                            uint64_t errors, uint64_t ops) {
  if (errors == 0) return;
  std::fprintf(stderr, "%s run '%s': %llu of %llu ops failed\n",
               system.c_str(), label.c_str(),
               static_cast<unsigned long long>(errors),
               static_cast<unsigned long long>(ops));
  std::exit(1);
}

// Closed loop of `op` over `clients` fresh clients of `system` — the one
// call every fig bench measures through, so CFS_SIM transparently switches
// the whole suite. Wall-clock mode: one OS thread per client for
// `duration_ms` (+ `warmup_ms`). Sim mode: one task per client on a fresh
// scheduler seeded with CFS_SIM_SEED, for CFS_SIM_DURATION_MS of virtual
// time (the caller's durations are wall-clock budgets and do not apply);
// the client count still comes from the caller, so sweeps keep their
// shape, and each point gets its own scheduler, so points are
// independently replayable. Exits on any failed op (ExitOnFailedOps).
inline RunResult RunWorkload(const System& system, size_t clients,
                             const OpFn& op, int64_t duration_ms,
                             int64_t warmup_ms,
                             const std::string& trace_label = "") {
  const SimConfig& sim = Sim();
  auto owned = system.MakeClients(clients);
  std::unique_ptr<Executor> exec = NewExecutor(sim.enabled, sim.seed);
  RunResult result = RunClosedLoop(
      *exec, RawClients(owned), op,
      sim.enabled ? Loop::Timed(sim.duration_ms, sim.warmup_ms)
                  : Loop::Timed(duration_ms, warmup_ms),
      trace_label);
  ExitOnFailedOps(system.name, trace_label, result.errors, result.ops);
  return result;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Machine-readable results. When CFS_BENCH_JSON_DIR is set (as
// run_all_benches.sh does), a bench writes BENCH_<bench>.json there on
// destruction: one record per (system, workload) with op/s, p50/p99
// latency and op/error counts, so the perf trajectory can be tracked
// across PRs instead of eyeballed from table dumps.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench) : bench_(std::move(bench)) {}
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;
  ~JsonReporter() { Flush(); }

  void Add(const std::string& system, const std::string& workload,
           const RunResult& result) {
    records_.push_back(Record{system, workload, result.ops_per_sec(),
                              static_cast<double>(result.latency.P50()),
                              static_cast<double>(result.latency.P99()),
                              result.ops, result.errors});
  }

  void Flush() {
    if (flushed_) return;
    flushed_ = true;
    const char* dir = std::getenv("CFS_BENCH_JSON_DIR");
    if (dir == nullptr || records_.empty()) return;
    std::string path = std::string(dir) + "/BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
                 bench_.c_str());
    for (size_t i = 0; i < records_.size(); i++) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "    {\"system\": \"%s\", \"workload\": \"%s\", "
                   "\"ops_per_sec\": %.1f, \"p50_us\": %.0f, "
                   "\"p99_us\": %.0f, \"ops\": %llu, \"errors\": %llu}%s\n",
                   r.system.c_str(), r.workload.c_str(), r.ops_per_sec,
                   r.p50_us, r.p99_us,
                   static_cast<unsigned long long>(r.ops),
                   static_cast<unsigned long long>(r.errors),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote %s (%zu records)\n", path.c_str(),
                 records_.size());
  }

 private:
  struct Record {
    std::string system;
    std::string workload;
    double ops_per_sec;
    double p50_us;
    double p99_us;
    uint64_t ops;
    uint64_t errors;
  };
  std::string bench_;
  std::vector<Record> records_;
  bool flushed_ = false;
};

// Enables causal tracing for the binary's lifetime when CFS_BENCH_TRACE_OUT
// is set (see the header comment for the knobs). Construct one per bench
// main, before any system starts; the destructor writes the Perfetto JSON
// and the slow-op tree dump.
class TraceSession {
 public:
  explicit TraceSession(std::string bench) : bench_(std::move(bench)) {
    const char* dir = std::getenv("CFS_BENCH_TRACE_OUT");
    if (dir == nullptr || dir[0] == '\0') return;
    dir_ = dir;
    trace::TraceOptions options;
    options.enabled = true;
    options.sample_every =
        static_cast<uint32_t>(EnvInt("CFS_TRACE_SAMPLE_EVERY", 64));
    options.slow_op_threshold_us = EnvInt("CFS_TRACE_SLOW_US", 20000);
    options.ring_capacity =
        static_cast<size_t>(EnvInt("CFS_TRACE_RING_CAP", 4096));
    options.max_retained_ops =
        static_cast<size_t>(EnvInt("CFS_TRACE_MAX_OPS", 512));
    options.max_slow_ops =
        static_cast<size_t>(EnvInt("CFS_TRACE_MAX_SLOW_OPS", 64));
    trace::TraceCollector::Global().Configure(options);
    std::fprintf(stderr,
                 "[trace] enabled: sample_every=%u slow_us=%lld -> %s\n",
                 options.sample_every,
                 static_cast<long long>(options.slow_op_threshold_us),
                 dir_.c_str());
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  ~TraceSession() {
    if (dir_.empty()) return;
    trace::TraceCollector& collector = trace::TraceCollector::Global();
    trace::TraceOptions off;
    off.enabled = false;
    collector.Configure(off);

    std::string json_path = dir_ + "/TRACE_" + bench_ + ".json";
    if (!collector.WritePerfettoJson(json_path)) {
      std::fprintf(stderr, "[trace] cannot write %s\n", json_path.c_str());
    }
    std::string slow_path = dir_ + "/TRACE_" + bench_ + ".slowops.txt";
    std::FILE* f = std::fopen(slow_path.c_str(), "w");
    if (f != nullptr) {
      for (const trace::OpRecord& op : collector.SnapshotSlowOps()) {
        std::string tree = trace::FormatOpTree(op, collector);
        std::fwrite(tree.data(), 1, tree.size(), f);
        std::fputc('\n', f);
      }
      std::fclose(f);
    }
    trace::TraceCollector::Stats stats = collector.stats();
    std::fprintf(stderr,
                 "[trace] wrote %s: ops_seen=%llu retained=%llu slow=%llu "
                 "events_dropped=%llu\n",
                 json_path.c_str(),
                 static_cast<unsigned long long>(stats.ops_seen),
                 static_cast<unsigned long long>(stats.ops_retained),
                 static_cast<unsigned long long>(stats.ops_slow),
                 static_cast<unsigned long long>(stats.events_dropped));
  }

  bool enabled() const { return !dir_.empty(); }

 private:
  std::string bench_;
  std::string dir_;
};

}  // namespace cfs::bench

#endif  // CFS_BENCH_BENCH_COMMON_H_
