// cfs_perfbench — one run of one workload: a wall-clock leg and a
// virtual-time leg against full CFS, an audit of both namespaces, and one
// JSON result line (the last line of stdout).
//
//   cfs_perfbench --workload read-mix --seed 1 --seconds 10 --trace 0
//                 [--out-dir DIR] [--source-id ID]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the wall leg
// twice (untraced, then with per-op spans kept in memory), prints the
// per-layer metrics and writes the spans to DIR/spans-<workload>.jsonl.
// Exit status: 0 when every op succeeded and both audits passed, 3 when
// the run measured something wrong (the result line says correct=false),
// 2 for bad arguments or a sanitizer build, 1 when setup failed.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/common/logging.h"
#include "src/common/trace_event.h"

using namespace perfbench;

namespace {

constexpr size_t kWallClients = 4;
constexpr size_t kSimClients = 1024;
// Per-client dentry cache capacity. The read-mix namespace (8192 files in
// 64 leaf directories) is 8x this, so popular entries stay cached and the
// Zipf tail misses — the production default of 65,536 would need a
// namespace too large to populate within a run.
constexpr size_t kCacheCapacity = 1024;
constexpr int kSetups = 3;
constexpr int64_t kSimWindowMs = 1;
constexpr size_t kOvershootCalls = 400;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef CFS_LOCK_ORDER_TRACKING
constexpr bool kLockOrder = true;
#else
constexpr bool kLockOrder = false;
#endif
#ifdef CFS_RACE_DETECT_ENABLED
constexpr bool kRaceDetect = true;
#else
constexpr bool kRaceDetect = false;
#endif

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".";
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// Metrics in print order.
class Metrics {
 public:
  void Add(std::string name, double value, const char* unit) {
    entries_.push_back({std::move(name), value, unit});
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("metric %-40s %14.6f %s\n", e.name.c_str(), e.value,
                  e.unit);
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); i++) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

class Stopwatch {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

struct Latency {
  size_t samples = 0;
  double p50_us = 0, p99_us = 0;
  size_t beyond_p99 = 0;
};

Latency Summarize(const std::vector<Sample>& samples, int op = -1) {
  std::vector<int64_t> ns;
  for (const Sample& s : samples) {
    if (op < 0 || static_cast<int>(s.op) == op) ns.push_back(s.ns);
  }
  std::sort(ns.begin(), ns.end());
  Latency l;
  l.samples = ns.size();
  if (ns.empty()) return l;
  int64_t p99 = Percentile(ns, 99);
  l.p50_us = Us(Percentile(ns, 50));
  l.p99_us = Us(p99);
  l.beyond_p99 = static_cast<size_t>(
      ns.end() - std::upper_bound(ns.begin(), ns.end(), p99));
  return l;
}

// "n=<count> q1/median/q3=<a>/<b>/<c>" of per-slice readings.
std::string Quartiles(std::vector<double> v) {
  if (v.empty()) return "n=0";
  std::sort(v.begin(), v.end());
  char buf[128];
  std::snprintf(buf, sizeof(buf), "n=%zu q1/median/q3=%.2f/%.2f/%.2f",
                v.size(), v[v.size() / 4], Median(v), v[v.size() * 3 / 4]);
  return buf;
}

double PerOp(double value, size_t ops) {
  return ops > 0 ? value / static_cast<double>(ops) : 0;
}

// Every dentry-cache consult ends in exactly one of these outcomes.
uint64_t CacheLookups(const Counters& d) {
  return d.Get("dentry_cache.hit") + d.Get("dentry_cache.negative_hit") +
         d.Get("dentry_cache.miss") + d.Get("dentry_cache.revalidate");
}

// Consults answered from the cache (positive or negative) ÷ all consults;
// the base is dentry_cache.lookups.
double CacheHitRatio(const Counters& d) {
  const uint64_t lookups = CacheLookups(d);
  return lookups > 0 ? static_cast<double>(d.Get("dentry_cache.hit") +
                                           d.Get("dentry_cache.negative_hit")) /
                           static_cast<double>(lookups)
                     : 0;
}

double HotShare(const std::vector<uint64_t>& before,
                const std::vector<uint64_t>& after, uint64_t* total) {
  uint64_t max = 0;
  *total = 0;
  for (size_t i = 0; i < after.size(); i++) {
    uint64_t d = after[i] - before[i];
    max = std::max(max, d);
    *total += d;
  }
  return *total > 0 ? static_cast<double>(max) / static_cast<double>(*total)
                    : 0;
}

// Per-layer metrics of the traced wall window.
void AddWallLayers(const Window& w, double overshoot, Metrics* m) {
  const size_t ops = w.samples.size();
  for (size_t op = 0; op < kNumOps; op++) {
    Latency l = Summarize(w.samples, static_cast<int>(op));
    std::string name = std::string("core.") + OpName(static_cast<Op>(op));
    m->Add(name + ".p50_us", l.p50_us, "us");
    m->Add(name + ".p99_us", l.p99_us, "us");
  }
  Latency all = Summarize(w.samples);
  m->Add("core.samples", static_cast<double>(all.samples), "count");
  m->Add("core.beyond_p99", static_cast<double>(all.beyond_p99), "count");

  cfs::PhaseBreakdown phases;
  uint64_t hops = 0;
  for (const TracedOp& t : w.traced) {
    phases.Add(t.phases);
    hops += t.hops;
  }
  const size_t traced = std::max<size_t>(w.traced.size(), 1);
  auto phase_us = [&](cfs::Phase p) {
    return static_cast<double>(phases.PhaseUs(p)) / traced;
  };
  m->Add("core.resolve_us", phase_us(cfs::Phase::kResolve), "us/op");
  m->Add("core.resolve_cached_us", phase_us(cfs::Phase::kResolveCached),
         "us/op");

  const Counters d = w.after.counters.Minus(w.before.counters);
  auto per_op = [&](const char* counter) {
    return PerOp(static_cast<double>(d.Get(counter)), ops);
  };
  m->Add("dentry_cache.hit_ratio", CacheHitRatio(d), "ratio");
  m->Add("dentry_cache.lookups",
         PerOp(static_cast<double>(CacheLookups(d)), ops), "count/op");
  m->Add("dentry_cache.revalidate", per_op("dentry_cache.revalidate"),
         "count/op");
  m->Add("dentry_cache.stale", per_op("dentry_cache.stale"), "count/op");
  m->Add("dentry_cache.evict", per_op("dentry_cache.evict"), "count/op");

  m->Add("net.rpcs",
         PerOp(static_cast<double>(w.after.net_calls - w.before.net_calls), ops),
         "count/op");
  m->Add("net.op_rpcs", static_cast<double>(hops) / traced, "count/op");
  m->Add("net.injected_us",
         PerOp(static_cast<double>(w.after.net_injected_us -
                                   w.before.net_injected_us),
               ops),
         "us/op");
  m->Add("net.rpc_us", phase_us(cfs::Phase::kRpc), "us/op");
  m->Add("net.sleep_overshoot", overshoot, "ratio");

  uint64_t shard_calls = 0, fs_calls = 0;
  const double hot_shard =
      HotShare(w.before.shard_calls, w.after.shard_calls, &shard_calls);
  const double hot_node = HotShare(w.before.fs_calls, w.after.fs_calls, &fs_calls);
  m->Add("tafdb.primitives", per_op("tafdb.primitives"), "count/op");
  m->Add("tafdb.reads", per_op("tafdb.reads"), "count/op");
  m->Add("tafdb.txn_commits", per_op("tafdb.txn_commits"), "count/op");
  m->Add("tafdb.aborts", per_op("tafdb.aborts"), "count/op");
  m->Add("tafdb.exec_us", phase_us(cfs::Phase::kShardExec), "us/op");
  m->Add("tafdb.hot_shard_share", hot_shard, "ratio");
  m->Add("tafdb.shard_calls", PerOp(static_cast<double>(shard_calls), ops),
         "count/op");
  m->Add("filestore.attr_reads", per_op("filestore.attr_reads"), "count/op");
  m->Add("filestore.mutations", per_op("filestore.mutations"), "count/op");
  m->Add("filestore.hot_node_share", hot_node, "ratio");
  m->Add("filestore.node_calls", PerOp(static_cast<double>(fs_calls), ops),
         "count/op");

  m->Add("raft.proposals", per_op("raft.proposals"), "count/op");
  m->Add("raft.append_us", phase_us(cfs::Phase::kRaftAppend), "us/op");
  const uint64_t appends = d.Get("wal.appends");
  const uint64_t synced = d.Get("wal.synced_appends");
  m->Add("wal.appends", per_op("wal.appends"), "count/op");
  m->Add("wal.fsyncs", per_op("wal.synced_appends"), "count/op");
  m->Add("wal.group_commit_batch",
         synced > 0 ? static_cast<double>(appends) / static_cast<double>(synced)
                    : 0,
         "ratio");
  // WAL flushes run on raft replicator threads, outside the op's own
  // OpTrace, so this is the WAL's modelled flush time per op, cluster-wide.
  m->Add("wal.fsync_us", per_op("wal.fsync_us"), "us/op");

  const uint64_t acquisitions = d.Get("lockmgr.acquisitions");
  m->Add("txn.lock_acquisitions", per_op("lockmgr.acquisitions"), "count/op");
  m->Add("txn.lock_contended_ratio",
         acquisitions > 0 ? static_cast<double>(d.Get("lockmgr.contended")) /
                                static_cast<double>(acquisitions)
                          : 0,
         "ratio");
  m->Add("txn.lock_wait_us", phase_us(cfs::Phase::kLockWait), "us/op");
  m->Add("txn.2pc_runs", per_op("2pc.runs"), "count/op");
  m->Add("txn.2pc_us",
         phase_us(cfs::Phase::kTwoPcPrepare) +
             phase_us(cfs::Phase::kTwoPcDecision),
         "us/op");
  m->Add("renamer.renames", per_op("renamer.renames"), "count/op");
  m->Add("renamer.us", phase_us(cfs::Phase::kRenamer), "us/op");
  m->Add("renamer.aborted", static_cast<double>(d.Get("renamer.aborted")),
         "count");
  m->Add("gc.events_per_s",
         static_cast<double>(d.Get("gc.events_processed")) / w.seconds, "1/s");
  m->Add("gc.orphan_attrs_deleted",
         static_cast<double>(d.Get("gc.orphan_attrs_deleted")), "count");
  m->Add("gc.dangling_entries_removed",
         static_cast<double>(d.Get("gc.dangling_entries_removed")), "count");

  m->Add("proc.user_us",
         PerOp(static_cast<double>(w.after.user_us - w.before.user_us), ops),
         "us/op");
  m->Add("proc.sys_us",
         PerOp(static_cast<double>(w.after.sys_us - w.before.sys_us), ops),
         "us/op");
  m->Add("proc.ctx_switches",
         PerOp(static_cast<double>(w.after.ctx_switches -
                                   w.before.ctx_switches),
               ops),
         "count/op");
}

void AddSimLayers(const SimLeg::Result& r, Metrics* m) {
  const Window& w = r.totals;
  const size_t ops = w.samples.size();
  const Counters d = w.after.counters.Minus(w.before.counters);
  auto per_op = [&](const char* counter) {
    return PerOp(static_cast<double>(d.Get(counter)), ops);
  };
  Latency l = Summarize(w.samples);
  m->Add("sim.ops", static_cast<double>(ops), "count");
  m->Add("sim.virtual_ops_per_s", static_cast<double>(ops) / w.seconds, "1/s");
  m->Add("sim.virtual_p50_us", l.p50_us, "us");
  m->Add("sim.virtual_p99_us", l.p99_us, "us");
  m->Add("sim.net.rpcs",
         PerOp(static_cast<double>(w.after.net_calls - w.before.net_calls), ops),
         "count/op");
  m->Add("sim.tafdb.primitives", per_op("tafdb.primitives"), "count/op");
  m->Add("sim.tafdb.reads", per_op("tafdb.reads"), "count/op");
  m->Add("sim.filestore.attr_reads", per_op("filestore.attr_reads"),
         "count/op");
  m->Add("sim.raft.proposals", per_op("raft.proposals"), "count/op");
  m->Add("sim.wal.fsyncs", per_op("wal.synced_appends"), "count/op");
  m->Add("sim.dentry_cache.hit_ratio", CacheHitRatio(d), "ratio");
  m->Add("sim.txn.lock_acquisitions", per_op("lockmgr.acquisitions"),
         "count/op");
  m->Add("sim.renamer.renames", per_op("renamer.renames"), "count/op");
}

void WriteSpans(const std::string& path, const std::vector<TracedOp>& ops) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (const TracedOp& op : ops) {
    std::fprintf(f,
                 "{\"trace_id\": %" PRIu64 ", \"op\": \"%s\", \"start_ns\": %" PRId64
                 ", \"dur_ns\": %" PRId64 ", \"rpcs\": %" PRIu64 ", \"phases_us\": {",
                 op.trace_id, OpName(op.op), op.start_ns, op.end_ns - op.start_ns,
                 op.hops);
    bool first = true;
    for (size_t p = 0; p < cfs::kNumPhases; p++) {
      if (op.phases.count[p] == 0) continue;
      std::fprintf(f, "%s\"%s\": %" PRId64, first ? "" : ", ",
                   std::string(cfs::PhaseName(static_cast<cfs::Phase>(p))).c_str(),
                   op.phases.us[p]);
      first = false;
    }
    std::fprintf(f, "}}\n");
  }
  std::fclose(f);
}

std::string Provenance(const Args& args, const Layout& wall,
                       const Layout& sim) {
  const char* race_env = std::getenv("CFS_RACE_DETECT");
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"source_id\": \"%s\", \"build_type\": \"%s\", "
      "\"lock_order_tracking\": %s, \"race_detector_compiled\": %s, "
      "\"race_detect_env\": \"%s\", \"sanitizer\": \"%s\", \"nproc\": %u, "
      "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %g, "
      "\"trace\": %d, \"wall_clients\": %zu, \"sim_clients\": %zu, "
      "\"dentry_cache_capacity\": %zu, \"read_mix_files\": %zu, "
      "\"read_mix_leaf_dirs\": %zu, \"zipf_theta\": %g, "
      "\"rename_files_per_client\": [%zu, %zu], \"sim_window_ms\": %lld}",
      args.source_id.c_str(), PERFBENCH_BUILD_TYPE,
      kLockOrder ? "true" : "false", kRaceDetect ? "true" : "false",
      race_env == nullptr ? "" : race_env, PERFBENCH_SANITIZE,
      std::thread::hardware_concurrency(), args.workload.c_str(), args.seed,
      args.seconds, args.trace, wall.clients, sim.clients, kCacheCapacity,
      wall.ReadMixFiles(), wall.top_dirs * wall.sub_dirs, wall.zipf_theta,
      wall.rename_files, sim.rename_files,
      static_cast<long long>(kSimWindowMs));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload workload;
  if (!ParseArgs(argc, argv, &args) || !ParseWorkload(args.workload, &workload)) {
    std::fprintf(stderr,
                 "usage: cfs_perfbench --workload read-mix|shared-dir-writes|"
                 "rename-mix --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--source-id ID]\n");
    return 2;
  }
  if (kSanitizerBuild || std::strlen(PERFBENCH_SANITIZE) > 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a sanitizer build\n");
    return 2;
  }
  cfs::Logger::Get().set_level(cfs::LogLevel::kWarn);
  const bool traced = args.trace == 1;

  // Optional span trees from the program's own causal tracing.
  const char* trace_out = std::getenv("CFS_BENCH_TRACE_OUT");
  const bool causal = traced && trace_out != nullptr && trace_out[0] != '\0';
  if (causal) {
    cfs::trace::TraceOptions options;
    options.enabled = true;
    cfs::trace::TraceCollector::Global().Configure(options);
  }

  Layout wall_layout;
  wall_layout.workload = workload;
  wall_layout.clients = kWallClients;
  Layout sim_layout = wall_layout;
  sim_layout.clients = kSimClients;
  sim_layout.rename_files = 4;
  sim_layout.rename_subdirs = 1;

  std::string provenance = Provenance(args, wall_layout, sim_layout);
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  Metrics metrics;
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;

  // ---- wall leg ----
  const double wall_s = args.seconds * 0.7;
  Window measured;
  // Process CPU per op, as the median of the untraced window's slices.
  std::vector<double> cpu_slices;
  {
    WallLeg leg(wall_layout, args.seed, kCacheCapacity);
    std::vector<double> setups;
    for (int i = 0; i < (traced ? 1 : kSetups); i++) {
      setups.push_back(leg.Setup());
    }
    if (!traced) {
      measured = leg.Run(0.5, wall_s, /*traced=*/false);
      cpu_slices = measured.cpu_us_per_op_slices;
      metrics.Add("setup_s", Median(setups), "s");
    } else {
      Window untraced = leg.Run(0.5, wall_s / 2, /*traced=*/false);
      measured = leg.Run(0, wall_s / 2, /*traced=*/true);
      cpu_slices = untraced.cpu_us_per_op_slices;
      attempted += untraced.attempted;
      failed += untraced.failed;
      if (!untraced.first_error.empty()) errors.push_back(untraced.first_error);
      const double untraced_ops =
          static_cast<double>(untraced.samples.size()) / untraced.seconds;
      const double traced_ops =
          static_cast<double>(measured.samples.size()) / measured.seconds;
      AddWallLayers(measured, leg.SleepOvershoot(kOvershootCalls), &metrics);
      metrics.Add("trace.untraced_ops_per_s", untraced_ops, "1/s");
      metrics.Add("trace.traced_ops_per_s", traced_ops, "1/s");
      metrics.Add("trace.overhead_pct",
                  traced_ops > 0 ? 100.0 * (untraced_ops / traced_ops - 1) : 0,
                  "%");
    }
    attempted += measured.attempted;
    failed += measured.failed;
    if (!measured.first_error.empty()) errors.push_back(measured.first_error);
    Stopwatch audit_time;
    std::string audit = leg.Audit();
    std::fprintf(stderr, "perfbench: wall audit %.3f s\n", audit_time.Seconds());
    if (!audit.empty()) errors.push_back("wall audit: " + audit);
  }

  // ---- virtual-time leg ----
  SimLeg::Result sim;
  {
    SimLeg leg(sim_layout, args.seed, kCacheCapacity);
    double setup = leg.Setup();
    std::printf("sim_setup_s %.3f\n", setup);
    sim = leg.Run(kSimWindowMs, args.seconds * 0.3, 3, 200, false, nullptr);
    attempted += sim.totals.attempted;
    failed += sim.totals.failed;
    if (!sim.totals.first_error.empty()) {
      errors.push_back("sim: " + sim.totals.first_error);
    }
    Stopwatch audit_time;
    std::string audit = leg.Audit();
    std::fprintf(stderr, "perfbench: sim audit %.3f s\n", audit_time.Seconds());
    if (!audit.empty()) errors.push_back("sim audit: " + audit);
  }

  const size_t ops = measured.samples.size();
  Latency lat = Summarize(measured.samples);
  const double ops_per_s = static_cast<double>(ops) / measured.seconds;
  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 0;
  std::printf("wall: %zu ops in %.3f s (%zu samples, %zu beyond p99), "
              "error_rate %.6f\n",
              ops, measured.seconds, lat.samples, lat.beyond_p99, error_rate);
  std::printf("sim: %zu ops in %.3f virtual s over %zu windows, host %.3f s\n",
              sim.totals.samples.size(), sim.totals.seconds,
              sim.host_us_per_op.size(), sim.host_seconds);
  std::printf("cpu_us_per_op slices: %s\nsim_host_us_per_op windows: %s\n",
              Quartiles(cpu_slices).c_str(),
              Quartiles(sim.host_us_per_op).c_str());

  if (!traced) {
    metrics.Add("ops_per_s", ops_per_s, "1/s");
    metrics.Add("p50_us", lat.p50_us, "us");
    metrics.Add("p99_us", lat.p99_us, "us");
  } else {
    // CPU-time metrics swing with the machine's load from other tenants by
    // more than any bound a regression gate could use, so they are
    // reported here, unbounded, rather than as end-to-end metrics.
    metrics.Add("cpu_us_per_op", Median(cpu_slices), "us/op");
    metrics.Add("sim_host_us_per_op", Median(sim.host_us_per_op), "us/op");
    metrics.Add("error_rate", error_rate, "ratio");
    AddSimLayers(sim, &metrics);
    std::filesystem::create_directories(args.out_dir);
    WriteSpans(args.out_dir + "/spans-" + args.workload + ".jsonl",
               measured.traced);
    if (causal) {
      cfs::trace::TraceCollector& collector =
          cfs::trace::TraceCollector::Global();
      cfs::trace::TraceOptions off;
      collector.Configure(off);
      std::string path =
          std::string(trace_out) + "/TRACE_perfbench_" + args.workload + ".json";
      if (!collector.WritePerfettoJson(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
  }
  metrics.Print();

  const bool correct = errors.empty() && failed == 0;
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }
  std::printf("error_rate %.6f (%" PRIu64 " failed of %" PRIu64 " attempted)\n",
              error_rate, failed, attempted);
  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": " + metrics.Json() + "}";
  {
    std::filesystem::create_directories(args.out_dir);
    std::string path = args.out_dir + "/result-" + args.workload + "-seed" +
                       std::to_string(args.seed) + "-trace" +
                       std::to_string(args.trace) + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\"provenance\": %s, \"error_rate\": %.9g, "
                   "\"samples\": %zu, \"beyond_p99\": %zu, \"result\": %s}\n",
                   provenance.c_str(), error_rate, lat.samples, lat.beyond_p99,
                   result.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 3;
}
