// CFS metadata benchmark: workload generators, the namespace model used by
// the end-of-run audit, and the two measurement legs (wall clock and
// virtual time). main.cc turns one leg pair into the printed result;
// selftest.cc checks the generators and the virtual leg's determinism.
//
// Every layer is measured from outside: the benchmark times its own calls
// into MetadataClient and reads deltas from public read-outs (OpTrace phase
// accumulators, MetricsRegistry counters, SimNet call tables, getrusage).

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/simtime.h"
#include "src/core/cfs.h"

namespace perfbench {

// Op kinds the generators emit. Renames are split by path so the rename
// tail can be read per kind: intra-directory file renames take CFS's
// single-shard fast path, the other two go through the Renamer.
enum class Op : uint8_t {
  kGetAttr,
  kLookup,
  kSetAttr,
  kCreate,
  kUnlink,
  kReadDir,
  kRename,       // file, same directory
  kRenameCross,  // file, to another directory
  kRenameDir,    // directory, to another directory
  kMkdir,
  kRmdir,
};
inline constexpr size_t kNumOps = static_cast<size_t>(Op::kRmdir) + 1;
const char* OpName(Op op);

enum class Workload { kReadMix, kSharedDirWrites, kRenameMix };
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Namespace and mix sizes. The same layout drives both legs; only the
// client count and the rename-mix per-client population differ.
struct Layout {
  Workload workload = Workload::kReadMix;
  size_t clients = 4;
  // read-mix: <root>/d<i>/s<j>/f<k>, Zipf popularity over the files.
  size_t top_dirs = 8;
  size_t sub_dirs = 8;
  size_t files_per_leaf = 128;
  double zipf_theta = 0.99;
  // rename-mix: per client <root>/c<n>/{a,b}, `rename_files` files and
  // `rename_subdirs` two-file subdirectories that directory renames move.
  size_t rename_files = 16;
  size_t rename_subdirs = 2;

  size_t ReadMixFiles() const { return top_dirs * sub_dirs * files_per_leaf; }
};

// One generated operation. Paths are relative to the run root (they start
// with '/'); the executor prefixes the root, which carries the run nonce.
struct OpSpec {
  Op op = Op::kGetAttr;
  std::string path;
  std::string path2;  // rename destination
};

// The expected namespace under the run root: directory -> child names.
// Built from the population plus every client's mutation log, then
// compared with what the cluster returns.
class NamespaceModel {
 public:
  void AddDir(const std::string& path);
  void AddFile(const std::string& path);
  void Apply(const OpSpec& spec);
  const std::map<std::string, std::set<std::string>>& dirs() const {
    return dirs_;
  }
  const std::set<std::string>& files() const { return files_; }

 private:
  std::map<std::string, std::set<std::string>> dirs_;
  std::set<std::string> files_;
};

// read-mix popularity, shared by every client of a leg: a seeded
// permutation of the population (Zipf rank -> file index) and the Zipf
// sampler over ranks. ZipfGenerator::Next writes no state, so clients on
// different threads may share one.
struct HotSet {
  std::vector<uint32_t> order;
  cfs::ZipfGenerator zipf;
};
std::shared_ptr<HotSet> MakeHotSet(const Layout& layout, uint64_t seed);

// A client's deterministic op stream. All randomness comes from the seed
// and the client index; owned-file state advances as ops are generated
// (every op must succeed, so generated state is the real state).
class ClientGen {
 public:
  ClientGen(const Layout& layout, uint64_t seed, size_t client,
            std::shared_ptr<HotSet> hot);

  OpSpec Next();
  // Mutations generated so far, in order (replayed into NamespaceModel).
  const std::vector<OpSpec>& mutations() const { return mutations_; }
  // Ops drawn as one kind and emitted as another because the client owned
  // nothing to mutate yet (e.g. unlink before any create).
  uint64_t substitutions() const { return substitutions_; }

 private:
  OpSpec NextReadMix();
  OpSpec NextSharedDir();
  OpSpec NextRenameMix();
  std::string NewName(const char* prefix);
  std::string LeafOfFile(uint64_t file) const;
  uint64_t PickHotFile();
  OpSpec Emit(OpSpec spec);
  static std::string TakeRandom(std::vector<std::string>* from, cfs::Rng& rng);

  const Layout layout_;
  const size_t client_;
  cfs::Rng rng_;
  uint64_t seq_ = 0;
  uint64_t substitutions_ = 0;
  std::shared_ptr<HotSet> hot_;
  std::vector<std::string> own_files_;
  std::vector<std::string> own_dirs_;
  // rename-mix: the client's two directories and its movable subdirs.
  std::string dir_a_, dir_b_;
  std::vector<std::string> own_subdirs_;
  std::vector<OpSpec> mutations_;
};

// Registry counters the per-layer metrics are derived from.
struct Counters {
  static constexpr const char* kNames[] = {
      "dentry_cache.hit",        "dentry_cache.miss",
      "dentry_cache.negative_hit", "dentry_cache.stale",
      "dentry_cache.evict",      "dentry_cache.revalidate",
      "tafdb.primitives",        "tafdb.reads",
      "tafdb.txn_commits",       "tafdb.aborts",
      "filestore.attr_reads",    "filestore.mutations",
      "raft.proposals",          "wal.appends",
      "wal.synced_appends",      "wal.fsync_us",
      "lockmgr.acquisitions",
      "lockmgr.contended",       "2pc.runs",
      "renamer.renames",
      "renamer.aborted",         "gc.events_processed",
      "gc.orphan_attrs_deleted", "gc.dangling_entries_removed",
  };
  static constexpr size_t kCount = sizeof(kNames) / sizeof(kNames[0]);
  uint64_t v[kCount] = {};

  static Counters Read();
  uint64_t Get(const char* name) const;
  Counters Minus(const Counters& base) const;
};

// Snapshot of the cluster-level read-outs at a point in time.
struct Snapshot {
  Counters counters;
  uint64_t net_calls = 0;
  int64_t net_injected_us = 0;
  std::vector<uint64_t> shard_calls;  // per TafDB shard service node
  std::vector<uint64_t> fs_calls;     // per FileStore service node
  int64_t user_us = 0, sys_us = 0, ctx_switches = 0;  // getrusage(SELF)

  static Snapshot Take(cfs::Cfs* fs);
};

// One measured op. Latency is in nanoseconds (wall leg) or virtual
// nanoseconds (virtual leg).
struct Sample {
  Op op;
  int64_t ns;
};

// One traced op: a span carrying the op's trace id and its OpTrace phase
// split; `hops` is the op's own RPC count (SimNet thread-local counter).
struct TracedOp {
  uint64_t trace_id = 0;
  Op op = Op::kGetAttr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t hops = 0;
  cfs::OpTraceData phases;
};

// Result of one measured window.
struct Window {
  double seconds = 0;  // wall (or virtual, for the virtual leg) seconds
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;  // successful ops only
  std::vector<TracedOp> traced;
  Snapshot before, after;
  // Wall leg: process CPU µs per successful op in each half-second slice
  // of the window. Their median resists bursts of CPU stolen by other
  // tenants of the machine, which the whole-window ratio absorbs.
  std::vector<double> cpu_us_per_op_slices;
  std::string first_error;
};

// ---- wall leg ----

class WallLeg {
 public:
  WallLeg(const Layout& layout, uint64_t seed, size_t cache_capacity);
  ~WallLeg();

  // Boots a cluster and populates the namespace; returns the wall seconds
  // this took. Aborts the process if setup fails.
  double Setup();
  // Runs all clients in a closed loop for `warmup_s` then measures
  // `measure_s`. Ops issued during warm-up must succeed too.
  Window Run(double warmup_s, double measure_s, bool traced);
  // Times `calls` direct SimNet round trips per client thread from the
  // client nodes to the TafDB shard nodes: measured ÷ injected latency.
  double SleepOvershoot(size_t calls);
  // End-of-run audit through MetadataClient, against the namespace
  // rebuilt from the population and every client's mutation log: each
  // directory's `children` equals its ReadDir size and its listing equals
  // the model; every file created or moved during the run answers
  // GetAttr. Returns "" or the first mismatch.
  std::string Audit();

 private:
  Layout layout_;
  uint64_t seed_;
  size_t cache_capacity_;
  std::string root_;
  std::unique_ptr<cfs::Cfs> fs_;
  std::vector<std::unique_ptr<cfs::MetadataClient>> clients_;
  std::vector<ClientGen> gens_;
};

// ---- virtual-time leg ----

// Per-op record of the virtual leg, for the determinism self-check.
struct SimOpRecord {
  Op op;
  std::string path;
  int64_t virtual_ns;
  uint64_t hops;
  uint64_t primitives, reads, cache_hits, lock_acquisitions, renames;
};

class SimLeg {
 public:
  SimLeg(const Layout& layout, uint64_t seed, size_t cache_capacity);
  ~SimLeg();

  // Boots the virtual-time cluster and populates it on the scheduler.
  double Setup();
  // Runs a warm-up window then measured windows of `window_ms` virtual ms
  // until `host_budget_s` of host time has passed (at least `min_windows`,
  // at most `max_windows`). Returns per-window host µs per op in
  // `host_us_per_op`. With `record`, every measured op is appended to
  // `records` (reads global counters around each op).
  struct Result {
    Window totals;  // all measured windows together (virtual seconds)
    std::vector<double> host_us_per_op;
    double host_seconds = 0;
  };
  Result Run(int64_t window_ms, double host_budget_s, size_t min_windows,
             size_t max_windows, bool record,
             std::vector<SimOpRecord>* records);
  std::string Audit();

 private:
  Layout layout_;
  uint64_t seed_;
  size_t cache_capacity_;
  std::string root_;
  std::unique_ptr<cfs::Cfs> fs_;
  std::unique_ptr<cfs::simtime::Scheduler> sched_;
  std::vector<std::unique_ptr<cfs::MetadataClient>> clients_;
  std::vector<ClientGen> gens_;
};

// Exact nearest-rank percentile of sorted values (p in (0,100]).
int64_t Percentile(const std::vector<int64_t>& sorted, double p);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
