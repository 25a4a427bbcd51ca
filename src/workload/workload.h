// mdtest-like workload harness (paper §5.1: "we run the mdtest-like
// benchmarks to evaluate individual metadata requests with different
// parameters including contention rates, the number of clients, the
// directory size").
//
// A WorkloadRunner drives N clients in a closed loop against any
// MetadataClient (CFS or a baseline), measuring aggregate throughput and
// per-op latency — either as one OS thread per client (Run, wall clock) or
// as lightweight simulated clients on a simtime::Scheduler (RunSimulated,
// virtual clock; see DESIGN.md §11). Workload shapes:
//   - private-dir: every client works in its own directory (no contention,
//     Fig 9/10);
//   - contention: with probability `contention_rate` a client targets the
//     shared directory instead of its private one (Fig 4/11);
//   - large-dir: all clients operate on one pre-populated directory
//     (Fig 12).

#ifndef CFS_WORKLOAD_WORKLOAD_H_
#define CFS_WORKLOAD_WORKLOAD_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/simtime.h"
#include "src/core/metadata_client.h"

namespace cfs {

// The metadata op vocabulary of Table 1.
enum class MetaOp {
  kCreate,
  kGetAttr,
  kRmdir,
  kLookup,
  kMkdir,
  kReaddir,
  kUnlink,
  kSetAttr,
  kRename,
};

std::string_view MetaOpName(MetaOp op);

struct RunResult {
  uint64_t ops = 0;
  uint64_t errors = 0;
  double seconds = 0;
  Histogram latency;
  // Per-phase time aggregated from each op's OpTrace — the span-derived
  // Lock/Execute/Other split the Fig 4/13 benches report.
  PhaseBreakdown phases;

  double ops_per_sec() const { return seconds > 0 ? ops / seconds : 0; }
  double kops() const { return ops_per_sec() / 1000.0; }
};

// One operation issued by a client thread. Returns the op's status; errors
// are counted but do not stop the run.
using OpFn =
    std::function<Status(MetadataClient* client, size_t thread, uint64_t seq,
                         Rng& rng)>;

class WorkloadRunner {
 public:
  // Takes ownership of per-thread clients (one each).
  explicit WorkloadRunner(std::vector<std::unique_ptr<MetadataClient>> clients)
      : clients_(std::move(clients)) {}

  // Closed loop for `duration_ms` (wall clock) after `warmup_ms`. Every op
  // is bracketed with OpTrace::Begin()/Finish(); the aggregated phase
  // breakdown lands in RunResult::phases. A non-empty `trace_label`
  // additionally publishes the breakdown and latency histogram to the
  // global MetricsRegistry under "trace.<label>.*".
  RunResult Run(const OpFn& op, int64_t duration_ms, int64_t warmup_ms = 0,
                const std::string& trace_label = "");

  // Simulated clients on a virtual clock: each client is a state-machine
  // task on `sched` that runs one op to completion, then reschedules itself
  // at the virtual time its accrued latencies imply — a closed loop whose
  // think time is the op's own modelled latency, like Run()'s thread-per-
  // client loop, but with no OS threads and no wall-clock sleeps, so
  // 10k+ clients cost only their ops' CPU time. `duration_ms`/`warmup_ms`
  // are VIRTUAL milliseconds; RunResult::seconds is virtual seconds, so
  // ops_per_sec() is virtual throughput. Per-client RNGs derive from the
  // scheduler seed, so identical seeds replay identical runs. The system
  // under test must be configured for determinism (LatencyMode::kVirtual,
  // inline raft replication, GC off — see bench_common.h's sim wiring).
  RunResult RunSimulated(simtime::Scheduler& sched, const OpFn& op,
                         int64_t duration_ms, int64_t warmup_ms = 0,
                         const std::string& trace_label = "");

  // Fixed op count per thread (setup/populate phases).
  RunResult RunCount(const OpFn& op, uint64_t ops_per_thread);

  size_t num_clients() const { return clients_.size(); }
  MetadataClient* client(size_t i) { return clients_[i].get(); }

 private:
  std::vector<std::unique_ptr<MetadataClient>> clients_;
};

// ---- setup helpers ----

// Creates /priv0../privN-1 (one per client) plus /shared.
Status SetupPrivateDirs(MetadataClient* client, size_t clients);

// Populates `dir` with `count` files named f0..f(count-1), using the given
// clients in parallel.
Status PopulateDirectory(std::vector<MetadataClient*> clients,
                         const std::string& dir, size_t count);

// ---- op factories (mdtest phases) ----
// `contention_rate` in [0,1]: probability of targeting /shared instead of
// the thread's private directory. Created names embed (thread, seq) so they
// never collide, also across runs: each Run/RunSimulated call starts `seq`
// at its own offset.

OpFn MakeCreateOp(double contention_rate);
OpFn MakeUnlinkAfterCreateOp(double contention_rate);  // create then unlink
OpFn MakeMkdirOp(double contention_rate);
OpFn MakeRmdirAfterMkdirOp(double contention_rate);
// Read-side ops over a pre-populated population of `files_per_dir` files
// in each private dir (or `shared_files` in /shared under contention).
OpFn MakeGetAttrOp(double contention_rate, size_t files_per_dir,
                   size_t shared_files);
OpFn MakeLookupOp(double contention_rate, size_t files_per_dir,
                  size_t shared_files);
OpFn MakeSetAttrOp(double contention_rate, size_t files_per_dir,
                   size_t shared_files);
OpFn MakeReaddirOp(double contention_rate);
// Rename mix of §5.6: `intra_ratio` of intra-directory file renames, the
// rest cross-directory / directory renames.
OpFn MakeRenameOp(double intra_ratio);

// Ops targeting one shared large directory (Fig 12).
OpFn MakeLargeDirOp(MetaOp op, const std::string& dir, size_t population);

}  // namespace cfs

#endif  // CFS_WORKLOAD_WORKLOAD_H_
