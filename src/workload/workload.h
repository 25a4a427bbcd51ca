// mdtest-like workload harness (paper §5.1: "we run the mdtest-like
// benchmarks to evaluate individual metadata requests with different
// parameters including contention rates, the number of clients, the
// directory size").
//
// Every client loop here — measured runs, namespace population, trace
// replay — runs one closed-loop client body (RunClients): begin an OpTrace,
// run the op with the client's RNG and sequence number, finish the trace and
// record it unless the op started during warm-up. An Executor decides only
// when each client's next step runs and when the loop stops: one OS thread
// per client on the wall clock (ThreadExecutor), or one self-rescheduling
// task per client on a simtime::Scheduler's virtual clock
// (SchedulerExecutor; see DESIGN.md §11). Workload shapes:
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

// One operation issued by a client. Returns the op's status; errors are
// counted but do not stop the run.
using OpFn =
    std::function<Status(MetadataClient* client, size_t thread, uint64_t seq,
                         Rng& rng)>;

// When a closed loop stops, in milliseconds of the executor's clock.
struct Loop {
  // Timed loop: `warmup_ms` of ops that are traced as "warmup" and not
  // recorded, then `duration_ms` of measured ops. An op that starts before
  // the deadline is recorded even if it ends past it.
  int64_t duration_ms = 0;
  int64_t warmup_ms = 0;
  // Count loop when nonzero: exactly this many recorded ops per client,
  // with `seq` running from 0, so it can index the client's share of work.
  uint64_t ops_per_client = 0;

  static Loop Timed(int64_t duration_ms, int64_t warmup_ms = 0) {
    return Loop{duration_ms, warmup_ms, 0};
  }
  static Loop Count(uint64_t ops_per_client) {
    return Loop{0, 0, ops_per_client};
  }
};

// Decides when each client's next step runs and when the loop stops.
class Executor {
 public:
  virtual ~Executor() = default;
  // Calls `step(client, warm)` for clients [0, clients) in a closed loop
  // until `loop` ends; `warm` says the step starts during warm-up. Returns
  // the measured window in seconds of the executor's clock.
  virtual double Drive(size_t clients, const Loop& loop,
                       const std::function<void(size_t, bool)>& step) = 0;
  // Mixed into every client's RNG seed, so seeded executors vary the ops.
  virtual uint64_t seed() const { return 0; }
};

// One OS thread per client; wall-clock warm-up and deadline.
class ThreadExecutor final : public Executor {
 public:
  double Drive(size_t clients, const Loop& loop,
               const std::function<void(size_t, bool)>& step) override;
};

// One task per client on its own simtime::Scheduler. A step runs its op to
// completion on the scheduler thread, then reschedules the client at the
// virtual time the op's accrued latencies imply: a closed loop whose think
// time is the op's modelled latency, with no OS threads and no sleeps, so
// 10k+ clients cost only their ops' CPU time. Identical seeds replay
// identical runs if the system under test is configured for determinism
// (LatencyMode::kVirtual, inline raft replication, GC off — see
// bench_common.h's sim wiring). Later loops continue from the virtual time
// the previous one ended at.
class SchedulerExecutor final : public Executor {
 public:
  explicit SchedulerExecutor(uint64_t seed) : sched_(seed) {}
  double Drive(size_t clients, const Loop& loop,
               const std::function<void(size_t, bool)>& step) override;
  uint64_t seed() const override { return sched_.seed(); }

 private:
  simtime::Scheduler sched_;
};

// A client's RNG seed, before the executor's seed is mixed in.
using SeedFn = uint64_t (*)(size_t client);
// Folds one recorded op into client `client`'s share of the results. Runs
// on the client's own thread or task, so per-client state needs no lock.
using RecordFn = std::function<void(size_t client, const Status& status,
                                    const OpTraceData& trace)>;

// The closed-loop client body, run on `exec` for every client. Each op is
// bracketed with OpTrace::Begin()/Finish() under `op_name`, or under
// "warmup" if it starts during warm-up, in which case it is not recorded.
// A null `op_name` times ops without causal-tracing them. Timed loops
// start `seq` at a per-run offset, so names built from (client, seq) never
// collide across runs. Returns the measured window in seconds.
double RunClients(Executor& exec, const std::vector<MetadataClient*>& clients,
                  const OpFn& op, const Loop& loop, const char* op_name,
                  SeedFn seed, const RecordFn& record);

// The client body's measured run: `op` on every client until `loop` ends,
// aggregated. The phase breakdown lands in RunResult::phases. A non-empty
// `trace_label` additionally publishes the breakdown and latency histogram
// to the global MetricsRegistry under "trace.<label>.*". On a
// SchedulerExecutor, RunResult::seconds is virtual, so ops_per_sec() is
// virtual throughput.
RunResult RunClosedLoop(Executor& exec,
                        const std::vector<MetadataClient*>& clients,
                        const OpFn& op, const Loop& loop,
                        const std::string& trace_label = "");

// Borrowed pointers to owned clients, for the calls that take a client list.
std::vector<MetadataClient*> RawClients(
    const std::vector<std::unique_ptr<MetadataClient>>& clients);

// ---- setup helpers ----

// Calls `fn` once for every item in [0, items), as a count loop on `exec`
// in which each client takes one contiguous share. Clients draw from the
// population RNG stream. The calls are timed but not causal-traced, so a
// traced bench's spans show only its measured runs. Fails if any call
// failed.
Status RunPartitioned(
    Executor& exec, const std::vector<MetadataClient*>& clients, size_t items,
    const std::function<Status(MetadataClient*, size_t item, Rng&)>& fn);

// Creates /priv0../privN-1 (one per client) plus /shared, in that order,
// from `client` on `exec`. An existing directory is not an error.
Status SetupPrivateDirs(Executor& exec, MetadataClient* client,
                        size_t clients);

// Populates every directory in `dirs` with `count` files named
// f0..f(count-1), in that order, using the given clients in parallel on
// `exec`. An existing file is not an error.
Status PopulateDirectories(Executor& exec,
                           const std::vector<MetadataClient*>& clients,
                           const std::vector<std::string>& dirs, size_t count);

// ---- op factories (mdtest phases) ----
// `contention_rate` in [0,1]: probability of targeting /shared instead of
// the thread's private directory. Created names embed (thread, seq) so they
// never collide, also across runs: each timed loop starts `seq` at its own
// offset.

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
