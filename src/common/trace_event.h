// Causal distributed tracing (paper §5.2/§5.7 attribution, ROADMAP items 3
// and 5): where OpTrace (src/common/metrics.h) answers "how much time did
// this op spend per phase", this layer answers "WHICH shard, WHICH RPC
// edge, WHICH lock queue made this op slow" — the per-op evidence Fig 4 and
// Fig 13 aggregate away.
//
//   TraceCollector — process-wide sink. Each thread records timestamped
//     span events into its own lock-free ring buffer (single producer, the
//     owning thread; no shared-state write on the hot path). At op end the
//     owning thread drains its ring into the collector under a mutex, but
//     only for ops the sampling policy retains, so the common case is a
//     ring-index reset.
//
//   Events carry {trace_id, span_id, parent_span_id, category, phase,
//     name, node}. `node` is an interned cluster-node identity stamped by
//     SimNet: RPC handlers run on the caller's thread, so propagation of
//     the trace context across "the network" is the thread itself, and
//     SimNet::Call/FanOut push the destination node around the handler
//     (NodeScope). Raft appends, WAL fsyncs and renamer dirlock waits
//     therefore appear as one causally-linked span tree spanning shards,
//     under one trace_id. The exception is a FanOut handler that runs on
//     SimNet's worker pool (wall-clock modes): it records on the worker,
//     outside the op's tree; the round's RPC events stay in it.
//
//   Sampling policy — two independent retention triggers:
//     * head sampling: every `sample_every`-th op beginning on a thread is
//       retained (0 disables head sampling entirely);
//     * tail capture: an op whose total latency reaches
//       `slow_op_threshold_us` is ALWAYS retained into the bounded slow-op
//       log (which keeps the slowest ops seen, evicting the fastest), even
//       if head sampling skipped it — events are recorded for every op
//       while tracing is enabled precisely so the tail is reconstructable.
//     With `enabled == false` (the default), or with both triggers off
//     (sample_every == 0 and slow_op_threshold_us == 0, when nothing could
//     ever be retained), the whole layer costs one thread-local boolean
//     test per span.
//
//   Export: DumpPerfettoJson() emits Chrome/Perfetto trace-event JSON
//     (load in https://ui.perfetto.dev) — one "process" per cluster node,
//     one track per retained op, plus span args {trace_id, span_id,
//     parent_span_id}. FormatOpTree() renders the same tree as indented
//     text for terminals (examples/trace_dump.cpp, slow-op logs).
//
// The categories below are cross-checked against DESIGN.md §10's
// observability table by scripts/lint.sh, like lock classes.

#ifndef CFS_COMMON_TRACE_EVENT_H_
#define CFS_COMMON_TRACE_EVENT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"

namespace cfs {
namespace trace {

// Interned cluster-node identity ("which shard"). kNoNode = not attributed
// (client/coordinator-local work).
inline constexpr uint32_t kNoNode = UINT32_MAX;
// Event phase byte for spans that do not map to an OpTrace phase.
inline constexpr uint8_t kNoPhase = UINT8_MAX;

// Coarse span taxonomy (the Perfetto "cat" field). Keep in sync with
// CategoryName() and DESIGN.md §10 (scripts/lint.sh cross-checks both).
enum class Category : uint8_t {
  kOp = 0,   // root span of one operation
  kResolve,  // path resolution
  kCache,    // dentry cache consult / invalidation
  kLock,     // lock acquire/release/queue wait
  kExec,     // shard-side execution
  kTwoPc,    // 2PC prepare/decision fan-out
  kWal,      // WAL append + fsync
  kRaft,     // raft proposal/replication wait
  kRename,   // renamer coordination
  kRpc,      // one network round trip (SimNet edge)
  kGc,       // background GC scan
};
inline constexpr size_t kNumCategories = static_cast<size_t>(Category::kGc) + 1;
const char* CategoryName(Category category);

enum class EventType : uint8_t {
  kComplete,  // a span with begin timestamp and duration
  kInstant,   // a point event (dur 0)
};

// One trace event. Fixed-size (64 bytes) so the per-thread ring is a flat
// array; names are truncated into the inline buffer.
struct Event {
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root (the op span's parent)
  int64_t ts_us = 0;            // monotonic clock, microseconds
  int64_t dur_us = 0;
  uint32_t node = kNoNode;
  Category category = Category::kOp;
  EventType type = EventType::kComplete;
  uint8_t phase = kNoPhase;  // cfs::Phase value, or kNoPhase
  char name[23] = {};        // NUL-terminated, truncated

  int64_t end_us() const { return ts_us + dur_us; }
};
static_assert(sizeof(Event) == 64, "Event should stay one cache line");

// One retained operation: its identity plus every event recorded on the
// owning thread between begin and finish, in emission order (children
// complete before parents, so the last event is the root op span).
struct OpRecord {
  uint64_t trace_id = 0;
  std::string name;
  int64_t start_us = 0;
  int64_t total_us = 0;
  bool slow = false;       // retained by the tail-capture trigger
  uint32_t dropped = 0;    // events lost to ring wrap-around during the op
  std::vector<Event> events;
};

struct TraceOptions {
  bool enabled = false;
  // Head sampling: retain every Nth op per thread (1 = all, 0 = none).
  uint32_t sample_every = 64;
  // Tail capture: ops with total latency >= threshold always land in the
  // slow-op log (0 disables tail capture).
  int64_t slow_op_threshold_us = 20000;
  // Per-thread ring capacity in events; an op emitting more than this
  // loses its oldest events (counted in OpRecord::dropped).
  size_t ring_capacity = 4096;
  // Bounded stores: head-sampled ops stop being retained when full; the
  // slow-op log keeps the slowest ops seen, evicting the fastest.
  size_t max_retained_ops = 512;
  size_t max_slow_ops = 64;
};

class TraceCollector {
 public:
  // Process-wide collector (intentionally leaked, like MetricsRegistry).
  static TraceCollector& Global();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // Installs the policy. Enabling registers a "trace" metrics probe
  // (ops_seen / ops_retained / slow ops / drop counters) on the global
  // MetricsRegistry. Not safe to race with active recording threads: call
  // before the workload starts (benches) or between runs.
  void Configure(const TraceOptions& options);
  const TraceOptions& options() const { return options_; }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Interns a cluster-node name, returning a stable id for Event::node.
  // Same name -> same id, so identities survive SimNet teardown.
  uint32_t InternNode(const std::string& name);
  std::string NodeName(uint32_t node) const;  // "" for kNoNode/unknown

  // Snapshots (copies) of the retained stores.
  std::vector<OpRecord> SnapshotRetained() const;
  // Slow-op log, slowest first.
  std::vector<OpRecord> SnapshotSlowOps() const;

  // Chrome/Perfetto trace-event JSON over retained + slow ops.
  std::string DumpPerfettoJson() const;
  // Convenience: DumpPerfettoJson() to a file; false on IO error.
  bool WritePerfettoJson(const std::string& path) const;

  // Drops retained/slow ops and zeroes the policy counters (node intern
  // table and configuration survive).
  void Reset();

  struct Stats {
    uint64_t ops_seen = 0;
    uint64_t ops_retained = 0;   // head-sampled ops stored
    uint64_t ops_slow = 0;       // tail-captured ops stored
    uint64_t events_dropped = 0; // ring wrap-arounds
    uint64_t retained_full_drops = 0;  // head-sampled but store was full
  };
  Stats stats() const;

 private:
  friend class ScopedSpan;
  friend class OpScope;
  friend void BeginOp(const char* name);
  friend void FinishOp(int64_t total_us);

  TraceCollector() = default;
  void Retain(OpRecord&& record, bool head_sampled, bool slow)
      EXCLUDES(mu_);

  std::atomic<bool> enabled_{false};
  // Bumped once per finished op on the fast path; everything else only
  // moves when the sampling policy retains an op.
  std::atomic<uint64_t> ops_seen_{0};
  // Written only by Configure (under mu_); the unlocked options() accessor
  // is setup-time read-only. tsa-coverage: allow(configure-then-read)
  TraceOptions options_;

  mutable Mutex mu_{"trace.collector", 82};
  std::vector<std::string> node_names_ GUARDED_BY(mu_);
  std::vector<OpRecord> retained_ GUARDED_BY(mu_);
  std::vector<OpRecord> slow_ops_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
  uint64_t probe_handle_ GUARDED_BY(mu_) = 0;
};

// ---------------------------------------------------------------------------
// Thread-local recording API. All functions are cheap no-ops while the
// collector is disabled or the thread has no active op.

// True while the calling thread is inside a BeginOp/FinishOp bracket with
// the collector enabled (i.e. span emission will record something).
bool Active();

// Brackets one operation. BeginOp starts a new trace_id, roots the span
// stack, and snapshots the ring position; FinishOp emits the root op span,
// applies the sampling policy, and either drains the ring into the
// collector or discards the op's events in O(1). OpTrace::Begin/Finish
// call these, so workload-driven ops are traced with zero plumbing.
void BeginOp(const char* name);
void FinishOp(int64_t total_us);

// The active op's trace id (0 when not active).
uint64_t CurrentTraceId();
// The span that newly emitted events will be parented under (0 = root).
uint64_t CurrentParentSpan();

// RAII causal span. Unlike TraceSpan's same-phase guard, EVERY ScopedSpan
// emits an event — nested same-category spans are what make the tree (the
// recursion of path resolution, a raft append inside a shard exec).
class ScopedSpan {
 public:
  // `name` must outlive the span (string literals).
  ScopedSpan(Category category, const char* name, uint8_t phase = kNoPhase);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  Category category_;
  uint8_t phase_;
  const char* name_;
  uint64_t span_id_ = 0;
  uint64_t saved_parent_ = 0;
  int64_t start_us_ = 0;
};

// A point event under the current parent span.
void Instant(Category category, const char* name);

// A span whose duration was measured by the caller (e.g. the lock
// manager's computed in-queue wait): recorded as [end - dur, end] ending
// now, parented under the current span.
void CompleteSpan(Category category, const char* name, int64_t dur_us,
                  uint8_t phase = kNoPhase);

// Low-level span hooks for cfs::TraceSpan (metrics.cc), which must share
// ONE clock read between the OpTrace phase accumulator and the emitted
// event so span-derived phase sums equal the accumulator sums. PushSpan
// allocates a span id and parents subsequent events under it (the previous
// parent lands in *saved_parent); PopSpan restores the parent and records
// the completed event with the caller's timestamps. PushSpan returns 0
// when the thread is not tracing (skip the PopSpan).
uint64_t PushSpan(uint64_t* saved_parent);
void PopSpan(uint64_t span_id, uint64_t saved_parent, Category category,
             const char* name, uint8_t phase, int64_t ts_us, int64_t dur_us);

// Root bracket for background work that is not an OpTrace op (GC cycles):
// BeginOp at construction, FinishOp(elapsed) at destruction.
class OpScope {
 public:
  explicit OpScope(const char* name);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  bool active_;
  int64_t start_us_ = 0;
};

// ---------------------------------------------------------------------------
// Node attribution (SimNet).

// Pushes `node` (an InternNode id) as the calling thread's current cluster
// node for the scope's lifetime; spans emitted inside are attributed to it.
class NodeScope {
 public:
  explicit NodeScope(uint32_t node);
  ~NodeScope();

  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
  uint32_t saved_;
};

uint32_t CurrentNode();

// Suspends the calling thread's active op for the scope's lifetime: Active()
// reads false and nothing is recorded. The op resumes, unchanged, at
// destruction. No-op on a thread that is not tracing.
class SuspendScope {
 public:
  SuspendScope();
  ~SuspendScope();

  SuspendScope(const SuspendScope&) = delete;
  SuspendScope& operator=(const SuspendScope&) = delete;

 private:
  bool saved_;
};

// Emits the kRpc span for one round trip: `from`/`to` are node names (used
// for the span label, truncated), `to_node` the interned destination,
// `injected_us` the injected round-trip latency (the span's duration,
// ending now). No-op when the thread is not actively tracing.
void RpcEvent(const char* from, const char* to, uint32_t to_node,
              int64_t injected_us);

// ---------------------------------------------------------------------------
// Analysis helpers (report tools, tests).

// Per-phase microseconds derived from a retained op's span tree: for each
// phase byte, the length of the union of its spans' intervals. Matches the
// OpTrace accumulators' outermost-span-owns-the-wall-time rule, so
// span-derived phase shares can be cross-checked against the Fig 13 phase
// accumulators (they are computed from the same clock reads).
std::vector<int64_t> PhaseUsFromEvents(const std::vector<Event>& events,
                                       size_t num_phases);

// Indented-text rendering of one op's span tree:
//   create  1234us  trace_id=7
//     resolve  310us
//       rpc client#0>tafdb.shard1  152us  [tafdb.shard1]
// Children are ordered by begin timestamp.
std::string FormatOpTree(const OpRecord& record, const TraceCollector& nodes);

}  // namespace trace
}  // namespace cfs

#endif  // CFS_COMMON_TRACE_EVENT_H_
