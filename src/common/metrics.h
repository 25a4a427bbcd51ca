// Unified observability layer (paper §2.2 / §5.7): every figure in the
// reproduction is an *attribution* claim — Fig 4 says locking eats
// 52.91–93.86% of HopsFS request time, Fig 13 says which optimization bought
// which share back. This header is the single source of truth for those
// numbers:
//
//   MetricsRegistry — process-wide named counters, gauges and latency
//     histograms, plus dump-time probes for subsystems that keep their own
//     state (e.g. SimNet's per-edge tables). Text and JSON exposition.
//
//   OpTrace / TraceSpan — a thread-local per-operation trace. A client
//     thread brackets one metadata op with OpTrace::Begin()/Finish(); any
//     subsystem the op passes through (resolution, lock manager, WAL, raft,
//     2PC, renamer — services execute RPC handlers on the caller's thread,
//     see SimNet) stamps its phase with an RAII TraceSpan, without any
//     argument plumbing. Nested spans of the SAME phase count once (the
//     outermost span owns the wall time), so e.g. the lock manager's
//     in-queue wait nested inside an engine's lock-RPC span is not double
//     counted, and recursive path resolution charges resolve time once.
//
// Phase accumulators are plain thread-locals and are live even outside a
// Begin()/Finish() bracket, which keeps legacy accessors like
// LockManager::ThreadWaitMicros() working as pure delegates.

#ifndef CFS_COMMON_METRICS_H_
#define CFS_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/thread_annotations.h"
#include "src/common/trace_event.h"

namespace cfs {

// ---------------------------------------------------------------------------
// Registry instruments

// Monotonically increasing event count. Lock-free; pointers handed out by
// the registry are stable for the process lifetime, so hot paths should
// resolve a counter once and cache the pointer.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous signed level (queue depth, in-flight ops).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Latency histogram safe for concurrent Record from many threads: stripes
// on the calling thread's identity over the shared log-bucketed Histogram.
class LatencyRecorder {
 public:
  LatencyRecorder() : striped_(16) {}

  void Record(int64_t value_us);
  // Folds an already-aggregated histogram in (end-of-run publication).
  void Merge(const Histogram& other) { striped_.Merge(other); }
  Histogram Snapshot() const { return striped_.Aggregate(); }
  void Reset() { striped_.Reset(); }

 private:
  StripedHistogram striped_;
};

// ---------------------------------------------------------------------------
// MetricsRegistry

class MetricsRegistry {
 public:
  // The process-wide default registry (intentionally leaked: background
  // threads may record during shutdown).
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create by name. Returned pointers remain valid for the
  // registry's lifetime; instruments are never erased.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  LatencyRecorder* GetHistogram(std::string_view name);

  // A probe is a dump-time callback contributing (key, value) samples from
  // a subsystem's internal state (e.g. SimNet per-edge call tables).
  // Returns a handle for Unregister; the owner must unregister before its
  // state dies. Probes run with the registry lock RELEASED (they take their
  // owner's locks — holding mu_ across them would order metrics.registry
  // before every probed subsystem's lock), so a probe registered or
  // unregistered concurrently with a dump may be missed by that dump.
  using ProbeFn =
      std::function<std::vector<std::pair<std::string, int64_t>>()>;
  uint64_t RegisterProbe(std::string name, ProbeFn fn);
  void UnregisterProbe(uint64_t handle);

  // Exposition. JSON shape:
  //   {"counters":{...},"gauges":{...},
  //    "histograms":{"name":{"count":..,"mean_us":..,"p50_us":..,
  //                          "p99_us":..,"p999_us":..,"max_us":..}},
  //    "probes":{"probe-name":{...}}}
  std::string DumpJson() const;
  // One "name value" line per instrument (histograms use Summary()).
  std::string DumpText() const;

  // Zeroes every counter/gauge/histogram (probes reflect live state and are
  // unaffected; reset their owners directly, e.g. SimNet::ResetStats).
  void ResetAll();

 private:
  mutable Mutex mu_{"metrics.registry", 87};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyRecorder>, std::less<>>
      histograms_ GUARDED_BY(mu_);
  std::map<uint64_t, std::pair<std::string, ProbeFn>> probes_ GUARDED_BY(mu_);
  uint64_t next_probe_ GUARDED_BY(mu_) = 1;
};

// ---------------------------------------------------------------------------
// Per-operation trace phases

// The timed phases a metadata operation can pass through. Phases are not
// required to be disjoint: kRpc accumulates inside resolve/lock/exec spans,
// and 2PC/raft/WAL phases nest inside kShardExec. The breakdown benches
// treat {resolve, lock_wait, shard_exec, renamer} as the disjoint top-level
// split (their code regions do not overlap in any engine) and everything
// uncovered as "other".
enum class Phase : uint8_t {
  kResolve = 0,     // path resolution: dentry reads + cache misses
  kLockWait,        // lock phase: acquire/release RPCs + in-queue blocking
  kShardExec,       // shard-side execution: primitive or txn commit path
  kTwoPcPrepare,    // 2PC phase 1 fan-out (nested in kShardExec)
  kTwoPcDecision,   // 2PC phase 2 fan-out (nested in kShardExec)
  kWalFsync,        // WAL flush delay (leader thread)
  kRaftAppend,      // raft proposal: replication wait (nested in kShardExec)
  kRenamer,         // normal-path rename coordination
  kResolveCached,   // dentry-cache consult + epoch validation (in kResolve)
  kRpc,             // injected network round-trip latency (SimNet)
};
inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kRpc) + 1;

std::string_view PhaseName(Phase phase);

// One operation's accumulated trace.
struct OpTraceData {
  int64_t us[kNumPhases] = {};
  uint32_t count[kNumPhases] = {};
  int64_t total_us = 0;

  int64_t PhaseUs(Phase p) const { return us[static_cast<size_t>(p)]; }
  uint32_t PhaseCount(Phase p) const { return count[static_cast<size_t>(p)]; }
};

// Thread-local trace context. All static; services stamp the calling
// thread's context.
class OpTrace {
 public:
  // Zeroes the accumulators and starts the op stopwatch. Also opens a
  // causal-trace op bracket (src/common/trace_event.h) named `op_name`, so
  // every OpTrace'd op is a candidate for span-tree capture — unless
  // `op_name` is null, for ops that are timed but never traced (namespace
  // population, trace replay).
  static void Begin(const char* op_name = "op");
  // Stops the stopwatch (total_us) and returns the accumulated trace.
  // Closes the causal-trace bracket with the same total.
  static OpTraceData Finish();

  // Manual stamp (e.g. a computed blocked duration). No-op if a TraceSpan
  // of the same phase is open on this thread — the span owns the wall time.
  static void AddPhase(Phase phase, int64_t us);

  // Accumulator access (works outside Begin/Finish brackets too).
  static int64_t PhaseUs(Phase phase);
  static uint32_t PhaseCount(Phase phase);
  static void ClearPhase(Phase phase);

 private:
  friend class TraceSpan;
  friend class DetachedOpScope;
  struct Tls;
  static Tls& tls();
};

// RAII phase timer. The outermost span of a given phase on a thread owns
// the phase's wall time; nested spans of the same phase are no-ops for the
// accumulator. When the thread is causally tracing, EVERY TraceSpan (owning
// or nested) additionally emits a trace event — the nesting is what forms
// the span tree — using the same clock reads as the accumulator, so
// span-derived phase times match the OpTrace sums by construction.
class TraceSpan {
 public:
  // `name` must outlive the span (string literals); nullptr = PhaseName.
  explicit TraceSpan(Phase phase, const char* name = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Phase phase_;
  bool owns_;        // false when nested inside a same-phase span
  bool emit_;        // true when a causal-trace event will be emitted
  const char* name_;
  uint64_t span_id_ = 0;
  uint64_t saved_parent_ = 0;
  MonoNanos start_ = 0;
};

// Takes the calling thread off its op's books for the scope's lifetime: its
// OpTrace accumulators are set aside and its causal-trace op suspended, so
// phases, spans and RPC events recorded inside land on no op. Both come
// back unchanged at destruction. For work a thread carries out on behalf of
// a background role (SimNet::CallDetached).
class DetachedOpScope {
 public:
  DetachedOpScope();
  ~DetachedOpScope();

  DetachedOpScope(const DetachedOpScope&) = delete;
  DetachedOpScope& operator=(const DetachedOpScope&) = delete;

 private:
  OpTraceData saved_data_;
  uint16_t saved_mask_;
  trace::SuspendScope trace_;
};

// ---------------------------------------------------------------------------
// Aggregation across many ops (bench harness support)

struct PhaseBreakdown {
  int64_t us[kNumPhases] = {};
  uint64_t count[kNumPhases] = {};
  int64_t total_us = 0;
  uint64_t ops = 0;

  void Add(const OpTraceData& trace);
  void Merge(const PhaseBreakdown& other);

  int64_t PhaseUs(Phase p) const { return us[static_cast<size_t>(p)]; }
  // Fraction of total op wall time spent in `p`, in [0,1].
  double Share(Phase p) const;
  double AvgPhaseUs(Phase p) const;
  double AvgTotalUs() const;

  // Publishes the aggregate under "trace.<label>.*": per-phase .us/.count
  // counters, .ops/.total_us counters, and a lock_share_pct gauge — the
  // Fig 4 "Lock" share derived from spans.
  void PublishTo(MetricsRegistry& registry, const std::string& label) const;
};

}  // namespace cfs

#endif  // CFS_COMMON_METRICS_H_
