#include "src/common/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/lock_order.h"
#include "src/common/simtime.h"
#include "src/common/trace_event.h"

namespace cfs {

namespace {

// Dense per-thread index for histogram striping.
size_t ThreadIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

}  // namespace

void LatencyRecorder::Record(int64_t value_us) {
  striped_.Record(ThreadIndex(), value_us);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = [] {
    MetricsRegistry* r = new MetricsRegistry();
    // Critical-section scope audit (src/common/lock_order.h). Registered
    // here rather than in lock_order.cc so the tracker (which every mutex
    // hook runs through) never depends on the metrics layer. Per-class
    // samples are emitted only for classes with something to report, so a
    // clean CFS run dumps just the two process-wide totals (both 0).
    if constexpr (!lock_order::kTracking) return r;
    r->RegisterProbe("lock_scope", [] {
      std::vector<std::pair<std::string, int64_t>> samples;
      samples.emplace_back(
          "rpc_under_lock_violations",
          static_cast<int64_t>(lock_order::TotalRpcUnderLockViolations()));
      samples.emplace_back(
          "unbalanced_pops",
          static_cast<int64_t>(lock_order::TotalUnbalancedPops()));
      for (const auto& cs : lock_order::ScopeSnapshot()) {
        if (cs.rpcs_under_lock == 0 && cs.rpc_violations == 0 &&
            cs.unbalanced_pops == 0) {
          continue;
        }
        samples.emplace_back(cs.name + ".rpcs_under_lock",
                             static_cast<int64_t>(cs.rpcs_under_lock));
        samples.emplace_back(cs.name + ".max_hold_us", cs.max_hold_us);
        if (cs.rpc_violations > 0) {
          samples.emplace_back(cs.name + ".rpc_violations",
                               static_cast<int64_t>(cs.rpc_violations));
        }
        if (cs.unbalanced_pops > 0) {
          samples.emplace_back(cs.name + ".unbalanced_pops",
                               static_cast<int64_t>(cs.unbalanced_pops));
        }
      }
      return samples;
    });
    return r;
  }();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock guard(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock guard(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

LatencyRecorder* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock guard(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<LatencyRecorder>())
             .first;
  }
  return it->second.get();
}

uint64_t MetricsRegistry::RegisterProbe(std::string name, ProbeFn fn) {
  MutexLock guard(mu_);
  uint64_t handle = next_probe_++;
  probes_.emplace(handle, std::make_pair(std::move(name), std::move(fn)));
  return handle;
}

void MetricsRegistry::UnregisterProbe(uint64_t handle) {
  MutexLock guard(mu_);
  probes_.erase(handle);
}

namespace {

// Probe callbacks take their owners' locks (e.g. SimNet's edge table), so
// the dumpers snapshot the probe list under the registry lock and invoke
// the callbacks after releasing it — the registry lock must stay a leaf.
using ProbeSnapshot =
    std::vector<std::pair<std::string, MetricsRegistry::ProbeFn>>;

}  // namespace

std::string MetricsRegistry::DumpJson() const {
  ProbeSnapshot probes;
  std::string out = "{";

  MutexLock guard(mu_);
  out.append("\"counters\":{");
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendUint(&out, counter->value());
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendInt(&out, gauge->value());
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, recorder] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    Histogram h = recorder->Snapshot();
    AppendJsonString(&out, name);
    out.append(":{\"count\":");
    AppendInt(&out, h.count());
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"mean_us\":%.1f", h.mean());
    out.append(buf);
    out.append(",\"p50_us\":");
    AppendInt(&out, h.P50());
    out.append(",\"p99_us\":");
    AppendInt(&out, h.P99());
    out.append(",\"p999_us\":");
    AppendInt(&out, h.P999());
    out.append(",\"max_us\":");
    AppendInt(&out, h.max());
    out.push_back('}');
  }
  out.append("},\"probes\":{");
  probes.reserve(probes_.size());
  for (const auto& [handle, named_fn] : probes_) {
    (void)handle;
    probes.push_back(named_fn);
  }
  guard.Unlock();

  first = true;
  for (const auto& [name, fn] : probes) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.append(":{");
    bool first_sample = true;
    for (const auto& [key, value] : fn()) {
      if (!first_sample) out.push_back(',');
      first_sample = false;
      AppendJsonString(&out, key);
      out.push_back(':');
      AppendInt(&out, value);
    }
    out.push_back('}');
  }
  out.append("}}");
  return out;
}

std::string MetricsRegistry::DumpText() const {
  ProbeSnapshot probes;
  std::string out;
  MutexLock guard(mu_);
  for (const auto& [name, counter] : counters_) {
    out.append(name);
    out.push_back(' ');
    AppendUint(&out, counter->value());
    out.push_back('\n');
  }
  for (const auto& [name, gauge] : gauges_) {
    out.append(name);
    out.push_back(' ');
    AppendInt(&out, gauge->value());
    out.push_back('\n');
  }
  for (const auto& [name, recorder] : histograms_) {
    out.append(name);
    out.push_back(' ');
    out.append(recorder->Snapshot().Summary());
    out.push_back('\n');
  }
  probes.reserve(probes_.size());
  for (const auto& [handle, named_fn] : probes_) {
    (void)handle;
    probes.push_back(named_fn);
  }
  guard.Unlock();

  for (const auto& [name, fn] : probes) {
    for (const auto& [key, value] : fn()) {
      out.append(name);
      out.push_back('.');
      out.append(key);
      out.push_back(' ');
      AppendInt(&out, value);
      out.push_back('\n');
    }
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  MutexLock guard(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, recorder] : histograms_) recorder->Reset();
}

// ---------------------------------------------------------------------------
// OpTrace / TraceSpan

std::string_view PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kResolve:
      return "resolve";
    case Phase::kLockWait:
      return "lock_wait";
    case Phase::kShardExec:
      return "shard_exec";
    case Phase::kTwoPcPrepare:
      return "2pc_prepare";
    case Phase::kTwoPcDecision:
      return "2pc_decision";
    case Phase::kWalFsync:
      return "wal_fsync";
    case Phase::kRaftAppend:
      return "raft_append";
    case Phase::kRenamer:
      return "renamer";
    case Phase::kResolveCached:
      return "resolve_cached";
    case Phase::kRpc:
      return "rpc";
  }
  return "unknown";
}

struct OpTrace::Tls {
  OpTraceData data;
  MonoNanos op_start = 0;
  // Bit i set while a TraceSpan for phase i is open on this thread; guards
  // against double counting from nested spans and manual AddPhase stamps.
  uint16_t active_mask = 0;
};
static_assert(kNumPhases <= 16, "active_mask is 16 bits");

OpTrace::Tls& OpTrace::tls() {
  thread_local Tls t;
  return t;
}

void OpTrace::Begin(const char* op_name) {
  Tls& t = tls();
  t.data = OpTraceData{};
  t.op_start = simtime::NowNanosOrReal();
  if (op_name != nullptr) trace::BeginOp(op_name);
}

OpTraceData OpTrace::Finish() {
  Tls& t = tls();
  t.data.total_us = (simtime::NowNanosOrReal() - t.op_start) / 1000;
  trace::FinishOp(t.data.total_us);
  return t.data;
}

void OpTrace::AddPhase(Phase phase, int64_t us) {
  Tls& t = tls();
  size_t i = static_cast<size_t>(phase);
  if (t.active_mask & (1u << i)) return;  // an open span owns this phase
  t.data.us[i] += us;
  t.data.count[i]++;
}

int64_t OpTrace::PhaseUs(Phase phase) {
  return tls().data.us[static_cast<size_t>(phase)];
}

uint32_t OpTrace::PhaseCount(Phase phase) {
  return tls().data.count[static_cast<size_t>(phase)];
}

void OpTrace::ClearPhase(Phase phase) {
  Tls& t = tls();
  size_t i = static_cast<size_t>(phase);
  t.data.us[i] = 0;
  t.data.count[i] = 0;
}

namespace {

trace::Category CategoryForPhase(Phase phase) {
  switch (phase) {
    case Phase::kResolve:
      return trace::Category::kResolve;
    case Phase::kLockWait:
      return trace::Category::kLock;
    case Phase::kShardExec:
      return trace::Category::kExec;
    case Phase::kTwoPcPrepare:
    case Phase::kTwoPcDecision:
      return trace::Category::kTwoPc;
    case Phase::kWalFsync:
      return trace::Category::kWal;
    case Phase::kRaftAppend:
      return trace::Category::kRaft;
    case Phase::kRenamer:
      return trace::Category::kRename;
    case Phase::kResolveCached:
      return trace::Category::kCache;
    case Phase::kRpc:
      return trace::Category::kRpc;
  }
  return trace::Category::kOp;
}

}  // namespace

TraceSpan::TraceSpan(Phase phase, const char* name)
    : phase_(phase),
      emit_(trace::Active()),
      name_(name != nullptr ? name : PhaseName(phase).data()) {
  OpTrace::Tls& t = OpTrace::tls();
  uint16_t bit = static_cast<uint16_t>(1u << static_cast<size_t>(phase));
  owns_ = (t.active_mask & bit) == 0;
  if (owns_) t.active_mask |= bit;
  if (emit_) span_id_ = trace::PushSpan(&saved_parent_);
  // One clock read feeds both the accumulator and the causal event, so the
  // two stay in agreement by construction.
  if (owns_ || emit_) start_ = simtime::NowNanosOrReal();
}

TraceSpan::~TraceSpan() {
  if (!owns_ && !emit_) return;
  MonoNanos end = simtime::NowNanosOrReal();
  if (owns_) {
    OpTrace::Tls& t = OpTrace::tls();
    size_t i = static_cast<size_t>(phase_);
    t.active_mask &= static_cast<uint16_t>(~(1u << i));
    t.data.us[i] += (end - start_) / 1000;
    t.data.count[i]++;
  }
  if (emit_ && span_id_ != 0) {
    trace::PopSpan(span_id_, saved_parent_, CategoryForPhase(phase_), name_,
                   static_cast<uint8_t>(phase_), start_ / 1000,
                   (end - start_) / 1000);
  }
}

DetachedOpScope::DetachedOpScope() {
  OpTrace::Tls& t = OpTrace::tls();
  saved_data_ = t.data;
  saved_mask_ = t.active_mask;
  t.data = OpTraceData{};
  t.active_mask = 0;
}

DetachedOpScope::~DetachedOpScope() {
  OpTrace::Tls& t = OpTrace::tls();
  t.data = saved_data_;
  t.active_mask = saved_mask_;
}

// ---------------------------------------------------------------------------
// PhaseBreakdown

void PhaseBreakdown::Add(const OpTraceData& trace) {
  for (size_t i = 0; i < kNumPhases; i++) {
    us[i] += trace.us[i];
    count[i] += trace.count[i];
  }
  total_us += trace.total_us;
  ops++;
}

void PhaseBreakdown::Merge(const PhaseBreakdown& other) {
  for (size_t i = 0; i < kNumPhases; i++) {
    us[i] += other.us[i];
    count[i] += other.count[i];
  }
  total_us += other.total_us;
  ops += other.ops;
}

double PhaseBreakdown::Share(Phase p) const {
  if (total_us <= 0) return 0.0;
  double share = static_cast<double>(PhaseUs(p)) /
                 static_cast<double>(total_us);
  return share > 1.0 ? 1.0 : share;
}

double PhaseBreakdown::AvgPhaseUs(Phase p) const {
  return ops == 0 ? 0.0
                  : static_cast<double>(PhaseUs(p)) / static_cast<double>(ops);
}

double PhaseBreakdown::AvgTotalUs() const {
  return ops == 0 ? 0.0
                  : static_cast<double>(total_us) / static_cast<double>(ops);
}

void PhaseBreakdown::PublishTo(MetricsRegistry& registry,
                               const std::string& label) const {
  const std::string prefix = "trace." + label + ".";
  for (size_t i = 0; i < kNumPhases; i++) {
    if (count[i] == 0 && us[i] == 0) continue;
    std::string phase(PhaseName(static_cast<Phase>(i)));
    registry.GetCounter(prefix + phase + ".us")
        ->Add(static_cast<uint64_t>(us[i]));
    registry.GetCounter(prefix + phase + ".count")->Add(count[i]);
  }
  registry.GetCounter(prefix + "ops")->Add(ops);
  registry.GetCounter(prefix + "total_us")
      ->Add(static_cast<uint64_t>(total_us));
  registry.GetGauge(prefix + "lock_share_pct")
      ->Set(static_cast<int64_t>(Share(Phase::kLockWait) * 100.0 + 0.5));
}

}  // namespace cfs
