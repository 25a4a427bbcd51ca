#include "src/common/trace_event.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>

#include "src/common/clock.h"
#include "src/common/simtime.h"
#include "src/common/metrics.h"

namespace cfs {
namespace trace {

namespace {

// Virtual microseconds during a simulated run (so sim-mode spans carry
// virtual timestamps), steady-clock microseconds otherwise.
int64_t NowUs() { return simtime::NowNanosOrReal() / 1000; }

// trace_id / span_id allocators. Global atomics: ids must be unique across
// threads and cheap; contention is one fetch_add per op / per span, and
// spans are only allocated while the thread is actively tracing.
std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint64_t> g_next_span_id{1};

void CopyName(char (&dst)[23], const char* src) {
  size_t n = 0;
  if (src != nullptr) {
    for (; n + 1 < sizeof(dst) && src[n] != '\0'; n++) dst[n] = src[n];
  }
  dst[n] = '\0';
}

// Per-thread recording state. The ring is written and drained exclusively
// by the owning thread — "lock-free" in the strongest sense: no shared
// write at all on the record path. Config (capacity) is latched at the
// first recorded event of each op, so Configure between runs is safe.
struct Tls {
  std::vector<Event> ring;
  uint64_t head = 0;         // monotonically increasing write position
  uint64_t op_start_head = 0;
  uint64_t op_dropped_base = 0;

  bool active = false;
  uint64_t trace_id = 0;
  uint64_t current_parent = 0;  // span id new events are parented under
  uint64_t root_span = 0;
  int64_t op_start_us = 0;
  uint32_t current_node = kNoNode;
  uint64_t ops_begun = 0;  // per-thread head-sampling counter
  char op_name[48] = {};
};

Tls& tls() {
  thread_local Tls t;
  return t;
}

void Emit(Tls& t, const Event& e) {
  if (t.ring.empty()) return;  // BeginOp sizes the ring; empty = disabled
  t.ring[t.head % t.ring.size()] = e;
  t.head++;
}

}  // namespace

const char* CategoryName(Category category) {
  switch (category) {
    case Category::kOp:
      return "op";
    case Category::kResolve:
      return "resolve";
    case Category::kCache:
      return "cache";
    case Category::kLock:
      return "lock";
    case Category::kExec:
      return "exec";
    case Category::kTwoPc:
      return "2pc";
    case Category::kWal:
      return "wal";
    case Category::kRaft:
      return "raft";
    case Category::kRename:
      return "rename";
    case Category::kRpc:
      return "rpc";
    case Category::kGc:
      return "gc";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// TraceCollector

TraceCollector& TraceCollector::Global() {
  static TraceCollector* const collector = new TraceCollector();
  return *collector;
}

void TraceCollector::Configure(const TraceOptions& options) {
  bool register_probe = false;
  {
    MutexLock lock(mu_);
    options_ = options;
    if (options_.ring_capacity == 0) options_.ring_capacity = 1;
    enabled_.store(options.enabled, std::memory_order_release);
    register_probe = options.enabled && probe_handle_ == 0;
  }
  if (register_probe) {
    // Probe is counters-only; registered outside mu_ so the lock order
    // stays metrics.registry(87) > trace.collector(82) everywhere.
    uint64_t handle = MetricsRegistry::Global().RegisterProbe("trace", [this] {
      Stats s = stats();
      std::vector<std::pair<std::string, int64_t>> samples;
      samples.emplace_back("ops_seen", static_cast<int64_t>(s.ops_seen));
      samples.emplace_back("ops_retained",
                           static_cast<int64_t>(s.ops_retained));
      samples.emplace_back("ops_slow", static_cast<int64_t>(s.ops_slow));
      samples.emplace_back("events_dropped",
                           static_cast<int64_t>(s.events_dropped));
      samples.emplace_back("retained_full_drops",
                           static_cast<int64_t>(s.retained_full_drops));
      return samples;
    });
    MutexLock lock(mu_);
    probe_handle_ = handle;
  }
}

uint32_t TraceCollector::InternNode(const std::string& name) {
  MutexLock lock(mu_);
  for (size_t i = 0; i < node_names_.size(); i++) {
    if (node_names_[i] == name) return static_cast<uint32_t>(i);
  }
  node_names_.push_back(name);
  return static_cast<uint32_t>(node_names_.size() - 1);
}

std::string TraceCollector::NodeName(uint32_t node) const {
  MutexLock lock(mu_);
  if (node >= node_names_.size()) return "";
  return node_names_[node];
}

void TraceCollector::Retain(OpRecord&& record, bool head_sampled, bool slow) {
  MutexLock lock(mu_);
  stats_.events_dropped += record.dropped;
  if (slow) {
    stats_.ops_slow++;
    if (slow_ops_.size() < options_.max_slow_ops) {
      slow_ops_.push_back(std::move(record));
      return;
    }
    // Full: keep the slowest ops seen — replace the current fastest if
    // this op is slower.
    size_t fastest = 0;
    for (size_t i = 1; i < slow_ops_.size(); i++) {
      if (slow_ops_[i].total_us < slow_ops_[fastest].total_us) fastest = i;
    }
    if (record.total_us > slow_ops_[fastest].total_us) {
      slow_ops_[fastest] = std::move(record);
    }
    return;
  }
  if (head_sampled) {
    if (retained_.size() < options_.max_retained_ops) {
      stats_.ops_retained++;
      retained_.push_back(std::move(record));
    } else {
      stats_.retained_full_drops++;
    }
  }
}

std::vector<OpRecord> TraceCollector::SnapshotRetained() const {
  MutexLock lock(mu_);
  return retained_;
}

std::vector<OpRecord> TraceCollector::SnapshotSlowOps() const {
  std::vector<OpRecord> out;
  {
    MutexLock lock(mu_);
    out = slow_ops_;
  }
  std::sort(out.begin(), out.end(), [](const OpRecord& a, const OpRecord& b) {
    return a.total_us > b.total_us;
  });
  return out;
}

TraceCollector::Stats TraceCollector::stats() const {
  MutexLock lock(mu_);
  Stats s = stats_;
  s.ops_seen = ops_seen_.load(std::memory_order_relaxed);
  return s;
}

void TraceCollector::Reset() {
  MutexLock lock(mu_);
  retained_.clear();
  slow_ops_.clear();
  stats_ = Stats{};
  ops_seen_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Perfetto export

namespace {

void AppendEscaped(std::string* out, const char* s) {
  out->push_back('"');
  for (; *s != '\0'; s++) {
    char c = *s;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
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

// Perfetto pids: 1 = unattributed (client / coordinator-local work),
// node id + 2 otherwise.
int64_t PidOf(uint32_t node) {
  return node == kNoNode ? 1 : static_cast<int64_t>(node) + 2;
}

void AppendEvent(std::string* out, const OpRecord& op, const Event& e,
                 int64_t tid) {
  char buf[256];
  out->append("{\"name\":");
  AppendEscaped(out, e.name);
  std::snprintf(buf, sizeof(buf),
                ",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%" PRId64
                ",\"dur\":%" PRId64 ",\"pid\":%" PRId64 ",\"tid\":%" PRId64
                ",\"args\":{\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
                ",\"parent_span_id\":%" PRIu64 "}},\n",
                CategoryName(e.category),
                e.type == EventType::kInstant ? "i" : "X", e.ts_us,
                e.type == EventType::kInstant ? int64_t{0} : e.dur_us,
                PidOf(e.node), tid, op.trace_id, e.span_id, e.parent_span_id);
  out->append(buf);
}

}  // namespace

std::string TraceCollector::DumpPerfettoJson() const {
  std::vector<OpRecord> ops = SnapshotRetained();
  std::vector<OpRecord> slow = SnapshotSlowOps();
  ops.insert(ops.end(), std::make_move_iterator(slow.begin()),
             std::make_move_iterator(slow.end()));

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Process-name metadata: one "process" per cluster node.
  std::vector<std::string> names;
  {
    MutexLock lock(mu_);
    names = node_names_;
  }
  char buf[128];
  out.append(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"client\"}},\n");
  for (size_t i = 0; i < names.size(); i++) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRId64
                  ",\"args\":{\"name\":",
                  PidOf(static_cast<uint32_t>(i)));
    out.append(buf);
    AppendEscaped(&out, names[i].c_str());
    out.append("}},\n");
  }
  // One tid per retained op keeps each op's spans on their own track (the
  // events of one op are single-threaded, so they nest cleanly there).
  int64_t tid = 0;
  for (const OpRecord& op : ops) {
    tid++;
    for (const Event& e : op.events) {
      AppendEvent(&out, op, e, tid);
    }
  }
  // Closing sentinel avoids trailing-comma bookkeeping above.
  out.append("{\"name\":\"trace_end\",\"ph\":\"i\",\"ts\":0,\"pid\":1,"
             "\"tid\":0,\"s\":\"g\"}\n]}\n");
  return out;
}

bool TraceCollector::WritePerfettoJson(const std::string& path) const {
  std::string json = DumpPerfettoJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

// ---------------------------------------------------------------------------
// Thread-local recording

bool Active() { return tls().active; }

uint64_t CurrentTraceId() { return tls().active ? tls().trace_id : 0; }

uint64_t CurrentParentSpan() {
  return tls().active ? tls().current_parent : 0;
}

void BeginOp(const char* name) {
  TraceCollector& collector = TraceCollector::Global();
  if (!collector.enabled()) return;
  // Both retention triggers off means no op can ever be kept, so don't
  // record at all: "enabled with sampling disabled" costs the same one
  // thread-local test per span as disabled (the bench_compare.sh
  // tracing-tax target relies on this).
  if (collector.options().sample_every == 0 &&
      collector.options().slow_op_threshold_us <= 0) {
    return;
  }
  Tls& t = tls();
  if (t.active) return;  // nested op brackets: outermost wins
  size_t capacity = collector.options().ring_capacity;
  if (t.ring.size() != capacity) {
    t.ring.assign(capacity, Event{});
    t.head = 0;
  }
  t.active = true;
  t.trace_id = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
  t.root_span = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  t.current_parent = t.root_span;
  t.op_start_us = NowUs();
  t.op_start_head = t.head;
  t.current_node = kNoNode;
  t.ops_begun++;
  std::snprintf(t.op_name, sizeof(t.op_name), "%s",
                name != nullptr ? name : "op");
}

void FinishOp(int64_t total_us) {
  Tls& t = tls();
  if (!t.active) return;
  t.active = false;
  TraceCollector& collector = TraceCollector::Global();
  const TraceOptions& options = collector.options();
  if (total_us < 0) total_us = NowUs() - t.op_start_us;

  bool head_sampled = options.sample_every != 0 &&
                      (t.ops_begun - 1) % options.sample_every == 0;
  bool slow = options.slow_op_threshold_us > 0 &&
              total_us >= options.slow_op_threshold_us;
  collector.ops_seen_.fetch_add(1, std::memory_order_relaxed);
  if (!collector.enabled() || (!head_sampled && !slow)) {
    t.current_parent = 0;
    return;  // discard: O(1), the ring simply gets overwritten
  }

  // Root op span closes the record.
  Event root;
  root.span_id = t.root_span;
  root.parent_span_id = 0;
  root.ts_us = t.op_start_us;
  root.dur_us = total_us;
  root.node = kNoNode;
  root.category = Category::kOp;
  root.phase = kNoPhase;
  CopyName(root.name, t.op_name);
  Emit(t, root);

  OpRecord record;
  record.trace_id = t.trace_id;
  record.name = t.op_name;
  record.start_us = t.op_start_us;
  record.total_us = total_us;
  record.slow = slow;
  uint64_t emitted = t.head - t.op_start_head;
  uint64_t kept = std::min<uint64_t>(emitted, t.ring.size());
  record.dropped = static_cast<uint32_t>(emitted - kept);
  record.events.reserve(kept);
  for (uint64_t i = t.head - kept; i < t.head; i++) {
    record.events.push_back(t.ring[i % t.ring.size()]);
  }
  t.current_parent = 0;
  collector.Retain(std::move(record), head_sampled, slow);
}

ScopedSpan::ScopedSpan(Category category, const char* name, uint8_t phase)
    : active_(tls().active), category_(category), phase_(phase), name_(name) {
  if (!active_) return;
  Tls& t = tls();
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  saved_parent_ = t.current_parent;
  t.current_parent = span_id_;
  start_us_ = NowUs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tls& t = tls();
  t.current_parent = saved_parent_;
  Event e;
  e.span_id = span_id_;
  e.parent_span_id = saved_parent_;
  e.ts_us = start_us_;
  e.dur_us = NowUs() - start_us_;
  e.node = t.current_node;
  e.category = category_;
  e.phase = phase_;
  CopyName(e.name, name_);
  Emit(t, e);
}

void Instant(Category category, const char* name) {
  Tls& t = tls();
  if (!t.active) return;
  Event e;
  e.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  e.parent_span_id = t.current_parent;
  e.ts_us = NowUs();
  e.dur_us = 0;
  e.node = t.current_node;
  e.category = category;
  e.type = EventType::kInstant;
  e.phase = kNoPhase;
  CopyName(e.name, name);
  Emit(t, e);
}

void CompleteSpan(Category category, const char* name, int64_t dur_us,
                  uint8_t phase) {
  Tls& t = tls();
  if (!t.active) return;
  if (dur_us < 0) dur_us = 0;
  int64_t end = NowUs();
  Event e;
  e.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  e.parent_span_id = t.current_parent;
  e.ts_us = end - dur_us;
  e.dur_us = dur_us;
  e.node = t.current_node;
  e.category = category;
  e.phase = phase;
  CopyName(e.name, name);
  Emit(t, e);
}

uint64_t PushSpan(uint64_t* saved_parent) {
  Tls& t = tls();
  if (!t.active) return 0;
  uint64_t span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  *saved_parent = t.current_parent;
  t.current_parent = span_id;
  return span_id;
}

void PopSpan(uint64_t span_id, uint64_t saved_parent, Category category,
             const char* name, uint8_t phase, int64_t ts_us, int64_t dur_us) {
  Tls& t = tls();
  if (!t.active) return;
  t.current_parent = saved_parent;
  Event e;
  e.span_id = span_id;
  e.parent_span_id = saved_parent;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.node = t.current_node;
  e.category = category;
  e.phase = phase;
  CopyName(e.name, name);
  Emit(t, e);
}

OpScope::OpScope(const char* name) {
  active_ = TraceCollector::Global().enabled() && !tls().active;
  if (!active_) return;
  start_us_ = NowUs();
  BeginOp(name);
}

OpScope::~OpScope() {
  if (!active_) return;
  FinishOp(NowUs() - start_us_);
}

// ---------------------------------------------------------------------------
// Node attribution

NodeScope::NodeScope(uint32_t node) : saved_(tls().current_node) {
  tls().current_node = node;
}

NodeScope::~NodeScope() { tls().current_node = saved_; }

uint32_t CurrentNode() { return tls().current_node; }

SuspendScope::SuspendScope() : saved_(tls().active) { tls().active = false; }

SuspendScope::~SuspendScope() { tls().active = saved_; }

void RpcEvent(const char* from, const char* to, uint32_t to_node,
              int64_t injected_us) {
  Tls& t = tls();
  if (!t.active) return;
  if (injected_us < 0) injected_us = 0;
  int64_t end = NowUs();
  Event e;
  e.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  e.parent_span_id = t.current_parent;
  e.ts_us = end - injected_us;
  e.dur_us = injected_us;
  e.node = to_node;
  e.category = Category::kRpc;
  e.phase = static_cast<uint8_t>(Phase::kRpc);
  std::snprintf(e.name, sizeof(e.name), "%.10s>%.10s",
                from != nullptr ? from : "?", to != nullptr ? to : "?");
  Emit(t, e);
}

// ---------------------------------------------------------------------------
// Analysis helpers

std::vector<int64_t> PhaseUsFromEvents(const std::vector<Event>& events,
                                       size_t num_phases) {
  // Per phase, the union length of its spans' [ts, end) intervals. The
  // events of one op come from one thread, so same-phase spans either nest
  // or are disjoint; the union is exactly the outermost spans' wall time —
  // the OpTrace accumulation rule.
  std::vector<int64_t> out(num_phases, 0);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> intervals(num_phases);
  for (const Event& e : events) {
    if (e.phase == kNoPhase || e.phase >= num_phases) continue;
    if (e.type != EventType::kComplete) continue;
    intervals[e.phase].emplace_back(e.ts_us, e.end_us());
  }
  for (size_t p = 0; p < num_phases; p++) {
    auto& iv = intervals[p];
    std::sort(iv.begin(), iv.end());
    int64_t covered_until = INT64_MIN;
    for (const auto& [begin, end] : iv) {
      if (begin >= covered_until) {
        out[p] += end - begin;
        covered_until = end;
      } else if (end > covered_until) {
        out[p] += end - covered_until;
        covered_until = end;
      }
    }
  }
  return out;
}

std::string FormatOpTree(const OpRecord& record,
                         const TraceCollector& nodes) {
  // Index children by parent span id; order siblings by begin timestamp.
  std::map<uint64_t, std::vector<const Event*>> children;
  for (const Event& e : record.events) {
    children[e.parent_span_id].push_back(&e);
  }
  for (auto& [parent, list] : children) {
    std::sort(list.begin(), list.end(), [](const Event* a, const Event* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us
                                  : a->span_id < b->span_id;
    });
  }

  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s  total=%" PRId64 "us  trace_id=%" PRIu64 "%s%s\n",
                record.name.c_str(), record.total_us, record.trace_id,
                record.slow ? "  [slow]" : "",
                record.dropped > 0 ? "  [events dropped]" : "");
  out.append(buf);

  // Iterative DFS from the root op span(s) (parent 0).
  struct Frame {
    const Event* event;
    int depth;
  };
  std::vector<Frame> stack;
  auto push_children = [&](uint64_t span, int depth) {
    auto it = children.find(span);
    if (it == children.end()) return;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      stack.push_back({*rit, depth});
    }
  };
  push_children(0, 1);
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Event& e = *f.event;
    out.append(static_cast<size_t>(f.depth) * 2, ' ');
    out.append(e.name[0] != '\0' ? e.name : CategoryName(e.category));
    if (e.type == EventType::kInstant) {
      std::snprintf(buf, sizeof(buf), "  @+%" PRId64 "us",
                    e.ts_us - record.start_us);
    } else {
      std::snprintf(buf, sizeof(buf), "  %" PRId64 "us", e.dur_us);
    }
    out.append(buf);
    if (e.node != kNoNode) {
      std::string node_name = nodes.NodeName(e.node);
      if (!node_name.empty()) {
        out.append("  [");
        out.append(node_name);
        out.push_back(']');
      }
    }
    out.push_back('\n');
    if (f.depth < 32) push_children(e.span_id, f.depth + 1);
  }
  return out;
}

}  // namespace trace
}  // namespace cfs
