#include "src/common/lock_order.h"

#include <atomic>
#include <bitset>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "src/common/race_detector.h"
#include "src/common/simtime.h"

// The tracker's own state is synchronized with raw std::mutex on purpose:
// instrumenting it with cfs::Mutex would recurse into these hooks.

namespace cfs {
namespace lock_order {
namespace {

constexpr size_t kMaxClasses = kMaxLockClasses;

struct ClassInfo {
  std::string name;
  int rank = 0;
  RpcHoldPolicy policy = RpcHoldPolicy::kNeverAcrossRpc;
  std::string justification;
};

// The class table. Entry `id` is written once, under `mu`, before `count`
// is raised past it; from then on it is immutable, so every hot path reads
// it by const& with no lock. Entry 0 is the "<unknown>" placeholder.
struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, uint32_t> by_name;
  std::atomic<uint32_t> count{0};  // registered ids are 1..count
  ClassInfo classes[kMaxClasses];
  Registry() { classes[0].name = "<unknown>"; }
};

// Leaked: lock classes are registered from objects with static storage
// duration and must outlive every destructor that releases a lock.
Registry& GetRegistry() {
  static Registry* const r = new Registry();
  return *r;
}

const ClassInfo& Info(uint32_t cls) {
  Registry& r = GetRegistry();
  bool known = cls != 0 && cls <= r.count.load(std::memory_order_acquire);
  return r.classes[known ? cls : 0];
}

struct Graph {
  std::mutex mu;
  std::bitset<kMaxClasses> adj[kMaxClasses];  // adj[h][c]: h held before c
};

Graph& GetGraph() {
  static Graph* const g = new Graph();
  return *g;
}

std::atomic<bool> g_rpc_enforce{true};
// Bumped by ResetGraphForTest so per-thread verified-edge caches notice.
std::atomic<uint64_t> g_graph_epoch{1};

std::mutex g_handler_mu;
ViolationHandler g_handler;  // empty = default print-and-abort

// Per-class critical-section scope accounting. Plain atomics indexed by
// class id: updated on the acquire/release/RPC fast paths with no lock, and
// snapshotted (approximately — counters move independently) by
// ScopeSnapshot(). Bucket index = RpcHoldBucketFor(rpcs issued under the
// span).
struct ScopeBucket {
  std::atomic<uint64_t> holds{0};
  std::atomic<int64_t> total_us{0};
  std::atomic<int64_t> max_us{0};
};

struct ScopeSlot {
  std::atomic<uint64_t> holds{0};
  std::atomic<uint64_t> holds_with_rpc{0};
  std::atomic<uint64_t> rpcs_under_lock{0};
  std::atomic<uint64_t> rpc_violations{0};
  std::atomic<uint64_t> unbalanced_pops{0};
  std::atomic<bool> unbalanced_warned{false};
  std::atomic<int64_t> max_hold_us{0};
  std::atomic<int64_t> total_hold_us{0};
  ScopeBucket buckets[kNumRpcHoldBuckets];
};

ScopeSlot* GetScope() {
  static ScopeSlot* const s = new ScopeSlot[kMaxClasses];
  return s;
}

std::atomic<uint64_t> g_total_rpc_violations{0};
std::atomic<uint64_t> g_total_unbalanced_pops{0};

void AtomicMax(std::atomic<int64_t>& slot, int64_t value) {
  int64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// Hold-span timestamps: virtual task-clock nanoseconds under a driving
// simtime::Scheduler, steady-clock nanoseconds otherwise — so the scope
// accounting (and OnRpcEdge's per-bucket spans) measures simulated holds in
// simulated time, identically across same-seed replays.
int64_t NowNanos() { return simtime::NowNanosOrReal(); }

// The held-lock record (one per thread) plus the thread's verified-edge
// cache for the held-before graph.
struct ThreadState {
  std::vector<Held> held;  // acquisition order
  uint64_t releases[kMaxClasses] = {};  // per-class release count
  std::bitset<kMaxClasses * kMaxClasses> verified;  // edges already in graph
  uint64_t graph_epoch = 0;
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

std::string HeldStackString(const std::vector<Held>& held) {
  std::string out = "held stack: [";
  for (size_t i = 0; i < held.size(); i++) {
    const ClassInfo& info = Info(held[i].cls);
    if (i > 0) out += ", ";
    out += "\"" + info.name + "\"(rank " + std::to_string(info.rank);
    if (held[i].scope_only) out += ", scope";
    out += ")";
  }
  out += "]";
  return out;
}

void Report(Violation v) {
  ViolationHandler handler;
  {
    std::lock_guard<std::mutex> lock(g_handler_mu);
    handler = g_handler;
  }
  if (handler) {
    handler(v);
    return;
  }
  // Default: print both lock names and die. fprintf (not CFS_LOG): the
  // logger serializes on a cfs::Mutex and must not re-enter the tracker.
  if (v.kind == Violation::Kind::kRpcUnderLock) {
    std::fprintf(stderr,
                 "[lock_order] FATAL rpc under lock: issuing RPC %s while "
                 "holding \"%s\" (rank %d, policy never-across-rpc); %s\n",
                 v.rpc_edge.c_str(), v.held.c_str(), v.held_rank,
                 v.detail.c_str());
    std::fflush(stderr);
    std::abort();
  }
  const char* kind = v.kind == Violation::Kind::kRank    ? "rank inversion"
                     : v.kind == Violation::Kind::kCycle ? "deadlock cycle"
                                                         : "recursive acquisition";
  std::fprintf(stderr,
               "[lock_order] FATAL %s: acquiring \"%s\" (rank %d) while "
               "holding \"%s\" (rank %d); %s\n",
               kind, v.acquiring.c_str(), v.acquiring_rank, v.held.c_str(),
               v.held_rank, v.detail.c_str());
  std::fflush(stderr);
  std::abort();
}

// True if `from` reaches `to` in the held-before graph. Caller holds
// graph.mu.
bool Reaches(const Graph& graph, uint32_t from, uint32_t to) {
  std::bitset<kMaxClasses> visited;
  std::vector<uint32_t> stack{from};
  while (!stack.empty()) {
    uint32_t n = stack.back();
    stack.pop_back();
    if (n == to) return true;
    if (visited.test(n)) continue;
    visited.set(n);
    const auto& out = graph.adj[n];
    for (size_t i = 1; i < kMaxClasses; i++) {
      if (out.test(i) && !visited.test(i)) stack.push_back(static_cast<uint32_t>(i));
    }
  }
  return false;
}

// Shortest held-before path from `from` to `to`, as " -> "-joined names.
// Caller holds graph.mu.
std::string PathString(const Graph& graph, uint32_t from, uint32_t to) {
  std::vector<int> parent(kMaxClasses, -1);
  std::vector<uint32_t> queue{from};
  parent[from] = static_cast<int>(from);
  for (size_t head = 0; head < queue.size(); head++) {
    uint32_t n = queue[head];
    if (n == to) break;
    for (size_t i = 1; i < kMaxClasses; i++) {
      if (graph.adj[n].test(i) && parent[i] < 0) {
        parent[i] = static_cast<int>(n);
        queue.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  if (parent[to] < 0) return "";
  std::vector<uint32_t> path;
  for (uint32_t n = to;; n = static_cast<uint32_t>(parent[n])) {
    path.push_back(n);
    if (n == from) break;
  }
  std::string out;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    if (!out.empty()) out += " -> ";
    out += '"';
    out += Info(*it).name;
    out += '"';
  }
  return out;
}

// Records the completed hold span of `entry` into its class's scope slot.
void RecordHoldSpan(const Held& entry) {
  ScopeSlot& slot = GetScope()[entry.cls];
  int64_t hold_us = (NowNanos() - entry.acquire_ns) / 1000;
  if (hold_us < 0) hold_us = 0;
  slot.holds.fetch_add(1, std::memory_order_relaxed);
  slot.total_hold_us.fetch_add(hold_us, std::memory_order_relaxed);
  AtomicMax(slot.max_hold_us, hold_us);
  if (entry.rpcs > 0) slot.holds_with_rpc.fetch_add(1, std::memory_order_relaxed);
  ScopeBucket& b = slot.buckets[RpcHoldBucketFor(entry.rpcs)];
  b.holds.fetch_add(1, std::memory_order_relaxed);
  b.total_us.fetch_add(hold_us, std::memory_order_relaxed);
  AtomicMax(b.max_us, hold_us);
}

void PushHeld(uint32_t cls, LockMode mode, bool scope_only) {
  State().held.push_back(Held{cls, mode, scope_only, 0, NowNanos()});
  if (race::Enabled()) race::OnLockAcquired(cls);
}

// Publishes to the race detector, then pops the most recent held entry of
// class `cls` with the given scope-ness and records its hold span (releases
// are LIFO everywhere in this codebase, but a linear scan keeps this
// correct even if they were not). A release with no matching entry is a
// wrapper bug: counted per class and warned about once per class — never
// fatal, the lock itself is fine.
void PopHeld(uint32_t cls, bool scope_only, const char* what) {
  if (cls == 0) return;
  if (race::Enabled()) race::OnLockReleased(cls);
  ThreadState& t = State();
  t.releases[cls]++;
  std::vector<Held>& held = t.held;
  for (size_t i = held.size(); i > 0; i--) {
    if (held[i - 1].cls == cls && held[i - 1].scope_only == scope_only) {
      RecordHoldSpan(held[i - 1]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i - 1));
      return;
    }
  }
  ScopeSlot& slot = GetScope()[cls < kMaxClasses ? cls : 0];
  slot.unbalanced_pops.fetch_add(1, std::memory_order_relaxed);
  g_total_unbalanced_pops.fetch_add(1, std::memory_order_relaxed);
  bool expected = false;
  if (slot.unbalanced_warned.compare_exchange_strong(expected, true)) {
    std::fprintf(stderr,
                 "[lock_order] WARNING: %s of \"%s\" with no matching held "
                 "entry on this thread (reported once per class; see "
                 "unbalanced_pops counter). Likely an acquire/release "
                 "imbalance in a wrapper.\n",
                 what, Info(cls).name.c_str());
    std::fflush(stderr);
  }
}

}  // namespace

const char* RpcHoldPolicyName(RpcHoldPolicy policy) {
  return policy == RpcHoldPolicy::kAllowedAcrossRpc ? "allowed-across-rpc"
                                                    : "never-across-rpc";
}

const char* RpcHoldBucketLabel(size_t bucket) {
  switch (bucket) {
    case 0: return "0 rpcs";
    case 1: return "1 rpc";
    case 2: return "2-7 rpcs";
    default: return "8+ rpcs";
  }
}

size_t RpcHoldBucketFor(uint64_t rpcs) {
  if (rpcs == 0) return 0;
  if (rpcs == 1) return 1;
  if (rpcs < 8) return 2;
  return 3;
}

uint32_t RegisterClass(const char* name, int rank) {
  return RegisterClass(name, rank, RpcHoldPolicy::kNeverAcrossRpc, nullptr);
}

uint32_t RegisterClass(const char* name, int rank, RpcHoldPolicy policy,
                       const char* justification) {
  if (policy == RpcHoldPolicy::kAllowedAcrossRpc &&
      (justification == nullptr || justification[0] == '\0')) {
    std::fprintf(stderr,
                 "[lock_order] FATAL: lock class \"%s\" registered as "
                 "allowed-across-rpc without a justification. Holding a lock "
                 "across an RPC is the exception the paper exists to avoid; "
                 "it must explain itself.\n",
                 name);
    std::fflush(stderr);
    std::abort();
  }
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.by_name.find(name);
  if (it != r.by_name.end()) {
    const ClassInfo& existing = r.classes[it->second];
    if (existing.rank != rank || existing.policy != policy ||
        existing.justification != (justification ? justification : "")) {
      std::fprintf(stderr,
                   "[lock_order] FATAL: lock class \"%s\" re-registered with "
                   "rank %d / policy %s (was rank %d / policy %s)\n",
                   name, rank, RpcHoldPolicyName(policy), existing.rank,
                   RpcHoldPolicyName(existing.policy));
      std::fflush(stderr);
      std::abort();
    }
    return it->second;
  }
  uint32_t id = r.count.load(std::memory_order_relaxed) + 1;
  if (id >= kMaxClasses) {
    std::fprintf(stderr, "[lock_order] FATAL: too many lock classes (>%zu)\n",
                 kMaxClasses - 1);
    std::fflush(stderr);
    std::abort();
  }
  r.classes[id] =
      ClassInfo{name, rank, policy, justification ? justification : ""};
  r.count.store(id, std::memory_order_release);
  r.by_name.emplace(name, id);
  return id;
}

const std::vector<Held>& HeldLocks() { return State().held; }

uint64_t ReleaseCount(uint32_t cls) {
  return cls < kMaxClasses ? State().releases[cls] : 0;
}

void OnAcquire(uint32_t cls, LockMode mode) {
  // Preemption point: a blocking lock acquisition is where schedule choice
  // decides who enters the critical section first (DESIGN.md §12).
  simtime::FuzzPoint(simtime::FuzzKind::kLockAcquire);
  if (cls == 0) return;
  ThreadState& t = State();
  uint64_t epoch = g_graph_epoch.load(std::memory_order_acquire);
  if (t.graph_epoch != epoch) {
    t.verified.reset();
    t.graph_epoch = epoch;
  }

  const ClassInfo& acq = Info(cls);
  for (const Held& entry : t.held) {
    // Logical (scope-only) entries are not mutexes: blocking on them is
    // resolved by the lock manager's own timeouts, they are legally held
    // many-at-a-time, and they would flood the held-before graph. They only
    // matter to the RPC/scope accounting.
    if (entry.scope_only) continue;
    uint32_t held = entry.cls;
    if (held == cls) {
      Violation v;
      v.kind = Violation::Kind::kSelf;
      v.acquiring = acq.name;
      v.acquiring_rank = acq.rank;
      v.held = acq.name;
      v.held_rank = acq.rank;
      v.detail = "same lock class acquired twice on one thread; " +
                 HeldStackString(t.held);
      Report(std::move(v));
      continue;
    }
    const ClassInfo& held_info = Info(held);
    if (acq.rank != 0 && held_info.rank != 0 && acq.rank <= held_info.rank) {
      Violation v;
      v.kind = Violation::Kind::kRank;
      v.acquiring = acq.name;
      v.acquiring_rank = acq.rank;
      v.held = held_info.name;
      v.held_rank = held_info.rank;
      v.detail = HeldStackString(t.held);
      Report(std::move(v));
    }
    // Held-before edge held -> cls, added once per (thread, graph epoch).
    size_t bit = static_cast<size_t>(held) * kMaxClasses + cls;
    if (t.verified.test(bit)) continue;
    Graph& graph = GetGraph();
    std::lock_guard<std::mutex> lock(graph.mu);
    if (!graph.adj[held].test(cls)) {
      if (Reaches(graph, cls, held)) {
        Violation v;
        v.kind = Violation::Kind::kCycle;
        v.acquiring = acq.name;
        v.acquiring_rank = acq.rank;
        v.held = held_info.name;
        v.held_rank = held_info.rank;
        v.detail = "new edge \"" + held_info.name + "\" -> \"" + acq.name +
                   "\" closes cycle: " + PathString(graph, cls, held) +
                   " -> \"" + acq.name + "\"; " + HeldStackString(t.held);
        Report(std::move(v));
        // Leave the inverted edge out so the graph keeps describing the
        // sanctioned order (and repeated inversions keep reporting).
        continue;
      }
      graph.adj[held].set(cls);
    }
    t.verified.set(bit);
  }
  t.held.push_back(Held{cls, mode, /*scope_only=*/false, 0, NowNanos()});
}

void OnAcquired(uint32_t cls) {
  if (cls != 0 && race::Enabled()) race::OnLockAcquired(cls);
}

void OnTryAcquired(uint32_t cls, LockMode mode) {
  if (cls != 0) PushHeld(cls, mode, /*scope_only=*/false);
}

void OnRelease(uint32_t cls) { PopHeld(cls, /*scope_only=*/false, "release"); }

void OnReleased() { simtime::FuzzPoint(simtime::FuzzKind::kLockRelease); }

// Logical critical sections protect data too (a transaction's row locks
// guard the rows), so they join the locksets and the happens-before edges
// exactly like a mutex held in exclusive mode.
void OnScopeEnter(uint32_t cls) {
  if (cls != 0) PushHeld(cls, LockMode::kExclusive, /*scope_only=*/true);
}

void OnScopeExit(uint32_t cls) {
  PopHeld(cls, /*scope_only=*/true, "scope exit");
}

void OnRpcEdge(const char* from_node, const char* to_node) {
  ThreadState& t = State();
  if (t.held.empty()) return;
  ScopeSlot* scope = GetScope();
  bool enforce = g_rpc_enforce.load(std::memory_order_relaxed);
  // Snapshot violations before mutating: Report may not return (abort), so
  // count first, and walk by index because a recording handler could
  // re-enter locking code.
  for (size_t i = 0; i < t.held.size(); i++) {
    Held& entry = t.held[i];
    entry.rpcs++;
    ScopeSlot& slot = scope[entry.cls];
    slot.rpcs_under_lock.fetch_add(1, std::memory_order_relaxed);
    const ClassInfo& info = Info(entry.cls);
    if (info.policy != RpcHoldPolicy::kNeverAcrossRpc) continue;
    slot.rpc_violations.fetch_add(1, std::memory_order_relaxed);
    g_total_rpc_violations.fetch_add(1, std::memory_order_relaxed);
    if (!enforce) continue;
    Violation v;
    v.kind = Violation::Kind::kRpcUnderLock;
    v.held = info.name;
    v.held_rank = info.rank;
    v.rpc_edge = std::string(from_node) + " -> " + to_node;
    v.detail = HeldStackString(t.held);
    Report(std::move(v));
  }
}

void AssertHeld(uint32_t cls) {
  if (cls == 0) return;
  for (const Held& entry : State().held) {
    if (entry.cls == cls) return;
  }
  std::fprintf(stderr,
               "[lock_order] FATAL: AssertHeld(\"%s\") failed; %s\n",
               Info(cls).name.c_str(), HeldStackString(State().held).c_str());
  std::fflush(stderr);
  std::abort();
}

void SetRpcEnforcement(bool enforce) {
  g_rpc_enforce.store(enforce, std::memory_order_relaxed);
}

bool RpcEnforcement() { return g_rpc_enforce.load(std::memory_order_relaxed); }

void SetViolationHandler(ViolationHandler handler) {
  std::lock_guard<std::mutex> lock(g_handler_mu);
  g_handler = std::move(handler);
}

std::vector<std::pair<std::string, int>> RegisteredClasses() {
  uint32_t count = GetRegistry().count.load(std::memory_order_acquire);
  std::vector<std::pair<std::string, int>> out;
  out.reserve(count);
  for (uint32_t id = 1; id <= count; id++) {
    out.emplace_back(Info(id).name, Info(id).rank);
  }
  return out;
}

const std::string& ClassName(uint32_t cls) { return Info(cls).name; }

std::vector<ClassScope> ScopeSnapshot() {
  uint32_t count = GetRegistry().count.load(std::memory_order_acquire);
  ScopeSlot* scope = GetScope();
  std::vector<ClassScope> out;
  out.reserve(count);
  for (uint32_t id = 1; id <= count; id++) {
    const ClassInfo& info = Info(id);
    const ScopeSlot& slot = scope[id];
    ClassScope cs;
    cs.name = info.name;
    cs.rank = info.rank;
    cs.policy = info.policy;
    cs.justification = info.justification;
    cs.holds = slot.holds.load(std::memory_order_relaxed);
    cs.holds_with_rpc = slot.holds_with_rpc.load(std::memory_order_relaxed);
    cs.rpcs_under_lock = slot.rpcs_under_lock.load(std::memory_order_relaxed);
    cs.rpc_violations = slot.rpc_violations.load(std::memory_order_relaxed);
    cs.unbalanced_pops = slot.unbalanced_pops.load(std::memory_order_relaxed);
    cs.max_hold_us = slot.max_hold_us.load(std::memory_order_relaxed);
    cs.total_hold_us = slot.total_hold_us.load(std::memory_order_relaxed);
    for (size_t b = 0; b < kNumRpcHoldBuckets; b++) {
      cs.rpc_buckets[b].holds =
          slot.buckets[b].holds.load(std::memory_order_relaxed);
      cs.rpc_buckets[b].total_us =
          slot.buckets[b].total_us.load(std::memory_order_relaxed);
      cs.rpc_buckets[b].max_us =
          slot.buckets[b].max_us.load(std::memory_order_relaxed);
    }
    out.push_back(std::move(cs));
  }
  return out;
}

void ResetScopeStats() {
  ScopeSlot* scope = GetScope();
  for (size_t i = 0; i < kMaxClasses; i++) {
    ScopeSlot& slot = scope[i];
    slot.holds.store(0, std::memory_order_relaxed);
    slot.holds_with_rpc.store(0, std::memory_order_relaxed);
    slot.rpcs_under_lock.store(0, std::memory_order_relaxed);
    slot.rpc_violations.store(0, std::memory_order_relaxed);
    slot.unbalanced_pops.store(0, std::memory_order_relaxed);
    slot.max_hold_us.store(0, std::memory_order_relaxed);
    slot.total_hold_us.store(0, std::memory_order_relaxed);
    for (size_t b = 0; b < kNumRpcHoldBuckets; b++) {
      slot.buckets[b].holds.store(0, std::memory_order_relaxed);
      slot.buckets[b].total_us.store(0, std::memory_order_relaxed);
      slot.buckets[b].max_us.store(0, std::memory_order_relaxed);
    }
    // unbalanced_warned deliberately not reset: once per class per process.
  }
}

uint64_t TotalRpcUnderLockViolations() {
  return g_total_rpc_violations.load(std::memory_order_relaxed);
}

uint64_t TotalUnbalancedPops() {
  return g_total_unbalanced_pops.load(std::memory_order_relaxed);
}

void ResetGraphForTest() {
  Graph& graph = GetGraph();
  std::lock_guard<std::mutex> lock(graph.mu);
  for (auto& row : graph.adj) row.reset();
  g_graph_epoch.fetch_add(1, std::memory_order_release);
}

}  // namespace lock_order
}  // namespace cfs
