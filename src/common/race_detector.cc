#include "src/common/race_detector.h"

#include <algorithm>
#include <atomic>
#include <bitset>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "src/common/lock_order.h"
#include "src/common/simtime.h"
#include "src/common/trace_event.h"

// Internal state is synchronized with raw std::mutex on purpose (like
// lock_order.cc): cfs::Mutex would recurse into the very hooks this module
// implements. scripts/lint_allowlist.txt enumerates this file for the raw-
// mutex lint exemption.

namespace cfs {
namespace race {
namespace {

constexpr size_t kMaxClasses = lock_order::kMaxLockClasses;
using Lockset = std::bitset<kMaxClasses>;

// ---------------------------------------------------------------------------
// Vector clocks: flat ctx-sorted vectors (contexts are dense small ints).

// Entry cap: a long-running process accumulates contexts (every OS thread
// and every simulated task chain is one), and unbounded clocks would make
// every join O(all contexts ever). Past the cap the lowest-clock entries
// are evicted; a lost entry can only turn "ordered" into "unordered", so
// the failure mode is a (rare, init/teardown-shaped) extra report — never
// a missed one.
constexpr size_t kMaxVcEntries = 1024;

struct VectorClock {
  // (ctx, clock), sorted by ctx ascending.
  std::vector<std::pair<uint32_t, uint64_t>> entries;

  uint64_t Get(uint32_t ctx) const {
    auto it = std::lower_bound(
        entries.begin(), entries.end(), ctx,
        [](const auto& e, uint32_t c) { return e.first < c; });
    return (it != entries.end() && it->first == ctx) ? it->second : 0;
  }

  void Set(uint32_t ctx, uint64_t clock) {
    auto it = std::lower_bound(
        entries.begin(), entries.end(), ctx,
        [](const auto& e, uint32_t c) { return e.first < c; });
    if (it != entries.end() && it->first == ctx) {
      if (clock > it->second) it->second = clock;
    } else {
      entries.insert(it, {ctx, clock});
      Cap();
    }
  }

  void Join(const VectorClock& other) {
    if (other.entries.empty()) return;
    // Linear merge of two ctx-sorted runs.
    std::vector<std::pair<uint32_t, uint64_t>> merged;
    merged.reserve(entries.size() + other.entries.size());
    size_t i = 0;
    size_t j = 0;
    while (i < entries.size() && j < other.entries.size()) {
      if (entries[i].first < other.entries[j].first) {
        merged.push_back(entries[i++]);
      } else if (entries[i].first > other.entries[j].first) {
        merged.push_back(other.entries[j++]);
      } else {
        merged.emplace_back(entries[i].first,
                            std::max(entries[i].second,
                                     other.entries[j].second));
        i++;
        j++;
      }
    }
    merged.insert(merged.end(), entries.begin() + i, entries.end());
    merged.insert(merged.end(), other.entries.begin() + j,
                  other.entries.end());
    entries = std::move(merged);
    Cap();
  }

  bool Covers(uint32_t ctx, uint64_t clock) const { return Get(ctx) >= clock; }

 private:
  void Cap() {
    while (entries.size() > kMaxVcEntries) {
      auto lowest = std::min_element(
          entries.begin(), entries.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      entries.erase(lowest);
    }
  }
};

// ---------------------------------------------------------------------------
// Contexts: OS threads and simulated tasks. Context ids are allocated in
// creation order — deterministic under a seeded single-threaded sim.

std::atomic<uint32_t> g_next_ctx{1};
std::atomic<uint64_t> g_next_token{1};

struct Ctx {
  uint32_t id = 0;
  uint64_t clock = 1;  // this context's own logical clock
  VectorClock vc;      // includes the self entry

  void Tick() {
    clock++;
    vc.Set(id, clock);
  }
};

Ctx MakeCtx() {
  Ctx c;
  c.id = g_next_ctx.fetch_add(1, std::memory_order_relaxed);
  c.vc.Set(c.id, c.clock);
  return c;
}

// Happens-before state only: the locks a thread holds live in lock_order's
// held-lock record.
struct ThreadState {
  Ctx thread_ctx;
  std::vector<Ctx> task_stack;  // active sim-task contexts (depth ~1)
  // Per-class sync-slot version this context is known to have joined;
  // skipping the join when nothing changed makes uncontended reacquisition
  // O(1). Invalidated wholesale on task switches (the task has its own vc).
  uint64_t sync_seen[kMaxClasses] = {};
  bool initialized = false;
};

ThreadState& State() {
  thread_local ThreadState state;
  if (!state.initialized) {
    state.thread_ctx = MakeCtx();
    state.initialized = true;
  }
  return state;
}

Ctx& CurrentCtx(ThreadState& t) {
  return t.task_stack.empty() ? t.thread_ctx : t.task_stack.back();
}

// The calling thread's locksets, derived from the held-lock record.
struct Locksets {
  Lockset any;   // classes held in any mode
  Lockset excl;  // classes held exclusive
};

Locksets HeldLocksets() {
  Locksets out;
  for (const lock_order::Held& h : lock_order::HeldLocks()) {
    out.any.set(h.cls);
    if (h.mode == lock_order::LockMode::kExclusive) out.excl.set(h.cls);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sync-object (lock-class) vector clocks: release joins the releaser's
// clock in, acquire joins the class clock out — the HB edges of the
// release→acquire discipline, at class granularity (DESIGN.md §12).

struct SyncSlot {
  std::mutex mu;
  VectorClock vc;
  // Bumped on every release; lets acquirers skip the join when the slot
  // has not moved since they last synchronized with it.
  std::atomic<uint64_t> version{0};
};

SyncSlot* GetSync() {
  static SyncSlot* const s = new SyncSlot[kMaxClasses];
  return s;
}

// Pending task tokens: the creator's clock snapshot, consumed at dispatch.
struct TokenTable {
  std::mutex mu;
  std::unordered_map<uint64_t, VectorClock> pending;
};

TokenTable& Tokens() {
  static TokenTable* const t = new TokenTable();
  return *t;
}

// ---------------------------------------------------------------------------
// Location table: sharded by SplitMix64-mixed address.

struct Epoch {
  uint32_t ctx = 0;
  uint64_t clock = 0;
};

struct Loc {
  const char* name = nullptr;
  uint32_t declared_cls = 0;
  enum class St : uint8_t { kExclusive, kShared, kSharedMod } st = St::kExclusive;
  Epoch owner;       // exclusive state: the owning epoch
  Lockset lockset;   // candidate set once shared
  Epoch last_write;
  std::string last_write_locks;
  const char* last_write_file = nullptr;
  int last_write_line = 0;
  std::vector<Epoch> reads;  // reads since the last write (capped)
  // Sites already reported for this location, by kind (throttle).
  uint8_t reported_kinds = 0;
};

constexpr size_t kLocShards = 64;
constexpr size_t kMaxReadEpochs = 8;

struct LocShard {
  std::mutex mu;
  std::unordered_map<uintptr_t, Loc> map;
};

LocShard* GetLocs() {
  static LocShard* const s = new LocShard[kLocShards];
  return s;
}

size_t ShardOf(uintptr_t addr) {
  uint64_t state = static_cast<uint64_t>(addr) ^ 0x9e3779b97f4a7c15ULL;
  uint64_t z = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<size_t>((z ^ (z >> 31)) % kLocShards);
}

// ---------------------------------------------------------------------------
// Switches, report store.

bool EnvFlag(const char* name, bool def) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return def;
  return !(v[0] == '0' && v[1] == '\0');
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool>* const f =
      new std::atomic<bool>(EnvFlag("CFS_RACE_DETECT", false));
  return *f;
}

std::atomic<bool>& AbortFlag() {
  static std::atomic<bool>* const f =
      new std::atomic<bool>(EnvFlag("CFS_RACE_ABORT", false));
  return *f;
}

size_t MaxReports() {
  static const size_t n = [] {
    const char* v = std::getenv("CFS_RACE_MAX_REPORTS");
    long parsed = (v != nullptr) ? std::strtol(v, nullptr, 10) : 0;
    return parsed > 0 ? static_cast<size_t>(parsed) : size_t{64};
  }();
  return n;
}

struct ReportStore {
  std::mutex mu;
  std::vector<Report> reports;
};

ReportStore& Store() {
  static ReportStore* const s = new ReportStore();
  return *s;
}

std::atomic<uint64_t> g_report_count{0};

std::string LocksetString() {
  std::string out;
  for (const lock_order::Held& h : lock_order::HeldLocks()) {
    if (!out.empty()) out += ",";
    out += lock_order::ClassName(h.cls);
    if (h.mode == lock_order::LockMode::kShared) out += "(shared)";
  }
  return out.empty() ? "<none>" : out;
}

void Emit(Report r) {
  g_report_count.fetch_add(1, std::memory_order_relaxed);
  std::string line = Fingerprint(r);
  std::fprintf(stderr,
               "[race] %s trace_id=%llu virtual_us=%lld prior={%s}\n",
               line.c_str(), static_cast<unsigned long long>(r.trace_id),
               static_cast<long long>(r.virtual_us), r.prior.c_str());
  std::fflush(stderr);
  if (AbortFlag().load(std::memory_order_relaxed)) std::abort();
  ReportStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mu);
  if (store.reports.size() < MaxReports()) store.reports.push_back(std::move(r));
}

Report MakeReport(Report::Kind kind, const Ctx& ctx, const char* field,
                  uint32_t declared_cls, bool is_write, const char* file,
                  int line) {
  Report r;
  r.kind = kind;
  r.field = field;
  r.declared_lock =
      declared_cls != 0 ? lock_order::ClassName(declared_cls) : "<none>";
  r.locks_held = LocksetString();
  r.file = file;
  r.line = line;
  r.is_write = is_write;
  r.ctx = ctx.id;
  r.trace_id = trace::CurrentTraceId();
  simtime::Scheduler* sched = simtime::Current();
  r.virtual_us = sched != nullptr ? sched->task_now_us() : -1;
  return r;
}

}  // namespace

const char* ReportKindName(Report::Kind kind) {
  switch (kind) {
    case Report::Kind::kUnheldDeclaredLock: return "unheld-declared-lock";
    case Report::Kind::kLocksetEmpty: return "lockset-empty";
    case Report::Kind::kScopeGuardDropped: return "scope-guard-dropped";
  }
  return "?";
}

std::string Fingerprint(const Report& r) {
  // Deliberately excludes wall-clock and trace ids: under a seeded sim,
  // identical seeds must produce byte-identical fingerprints.
  std::string out = ReportKindName(r.kind);
  out += " field=";
  out += r.field;
  out += r.is_write ? " write" : " read";
  out += " declared=";
  out += r.declared_lock;
  out += " held=";
  out += r.locks_held;
  out += " at ";
  // Strip directories for replay stability across checkouts.
  const char* slash = std::strrchr(r.file.c_str(), '/');
  out += (slash != nullptr) ? slash + 1 : r.file.c_str();
  out += ":" + std::to_string(r.line);
  out += " ctx=" + std::to_string(r.ctx);
  return out;
}

void SetEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

bool Enabled() {
  return lock_order::kTracking &&
         EnabledFlag().load(std::memory_order_relaxed);
}

void SetAbortOnReport(bool abort_on_report) {
  AbortFlag().store(abort_on_report, std::memory_order_relaxed);
}

bool AbortOnReport() { return AbortFlag().load(std::memory_order_relaxed); }

void OnLockAcquired(uint32_t cls) {
  ThreadState& t = State();
  // HB in-edge: everything that happened before the last release of this
  // class happened before us. Skipped when the slot has not moved since we
  // last synchronized — the common reacquisition case.
  Ctx& ctx = CurrentCtx(t);
  SyncSlot& slot = GetSync()[cls];
  if (slot.version.load(std::memory_order_acquire) != t.sync_seen[cls]) {
    std::lock_guard<std::mutex> lock(slot.mu);
    ctx.vc.Join(slot.vc);
    t.sync_seen[cls] = slot.version.load(std::memory_order_relaxed);
  }
}

void OnLockReleased(uint32_t cls) {
  ThreadState& t = State();
  // HB out-edge: publish our clock to the class, then tick so later local
  // work is not ordered before a future acquirer. The join runs both ways —
  // at class granularity the slot already merges all instances' histories,
  // so absorbing it here adds nothing the next acquire would not — which
  // makes "fully synchronized at version N" true and the acquire-side skip
  // sound.
  Ctx& ctx = CurrentCtx(t);
  {
    SyncSlot& slot = GetSync()[cls];
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.vc.Join(ctx.vc);
    ctx.vc.Join(slot.vc);
    t.sync_seen[cls] =
        slot.version.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  ctx.Tick();
}

uint64_t OnTaskCreate() {
  if (!Enabled()) return 0;
  ThreadState& t = State();
  Ctx& ctx = CurrentCtx(t);
  uint64_t token = g_next_token.fetch_add(1, std::memory_order_relaxed);
  {
    TokenTable& tokens = Tokens();
    std::lock_guard<std::mutex> lock(tokens.mu);
    tokens.pending[token] = ctx.vc;  // creator happens-before the event
  }
  ctx.Tick();
  return token;
}

void OnTaskBegin(uint64_t token) {
  if (!Enabled()) return;
  ThreadState& t = State();
  Ctx task = MakeCtx();
  if (token != 0) {
    TokenTable& tokens = Tokens();
    std::lock_guard<std::mutex> lock(tokens.mu);
    auto it = tokens.pending.find(token);
    if (it != tokens.pending.end()) {
      task.vc.Join(it->second);
      tokens.pending.erase(it);
    }
  }
  t.task_stack.push_back(std::move(task));
  std::memset(t.sync_seen, 0, sizeof(t.sync_seen));
}

void OnTaskEnd() {
  ThreadState& t = State();
  if (!t.initialized || t.task_stack.empty()) return;
  t.task_stack.pop_back();
  std::memset(t.sync_seen, 0, sizeof(t.sync_seen));
}

void RecordAccess(const void* addr, const char* field, uint32_t declared_cls,
                  bool is_write, const char* file, int line) {
  if (!Enabled() || addr == nullptr) return;
  ThreadState& t = State();
  Ctx& ctx = CurrentCtx(t);
  const uint64_t now_clock = ctx.clock;
  const Locksets held = HeldLocksets();
  const Lockset& mode_set = is_write ? held.excl : held.any;

  // Check 1 — the declaration: a write needs the declared class exclusive,
  // a read accepts shared or exclusive.
  bool declared_ok = true;
  if (declared_cls != 0 && declared_cls < kMaxClasses) {
    declared_ok = mode_set.test(declared_cls);
  }

  auto addr_int = reinterpret_cast<uintptr_t>(addr);
  LocShard& shard = GetLocs()[ShardOf(addr_int)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(addr_int);
  Loc& loc = it->second;
  if (!inserted && loc.name != nullptr && std::strcmp(loc.name, field) != 0) {
    // Same address, different field: the object tracked here was destroyed
    // and the allocator reused its storage (there is no deallocation hook
    // to evict stale entries). Restart tracking — chaining the old object's
    // history onto the new one fabricates races between unrelated fields.
    loc = Loc{};
    inserted = true;
  }

  auto report = [&](Report::Kind kind, const Loc& l) {
    uint8_t bit = static_cast<uint8_t>(1u << static_cast<unsigned>(kind));
    if ((loc.reported_kinds & bit) != 0) {
      g_report_count.fetch_add(1, std::memory_order_relaxed);
      return;  // location+kind already reported in full; keep counting
    }
    loc.reported_kinds |= bit;
    Report r = MakeReport(kind, ctx, field, declared_cls, is_write, file, line);
    if (l.last_write.ctx != 0) {
      r.prior = "write ctx=" + std::to_string(l.last_write.ctx) + " locks=" +
                (l.last_write_locks.empty() ? "<none>" : l.last_write_locks);
      if (l.last_write_file != nullptr) {
        const char* slash = std::strrchr(l.last_write_file, '/');
        r.prior += " at ";
        r.prior += slash != nullptr ? slash + 1 : l.last_write_file;
        r.prior += ":" + std::to_string(l.last_write_line);
      }
    }
    Emit(std::move(r));
  };

  if (!declared_ok) report(Report::Kind::kUnheldDeclaredLock, loc);

  if (inserted) {
    loc.name = field;
    loc.declared_cls = declared_cls;
    loc.st = Loc::St::kExclusive;
    loc.owner = {ctx.id, now_clock};
    loc.lockset = held.any;
  }

  // True if every access recorded in `epochs` happens-before this one.
  auto covered = [&](const Epoch& e) {
    return e.ctx == ctx.id || ctx.vc.Covers(e.ctx, e.clock);
  };

  switch (loc.st) {
    case Loc::St::kExclusive:
      if (loc.owner.ctx == ctx.id || covered(loc.owner)) {
        loc.owner = {ctx.id, now_clock};  // same owner / silent handoff
        loc.lockset = held.any;
      } else {
        // Genuinely concurrent second context: enter the shared regime.
        // Eraser: the candidate set becomes the locks common to both sides.
        loc.st = is_write ? Loc::St::kSharedMod : Loc::St::kShared;
        loc.lockset &= mode_set;
        if (loc.lockset.none()) report(Report::Kind::kLocksetEmpty, loc);
      }
      break;
    case Loc::St::kShared:
    case Loc::St::kSharedMod: {
      bool ordered = covered(loc.last_write);
      if (is_write) {
        for (const Epoch& e : loc.reads) ordered = ordered && covered(e);
      }
      Lockset refined = loc.lockset & mode_set;
      if (refined.none() && ordered) {
        // Phase change: all prior accesses happen-before this one — the
        // location starts a new era under (possibly) a new discipline.
        loc.st = Loc::St::kExclusive;
        loc.owner = {ctx.id, now_clock};
        loc.lockset = held.any;
      } else {
        loc.lockset = refined;
        if (is_write) loc.st = Loc::St::kSharedMod;
        if (refined.none() && loc.st == Loc::St::kSharedMod) {
          report(Report::Kind::kLocksetEmpty, loc);
        }
      }
      break;
    }
  }

  if (is_write) {
    loc.last_write = {ctx.id, now_clock};
    loc.last_write_locks = LocksetString();
    if (loc.last_write_locks == "<none>") loc.last_write_locks.clear();
    loc.last_write_file = file;
    loc.last_write_line = line;
    loc.reads.clear();
  } else if (loc.reads.size() < kMaxReadEpochs) {
    loc.reads.push_back({ctx.id, now_clock});
  }
}

AccessScope::AccessScope(const void* addr, const char* field,
                         uint32_t declared_cls, bool is_write,
                         const char* file, int line)
    : field_(field),
      declared_cls_(declared_cls),
      file_(file),
      line_(line),
      armed_(Enabled()) {
  if (!armed_) return;
  releases_at_entry_ = lock_order::ReleaseCount(declared_cls_);
  RecordAccess(addr, field, declared_cls, is_write, file, line);
}

AccessScope::~AccessScope() {
  if (!armed_ || !Enabled()) return;
  if (declared_cls_ == 0 || declared_cls_ >= kMaxClasses) return;
  // Atomicity of the whole region: the declared lock must still be held AND
  // never have been released since the scope opened — a drop-and-reacquire
  // lets another context observe the half-done update even though the lock
  // is back by now.
  const bool held = HeldLocksets().any.test(declared_cls_);
  if (held && lock_order::ReleaseCount(declared_cls_) == releases_at_entry_) {
    return;
  }
  Report r = MakeReport(Report::Kind::kScopeGuardDropped, CurrentCtx(State()),
                        field_, declared_cls_, /*is_write=*/false, file_,
                        line_);
  r.prior = held ? "declared lock released and reacquired mid-scope"
                 : "declared lock released before the access scope closed";
  Emit(std::move(r));
}

size_t ReportCount() {
  return static_cast<size_t>(g_report_count.load(std::memory_order_relaxed));
}

std::vector<Report> Reports() {
  ReportStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mu);
  return store.reports;
}

void ResetForTest() {
  for (size_t i = 0; i < kLocShards; i++) {
    LocShard& shard = GetLocs()[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
  for (size_t i = 0; i < kMaxClasses; i++) {
    SyncSlot& slot = GetSync()[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.vc.entries.clear();
  }
  {
    TokenTable& tokens = Tokens();
    std::lock_guard<std::mutex> lock(tokens.mu);
    tokens.pending.clear();
  }
  {
    ReportStore& store = Store();
    std::lock_guard<std::mutex> lock(store.mu);
    store.reports.clear();
  }
  g_report_count.store(0, std::memory_order_relaxed);
  // The calling thread's context restarts with a fresh clock; other
  // threads' TLS is intentionally untouched (they may hold locks).
  ThreadState& t = State();
  t.thread_ctx = MakeCtx();
  t.task_stack.clear();
  std::memset(t.sync_seen, 0, sizeof(t.sync_seen));
}

}  // namespace race
}  // namespace cfs
