#include "src/workload/workload.h"

#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"

namespace cfs {
namespace {

std::string PrivateDir(size_t thread) {
  return "/priv" + std::to_string(thread);
}

std::string TargetDir(size_t thread, double contention_rate, Rng& rng) {
  if (contention_rate > 0 && rng.NextDouble() < contention_rate) {
    return "/shared";
  }
  return PrivateDir(thread);
}

// First `seq` of the next Run/RunSimulated call in this process. Created
// names embed (thread, seq), so a run that restarted at 0 would recreate
// the names an earlier run on the same system made and time the EEXIST
// path (Fig 9(b)'s single-client leg after the peak leg). A counter, not
// the clock, so same-seed simulated runs stay byte-identical. Each run
// gets 2^32 sequence numbers, a multiple of every op factory's cycle.
uint64_t NextRunSeqBase() {
  static std::atomic<uint64_t> runs{0};
  return runs.fetch_add(1, std::memory_order_relaxed) << 32;
}

}  // namespace

std::string_view MetaOpName(MetaOp op) {
  switch (op) {
    case MetaOp::kCreate: return "create";
    case MetaOp::kGetAttr: return "getattr";
    case MetaOp::kRmdir: return "rmdir";
    case MetaOp::kLookup: return "lookup";
    case MetaOp::kMkdir: return "mkdir";
    case MetaOp::kReaddir: return "readdir";
    case MetaOp::kUnlink: return "unlink";
    case MetaOp::kSetAttr: return "setattr";
    case MetaOp::kRename: return "rename";
  }
  return "?";
}

RunResult WorkloadRunner::Run(const OpFn& op, int64_t duration_ms,
                              int64_t warmup_ms,
                              const std::string& trace_label) {
  std::atomic<bool> warming{warmup_ms > 0};
  std::atomic<bool> running{true};
  std::atomic<uint64_t> total_ops{0};
  std::atomic<uint64_t> total_errors{0};
  StripedHistogram latency(std::max<size_t>(clients_.size(), 1));
  Mutex phases_mu{"workload.phases", 90};
  PhaseBreakdown phases;

  // Causal-trace op name: the run's label when given ("fig9.cfs.create"),
  // so retained span trees say which bench op produced them.
  const char* op_name = trace_label.empty() ? "op" : trace_label.c_str();
  const uint64_t seq_base = NextRunSeqBase();

  std::vector<std::thread> threads;
  threads.reserve(clients_.size());
  for (size_t t = 0; t < clients_.size(); t++) {
    threads.emplace_back([&, t] {
      Rng rng(0xbadc0ffee ^ (t * 0x9e3779b9));
      uint64_t seq = seq_base;
      uint64_t ops = 0;
      uint64_t errors = 0;
      PhaseBreakdown local;
      while (running.load(std::memory_order_relaxed)) {
        // One warming check per op, at begin: ops that start during
        // warm-up are excluded from the accumulators AND carry the
        // "warmup" trace label, so the causal-trace layer and the phase
        // accumulators see the same op population (fig13's span-vs-
        // accumulator cross-check filters by label).
        bool warm = warming.load(std::memory_order_relaxed);
        OpTrace::Begin(warm ? "warmup" : op_name);
        Status st = op(clients_[t].get(), t, seq++, rng);
        OpTraceData trace = OpTrace::Finish();
        if (!warm) {
          latency.Record(t, trace.total_us);
          local.Add(trace);
          ops++;
          if (!st.ok()) errors++;
        }
      }
      total_ops.fetch_add(ops);
      total_errors.fetch_add(errors);
      MutexLock lock(phases_mu);
      phases.Merge(local);
    });
  }

  if (warmup_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(warmup_ms));
    warming.store(false);
  }
  Stopwatch window;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  double seconds = window.ElapsedSeconds();
  running.store(false);
  for (auto& th : threads) th.join();

  RunResult result;
  result.ops = total_ops.load();
  result.errors = total_errors.load();
  result.seconds = seconds;
  result.latency = latency.Aggregate();
  result.phases = phases;
  if (!trace_label.empty()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    result.phases.PublishTo(registry, trace_label);
    registry.GetHistogram("trace." + trace_label + ".latency")
        ->Merge(result.latency);
  }
  return result;
}

RunResult WorkloadRunner::RunSimulated(simtime::Scheduler& sched,
                                       const OpFn& op, int64_t duration_ms,
                                       int64_t warmup_ms,
                                       const std::string& trace_label) {
  const char* op_name = trace_label.empty() ? "op" : trace_label.c_str();
  const int64_t start_us = sched.now_us();
  const int64_t warmup_end_us = start_us + warmup_ms * 1000;
  const int64_t deadline_us = warmup_end_us + duration_ms * 1000;

  uint64_t ops = 0;
  uint64_t errors = 0;
  Histogram latency;
  PhaseBreakdown phases;
  std::vector<Rng> rngs;
  std::vector<uint64_t> seqs(clients_.size(), NextRunSeqBase());
  rngs.reserve(clients_.size());
  for (size_t t = 0; t < clients_.size(); t++) {
    // Same per-client stream family as Run(), keyed on the scheduler seed
    // so different seeds explore different op sequences.
    rngs.emplace_back(sched.seed() ^ 0xbadc0ffee ^ (t * 0x9e3779b9));
  }

  // One client = one self-rescheduling step function. The op runs to
  // completion on the scheduler thread; the latency it accrued becomes the
  // gap to its next op. As in Run(), an op that *starts* before the
  // deadline is counted even if its accrued latency ends past it.
  std::function<void(size_t)> step = [&](size_t t) {
    bool warm = sched.now_us() < warmup_end_us;
    OpTrace::Begin(warm ? "warmup" : op_name);
    Status st = op(clients_[t].get(), t, seqs[t]++, rngs[t]);
    OpTraceData trace = OpTrace::Finish();
    if (!warm) {
      latency.Record(trace.total_us);
      phases.Add(trace);
      ops++;
      if (!st.ok()) errors++;
    }
    int64_t next_us = sched.task_now_us();
    if (next_us < deadline_us) {
      sched.At(next_us, [&step, t] { step(t); });
    }
  };
  for (size_t t = 0; t < clients_.size(); t++) {
    sched.At(start_us, [&step, t] { step(t); });
  }
  sched.RunUntil(deadline_us);
  // Tasks scheduled past the deadline reference this frame; drop them.
  (void)sched.CancelPending();

  RunResult result;
  result.ops = ops;
  result.errors = errors;
  result.seconds = static_cast<double>(duration_ms) / 1000.0;
  result.latency = latency;
  result.phases = phases;
  if (!trace_label.empty()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    result.phases.PublishTo(registry, trace_label);
    registry.GetHistogram("trace." + trace_label + ".latency")
        ->Merge(result.latency);
  }
  return result;
}

RunResult WorkloadRunner::RunCount(const OpFn& op, uint64_t ops_per_thread) {
  std::atomic<uint64_t> total_errors{0};
  StripedHistogram latency(std::max<size_t>(clients_.size(), 1));
  Mutex phases_mu{"workload.phases", 90};
  PhaseBreakdown phases;
  Stopwatch window;
  std::vector<std::thread> threads;
  threads.reserve(clients_.size());
  for (size_t t = 0; t < clients_.size(); t++) {
    threads.emplace_back([&, t] {
      Rng rng(0xfeedface ^ (t * 0x9e3779b9));
      uint64_t errors = 0;
      PhaseBreakdown local;
      for (uint64_t seq = 0; seq < ops_per_thread; seq++) {
        OpTrace::Begin("setup");
        Status st = op(clients_[t].get(), t, seq, rng);
        OpTraceData trace = OpTrace::Finish();
        latency.Record(t, trace.total_us);
        local.Add(trace);
        if (!st.ok()) errors++;
      }
      total_errors.fetch_add(errors);
      MutexLock lock(phases_mu);
      phases.Merge(local);
    });
  }
  for (auto& th : threads) th.join();

  RunResult result;
  result.ops = ops_per_thread * clients_.size();
  result.errors = total_errors.load();
  result.seconds = window.ElapsedSeconds();
  result.latency = latency.Aggregate();
  result.phases = phases;
  return result;
}

Status SetupPrivateDirs(MetadataClient* client, size_t clients) {
  for (size_t t = 0; t < clients; t++) {
    Status st = client->Mkdir(PrivateDir(t), 0755);
    if (!st.ok() && !st.IsAlreadyExists()) return st;
  }
  Status st = client->Mkdir("/shared", 0755);
  if (!st.ok() && !st.IsAlreadyExists()) return st;
  return Status::Ok();
}

Status PopulateDirectory(std::vector<MetadataClient*> clients,
                         const std::string& dir, size_t count) {
  if (clients.empty()) return Status::InvalidArgument("no clients");
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  size_t per = (count + clients.size() - 1) / clients.size();
  for (size_t t = 0; t < clients.size(); t++) {
    threads.emplace_back([&, t] {
      size_t begin = t * per;
      size_t end = std::min(count, begin + per);
      for (size_t i = begin; i < end && !failed.load(); i++) {
        Status st = clients[t]->Create(dir + "/f" + std::to_string(i), 0644);
        if (!st.ok() && !st.IsAlreadyExists()) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  return failed.load() ? Status::Internal("populate failed") : Status::Ok();
}

OpFn MakeCreateOp(double contention_rate) {
  return [contention_rate](MetadataClient* client, size_t thread, uint64_t seq,
                           Rng& rng) {
    std::string dir = TargetDir(thread, contention_rate, rng);
    return client->Create(
        dir + "/c" + std::to_string(thread) + "_" + std::to_string(seq), 0644);
  };
}

OpFn MakeUnlinkAfterCreateOp(double contention_rate) {
  // Paired create+unlink keeps a closed loop sustainable; every system pays
  // the identical create cost, so relative unlink comparisons hold.
  return [contention_rate](MetadataClient* client, size_t thread, uint64_t seq,
                           Rng& rng) {
    std::string dir = TargetDir(thread, contention_rate, rng);
    std::string path =
        dir + "/u" + std::to_string(thread) + "_" + std::to_string(seq);
    Status st = client->Create(path, 0644);
    if (!st.ok()) return st;
    return client->Unlink(path);
  };
}

OpFn MakeMkdirOp(double contention_rate) {
  return [contention_rate](MetadataClient* client, size_t thread, uint64_t seq,
                           Rng& rng) {
    std::string dir = TargetDir(thread, contention_rate, rng);
    return client->Mkdir(
        dir + "/d" + std::to_string(thread) + "_" + std::to_string(seq), 0755);
  };
}

OpFn MakeRmdirAfterMkdirOp(double contention_rate) {
  return [contention_rate](MetadataClient* client, size_t thread, uint64_t seq,
                           Rng& rng) {
    std::string dir = TargetDir(thread, contention_rate, rng);
    std::string path =
        dir + "/rd" + std::to_string(thread) + "_" + std::to_string(seq);
    Status st = client->Mkdir(path, 0755);
    if (!st.ok()) return st;
    return client->Rmdir(path);
  };
}

namespace {

OpFn MakeReadSideOp(double contention_rate, size_t files_per_dir,
                    size_t shared_files,
                    Status (*fn)(MetadataClient*, const std::string&)) {
  return [=](MetadataClient* client, size_t thread, uint64_t, Rng& rng) {
    bool shared =
        contention_rate > 0 && rng.NextDouble() < contention_rate;
    std::string dir = shared ? "/shared" : PrivateDir(thread);
    size_t population = shared ? shared_files : files_per_dir;
    std::string path =
        dir + "/f" + std::to_string(rng.Uniform(std::max<size_t>(population, 1)));
    return fn(client, path);
  };
}

}  // namespace

OpFn MakeGetAttrOp(double contention_rate, size_t files_per_dir,
                   size_t shared_files) {
  return MakeReadSideOp(contention_rate, files_per_dir, shared_files,
                        [](MetadataClient* c, const std::string& p) {
                          return c->GetAttr(p).status();
                        });
}

OpFn MakeLookupOp(double contention_rate, size_t files_per_dir,
                  size_t shared_files) {
  return MakeReadSideOp(contention_rate, files_per_dir, shared_files,
                        [](MetadataClient* c, const std::string& p) {
                          return c->Lookup(p).status();
                        });
}

OpFn MakeSetAttrOp(double contention_rate, size_t files_per_dir,
                   size_t shared_files) {
  return MakeReadSideOp(contention_rate, files_per_dir, shared_files,
                        [](MetadataClient* c, const std::string& p) {
                          SetAttrSpec spec;
                          spec.mtime = 12345;
                          return c->SetAttr(p, spec);
                        });
}

OpFn MakeReaddirOp(double contention_rate) {
  return [contention_rate](MetadataClient* client, size_t thread, uint64_t,
                           Rng& rng) {
    std::string dir = TargetDir(thread, contention_rate, rng);
    return client->ReadDir(dir).status();
  };
}

OpFn MakeRenameOp(double intra_ratio) {
  // Per-thread population of toggling rename targets under /ren/t<t>
  // (intra-directory pairs) and /ren/x<t> (cross-directory); §5.6 uses a
  // 90/10 intra/other mix. Determinism: file index cycles, the side toggles
  // with the visit count, so sources always exist after setup created the
  // "_a" side.
  constexpr uint64_t kFilesPerThread = 16;
  return [intra_ratio](MetadataClient* client, size_t thread, uint64_t seq,
                       Rng&) {
    uint64_t index = seq % kFilesPerThread;
    uint64_t visit = seq / kFilesPerThread;
    bool intra = index < static_cast<uint64_t>(intra_ratio * kFilesPerThread);
    std::string t = std::to_string(thread);
    std::string base = "r" + std::to_string(index);
    if (intra) {
      std::string dir = "/ren/t" + t;
      std::string from = dir + "/" + base + (visit % 2 == 0 ? "_a" : "_b");
      std::string to = dir + "/" + base + (visit % 2 == 0 ? "_b" : "_a");
      return client->Rename(from, to);
    }
    std::string from_dir = visit % 2 == 0 ? "/ren/t" + t : "/ren/x" + t;
    std::string to_dir = visit % 2 == 0 ? "/ren/x" + t : "/ren/t" + t;
    return client->Rename(from_dir + "/" + base + "_a",
                          to_dir + "/" + base + "_a");
  };
}

OpFn MakeLargeDirOp(MetaOp op, const std::string& dir, size_t population) {
  switch (op) {
    case MetaOp::kCreate:
      return [dir](MetadataClient* client, size_t thread, uint64_t seq, Rng&) {
        return client->Create(dir + "/n" + std::to_string(thread) + "_" +
                                  std::to_string(seq),
                              0644);
      };
    case MetaOp::kUnlink:
      return [dir](MetadataClient* client, size_t thread, uint64_t seq, Rng&) {
        std::string path =
            dir + "/u" + std::to_string(thread) + "_" + std::to_string(seq);
        Status st = client->Create(path, 0644);
        if (!st.ok()) return st;
        return client->Unlink(path);
      };
    case MetaOp::kMkdir:
      return [dir](MetadataClient* client, size_t thread, uint64_t seq, Rng&) {
        return client->Mkdir(dir + "/d" + std::to_string(thread) + "_" +
                                 std::to_string(seq),
                             0755);
      };
    case MetaOp::kRmdir:
      return [dir](MetadataClient* client, size_t thread, uint64_t seq, Rng&) {
        std::string path =
            dir + "/rd" + std::to_string(thread) + "_" + std::to_string(seq);
        Status st = client->Mkdir(path, 0755);
        if (!st.ok()) return st;
        return client->Rmdir(path);
      };
    // Read-side ops follow mdtest's shared-directory semantics: every rank
    // (thread) works on its own slice of the shared directory's files, so
    // client dentry caches warm up and the measured op is the attribute
    // access itself, not a cold path resolution per call.
    case MetaOp::kLookup:
      return [dir, population](MetadataClient* client, size_t thread,
                               uint64_t, Rng& rng) {
        size_t chunk = std::max<size_t>(population / 64, 1);
        size_t base = (thread * chunk) % population;
        return client
            ->Lookup(dir + "/f" +
                     std::to_string(base + rng.Uniform(chunk)))
            .status();
      };
    case MetaOp::kGetAttr:
      return [dir, population](MetadataClient* client, size_t thread,
                               uint64_t, Rng& rng) {
        size_t chunk = std::max<size_t>(population / 64, 1);
        size_t base = (thread * chunk) % population;
        return client
            ->GetAttr(dir + "/f" +
                      std::to_string(base + rng.Uniform(chunk)))
            .status();
      };
    case MetaOp::kSetAttr:
      return [dir, population](MetadataClient* client, size_t thread,
                               uint64_t, Rng& rng) {
        size_t chunk = std::max<size_t>(population / 64, 1);
        size_t base = (thread * chunk) % population;
        SetAttrSpec spec;
        spec.mtime = 777;
        return client->SetAttr(
            dir + "/f" + std::to_string(base + rng.Uniform(chunk)), spec);
      };
    default:
      return [](MetadataClient*, size_t, uint64_t, Rng&) {
        return Status::Unimplemented("large-dir op");
      };
  }
}

}  // namespace cfs
