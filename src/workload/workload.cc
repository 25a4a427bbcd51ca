#include "src/workload/workload.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/clock.h"

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

// First `seq` of the next timed loop in this process. Created
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

double ThreadExecutor::Drive(size_t clients, const Loop& loop,
                             const std::function<void(size_t, bool)>& step) {
  const bool counted = loop.ops_per_client > 0;
  std::atomic<bool> warming{!counted && loop.warmup_ms > 0};
  std::atomic<bool> running{true};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  Stopwatch window;
  for (size_t t = 0; t < clients; t++) {
    threads.emplace_back([&, t] {
      for (uint64_t n = 0; counted ? n < loop.ops_per_client
                                   : running.load(std::memory_order_relaxed);
           n++) {
        step(t, warming.load(std::memory_order_relaxed));
      }
    });
  }
  if (!counted) {
    if (loop.warmup_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(loop.warmup_ms));
      warming.store(false);
    }
    window.Reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(loop.duration_ms));
    running.store(false);
  }
  double seconds = window.ElapsedSeconds();
  for (auto& th : threads) th.join();
  return counted ? window.ElapsedSeconds() : seconds;
}

double SchedulerExecutor::Drive(size_t clients, const Loop& loop,
                                const std::function<void(size_t, bool)>& step) {
  const bool counted = loop.ops_per_client > 0;
  const int64_t start_us = sched_.now_us();
  const int64_t warmup_end_us = start_us + loop.warmup_ms * 1000;
  const int64_t deadline_us = warmup_end_us + loop.duration_ms * 1000;
  std::vector<uint64_t> left(clients, loop.ops_per_client);
  int64_t end_us = start_us;
  std::function<void(size_t)> next = [&](size_t t) {
    step(t, sched_.now_us() < warmup_end_us);
    int64_t next_us = sched_.task_now_us();
    end_us = std::max(end_us, next_us);
    if (counted ? --left[t] > 0 : next_us < deadline_us) {
      sched_.At(next_us, [&next, t] { next(t); });
    }
  };
  for (size_t t = 0; t < clients; t++) {
    sched_.At(start_us, [&next, t] { next(t); });
  }
  if (!counted) {
    sched_.RunUntil(deadline_us);
    // Tasks scheduled past the deadline reference this frame; drop them.
    (void)sched_.CancelPending();
    return static_cast<double>(loop.duration_ms) / 1000.0;
  }
  // Drain, leaving the clock where the last op completed.
  while (sched_.pending() > 0 || sched_.now_us() < end_us) {
    sched_.RunUntil(end_us);
  }
  return static_cast<double>(end_us - start_us) / 1e6;
}

double RunClients(Executor& exec, const std::vector<MetadataClient*>& clients,
                  const OpFn& op, const Loop& loop, const char* op_name,
                  SeedFn seed, const RecordFn& record) {
  const char* warmup_name = op_name != nullptr ? "warmup" : nullptr;
  std::vector<uint64_t> seqs(clients.size(),
                             loop.ops_per_client > 0 ? 0 : NextRunSeqBase());
  std::vector<Rng> rngs;
  rngs.reserve(clients.size());
  for (size_t t = 0; t < clients.size(); t++) {
    rngs.emplace_back(exec.seed() ^ seed(t));
  }
  return exec.Drive(clients.size(), loop, [&](size_t t, bool warm) {
    // One warm-up check per op, at begin: ops that start during warm-up are
    // not recorded AND carry the "warmup" trace label, so the causal-trace
    // layer and the recorded results see the same op population (fig13's
    // span-vs-accumulator cross-check filters by label).
    OpTrace::Begin(warm ? warmup_name : op_name);
    Status st = op(clients[t], t, seqs[t]++, rngs[t]);
    OpTraceData trace = OpTrace::Finish();
    if (!warm) record(t, st, trace);
  });
}

std::vector<MetadataClient*> RawClients(
    const std::vector<std::unique_ptr<MetadataClient>>& clients) {
  std::vector<MetadataClient*> raw;
  raw.reserve(clients.size());
  for (const auto& c : clients) raw.push_back(c.get());
  return raw;
}

RunResult RunClosedLoop(Executor& exec,
                        const std::vector<MetadataClient*>& clients,
                        const OpFn& op, const Loop& loop,
                        const std::string& trace_label) {
  std::vector<RunResult> per_client(clients.size());
  RunResult result;
  // Causal-trace op name: the run's label when given ("fig9.cfs.create"),
  // so retained span trees say which bench op produced them.
  result.seconds = RunClients(
      exec, clients, op, loop,
      trace_label.empty() ? "op" : trace_label.c_str(),
      [](size_t t) -> uint64_t { return 0xbadc0ffee ^ (t * 0x9e3779b9); },
      [&](size_t t, const Status& st, const OpTraceData& trace) {
        RunResult& r = per_client[t];
        r.latency.Record(trace.total_us);
        r.phases.Add(trace);
        r.ops++;
        if (!st.ok()) r.errors++;
      });
  for (const RunResult& r : per_client) {
    result.ops += r.ops;
    result.errors += r.errors;
    result.latency.Merge(r.latency);
    result.phases.Merge(r.phases);
  }
  if (!trace_label.empty()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    result.phases.PublishTo(registry, trace_label);
    registry.GetHistogram("trace." + trace_label + ".latency")
        ->Merge(result.latency);
  }
  return result;
}

Status RunPartitioned(
    Executor& exec, const std::vector<MetadataClient*>& clients, size_t items,
    const std::function<Status(MetadataClient*, size_t item, Rng&)>& fn) {
  if (clients.empty()) return Status::InvalidArgument("no clients");
  const size_t share = (items + clients.size() - 1) / clients.size();
  if (share == 0) return Status::Ok();
  std::atomic<uint64_t> failed{0};
  RunClients(
      exec, clients,
      [&](MetadataClient* client, size_t t, uint64_t seq, Rng& rng) {
        size_t item = t * share + seq;
        return item < items ? fn(client, item, rng) : Status::Ok();
      },
      Loop::Count(share), /*op_name=*/nullptr,
      [](size_t t) -> uint64_t { return 0x7ace5eed + t; },
      [&](size_t, const Status& st, const OpTraceData&) {
        if (!st.ok()) failed.fetch_add(1);
      });
  if (failed.load() == 0) return Status::Ok();
  return Status::Internal(std::to_string(failed.load()) + " of " +
                          std::to_string(items) + " ops failed");
}

Status SetupPrivateDirs(Executor& exec, MetadataClient* client,
                        size_t clients) {
  return RunPartitioned(exec, {client}, clients + 1,
                        [clients](MetadataClient* c, size_t i, Rng&) {
                          Status st = c->Mkdir(
                              i < clients ? PrivateDir(i) : "/shared", 0755);
                          return st.IsAlreadyExists() ? Status::Ok() : st;
                        });
}

Status PopulateDirectories(Executor& exec,
                           const std::vector<MetadataClient*>& clients,
                           const std::vector<std::string>& dirs, size_t count) {
  return RunPartitioned(
      exec, clients, dirs.size() * count,
      [&](MetadataClient* client, size_t i, Rng&) {
        Status st = client->Create(
            dirs[i / count] + "/f" + std::to_string(i % count), 0644);
        return st.IsAlreadyExists() ? Status::Ok() : st;
      });
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
