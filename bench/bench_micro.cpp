// Substrate micro-benchmarks (google-benchmark): the building blocks under
// every table/figure bench — encoding, CRC, KV ops, primitive
// execution, lock acquisition, SimNet dispatch (zero latency and one
// slept 150 µs round trip), and a raft commit round in zero-latency mode
// and under the wall model's modelled delays.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/encoding.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/dentry_cache.h"
#include "src/core/metadata_client.h"
#include "src/kv/kvstore.h"
#include "src/raft/raft.h"
#include "src/tafdb/primitives.h"
#include "src/txn/lock_manager.h"

namespace cfs {
namespace {

void BM_VarintRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    std::string buf;
    PutVarint64(&buf, 0x123456789aULL);
    Decoder dec(buf);
    uint64_t v = 0;
    dec.GetVarint64(&v);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_VarintRoundTrip);

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_InodeKeyEncode(benchmark::State& state) {
  InodeKey key = InodeKey::IdRecord(123456, "some-file-name.dat");
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Encode());
  }
}
BENCHMARK(BM_InodeKeyEncode);

void BM_RecordEncodeDecode(benchmark::State& state) {
  InodeRecord rec = InodeRecord::MakeDirAttr(42, 1000, 0755, 1, 2, 7);
  for (auto _ : state) {
    auto decoded = InodeRecord::DecodeValue(rec.key, rec.EncodeValue());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RecordEncodeDecode);

void BM_KvStorePutGet(benchmark::State& state) {
  KvStore kv;
  Rng rng(2);
  for (auto _ : state) {
    std::string key = "k" + std::to_string(rng.Uniform(10000));
    (void)kv.Put(key, "payload");
    benchmark::DoNotOptimize(kv.Get(key));
  }
}
BENCHMARK(BM_KvStorePutGet);

void BM_KvStoreScan100(benchmark::State& state) {
  KvStore kv;
  for (int i = 0; i < 1000; i++) {
    (void)kv.Put("scan" + std::to_string(1000 + i), "v");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv.Scan("scan1100", "scan1200"));
  }
}
BENCHMARK(BM_KvStoreScan100);

void BM_ExecutePrimitiveCreate(benchmark::State& state) {
  KvStore kv;
  PrimitiveOp bootstrap;
  bootstrap.inserts.push_back(InodeRecord::MakeDirAttr(1, 1, 0755, 0, 0));
  (void)ExecutePrimitive(bootstrap, &kv);
  uint64_t seq = 0;
  for (auto _ : state) {
    Predicate check;
    check.key = InodeKey::AttrRecord(1);
    check.kind = Predicate::Kind::kExistsWithType;
    check.type = InodeType::kDirectory;
    UpdateSpec bump;
    bump.key = InodeKey::AttrRecord(1);
    bump.children_delta = 1;
    InodeId id = ++seq;
    auto op = PrimitiveOp::InsertWithUpdate(
        InodeRecord::MakeIdRecord(1, "f" + std::to_string(id), id,
                                  InodeType::kFile),
        check, bump);
    benchmark::DoNotOptimize(ExecutePrimitive(op, &kv));
  }
}
BENCHMARK(BM_ExecutePrimitiveCreate);

void BM_PrimitiveEncodeDecode(benchmark::State& state) {
  Predicate check;
  check.key = InodeKey::AttrRecord(1);
  check.kind = Predicate::Kind::kExistsWithType;
  check.type = InodeType::kDirectory;
  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(1);
  bump.children_delta = 1;
  bump.lww.mtime = 99;
  auto op = PrimitiveOp::InsertWithUpdate(
      InodeRecord::MakeIdRecord(1, "file", 2, InodeType::kFile), check, bump);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrimitiveOp::Decode(op.Encode()));
  }
}
BENCHMARK(BM_PrimitiveEncodeDecode);

void BM_LockUncontended(benchmark::State& state) {
  LockManager lm;
  TxnId txn = 1;
  for (auto _ : state) {
    (void)lm.Lock(txn, "row", LockMode::kExclusive);
    lm.Unlock(txn, "row");
  }
}
BENCHMARK(BM_LockUncontended);

void BM_SimNetCallZeroLatency(benchmark::State& state) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Call(a, b, [] { return Status::Ok(); }));
  }
}
BENCHMARK(BM_SimNetCallZeroLatency);

// One kSleep round trip of a 150 µs cross-node RTT without jitter: the
// modelled delay plus the sleep's wakeup latency (simtime::SleepUs).
void BM_SimNetCallSleep150us(benchmark::State& state) {
  NetOptions options;
  options.mode = LatencyMode::kSleep;
  options.cross_node_rtt_us = 150;
  options.jitter_pct = 0;
  SimNet net(options);
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Call(a, b, [] { return Status::Ok(); }));
  }
}
BENCHMARK(BM_SimNetCallSleep150us)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

class CountingSm : public StateMachine {
 public:
  std::string Apply(LogIndex, std::string_view) override {
    count++;
    return "ok";
  }
  uint64_t count = 0;
};

void BM_RaftProposeCommit(benchmark::State& state) {
  SimNet net;
  RaftOptions options;
  options.election_timeout_min_ms = 50;
  options.election_timeout_max_ms = 100;
  options.heartbeat_interval_ms = 20;
  RaftGroup group(&net, "bench", {0, 1, 2},
                  [](ReplicaId) { return std::make_unique<CountingSm>(); },
                  options);
  if (!group.Start().ok() || !group.WaitForLeader().ok()) {
    state.SkipWithError("no leader");
    return;
  }
  for (auto _ : state) {
    auto result = group.Propose("command");
    if (!result.ok()) {
      state.SkipWithError("propose failed");
      break;
    }
  }
  group.Stop();
}
BENCHMARK(BM_RaftProposeCommit)->Unit(benchmark::kMicrosecond);

// The same commit under the wall model's delays: kSleep with a 150 µs
// (±10%) round trip and a 30 µs fsync per synced WAL append on every
// replica, one group shared by all threads, each proposing back to back.
// Real time per proposal per thread; items/s is proposals/s over all
// threads.
class RaftSleepBench : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    if (state.thread_index() != 0) return;
    NetOptions net_options;
    net_options.mode = LatencyMode::kSleep;
    net_ = std::make_unique<SimNet>(net_options);
    RaftOptions options;
    options.election_timeout_min_ms = 400;
    options.election_timeout_max_ms = 800;
    options.wal.fsync_delay_us = 30;
    group_ = std::make_unique<RaftGroup>(
        net_.get(), "bench-sleep", std::vector<uint32_t>{0, 1, 2},
        [](ReplicaId) { return std::make_unique<CountingSm>(); }, options);
    ready_ = group_->Start().ok() && group_->WaitForLeader().ok();
  }
  void TearDown(const benchmark::State& state) override {
    if (state.thread_index() != 0) return;
    group_.reset();
    net_.reset();
  }

 protected:
  std::unique_ptr<SimNet> net_;
  std::unique_ptr<RaftGroup> group_;
  bool ready_ = false;
};

BENCHMARK_DEFINE_F(RaftSleepBench, BM_RaftProposeCommitSleep)
(benchmark::State& state) {
  // Thread 0's SetUp is ordered before the loop's start barrier, not
  // before this function's first line.
  for (auto _ : state) {
    if (!ready_ || !group_->Propose("command").ok()) {
      state.SkipWithError("no leader or propose failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_REGISTER_F(RaftSleepBench, BM_RaftProposeCommitSleep)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime()
    ->Threads(1)
    ->Threads(4)
    ->Threads(48);

// --- dentry cache: sharded lookups vs. the old process-wide mutex map ---
//
// The resolve hot path used to take one engine-global std::mutex around a
// std::map for every cached component. Run these two at ->Threads(8) to see
// the difference: the sharded cache scales with threads, the mutex map
// serializes them.

constexpr int kCachePaths = 1024;

std::string CachePath(uint64_t i) { return "/dir/file" + std::to_string(i); }

class DentryCacheBench : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    if (state.thread_index() == 0) {
      DentryCache::Options options;
      options.capacity = 1 << 16;
      options.shards = 16;
      cache_ = std::make_unique<DentryCache>(options);
      cache_->ObserveDirEpoch(1, 1);
      for (int i = 0; i < kCachePaths; i++) {
        cache_->PutPositive(CachePath(i), 1, 100 + i, InodeType::kFile,
                            /*epoch=*/1);
      }
    }
  }
  void TearDown(const benchmark::State& state) override {
    if (state.thread_index() == 0) cache_.reset();
  }

 protected:
  std::unique_ptr<DentryCache> cache_;
};

BENCHMARK_DEFINE_F(DentryCacheBench, ShardedLookup)(benchmark::State& state) {
  Rng rng(7 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache_->Lookup(CachePath(rng.Uniform(kCachePaths)), 1));
  }
}
BENCHMARK_REGISTER_F(DentryCacheBench, ShardedLookup)->Threads(1)->Threads(8);

class MutexMapCacheBench : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    if (state.thread_index() == 0) {
      map_.clear();
      for (int i = 0; i < kCachePaths; i++) {
        map_[CachePath(i)] = {100 + i, InodeType::kFile};
      }
    }
  }

 protected:
  std::mutex mu_;
  std::map<std::string, std::pair<InodeId, InodeType>> map_;
};

BENCHMARK_DEFINE_F(MutexMapCacheBench, GlobalLockLookup)
(benchmark::State& state) {
  Rng rng(7 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    std::string path = CachePath(rng.Uniform(kCachePaths));
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(path);
    benchmark::DoNotOptimize(it);
  }
}
BENCHMARK_REGISTER_F(MutexMapCacheBench, GlobalLockLookup)
    ->Threads(1)
    ->Threads(8);

void BM_PathSplit(benchmark::State& state) {
  std::string path = "/a/bb/ccc/dddd/eeeee/file.txt";
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitPath(path));
  }
}
BENCHMARK(BM_PathSplit);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(5);
  for (auto _ : state) {
    h.Record(static_cast<int64_t>(rng.Uniform(100000)));
  }
  benchmark::DoNotOptimize(h.P99());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace
}  // namespace cfs

BENCHMARK_MAIN();
