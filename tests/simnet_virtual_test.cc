// Virtual-time simulation tests (DESIGN.md §11): the simtime::Scheduler's
// ordering and clock rules, LatencyMode::kVirtual latency accrual, seeded
// determinism end to end (same seed, same trace, bit for bit), and the
// regression that sim-mode trace spans carry VIRTUAL timestamps.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/simtime.h"
#include "src/common/trace_event.h"
#include "src/core/cfs.h"
#include "src/net/simnet.h"
#include "src/workload/workload.h"

namespace cfs {
namespace {

// ---------------------------------------------------------------------------
// Scheduler mechanics.

TEST(SimTimeScheduler, DispatchesInTimeOrderWithFifoTies) {
  simtime::Scheduler sched(1);
  std::vector<int> order;
  sched.At(5, [&] { order.push_back(1); });
  sched.At(3, [&] { order.push_back(0); });
  sched.At(5, [&] { order.push_back(2); });  // same slot: after the first 5
  sched.RunUntil(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sched.now_us(), 10);
  EXPECT_EQ(sched.events_run(), 3u);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(SimTimeScheduler, ClockIsMonotonicUnderConcurrentScheduling) {
  simtime::Scheduler sched(2);
  std::vector<int64_t> stamps;
  // Each event reschedules two more at pseudo-random offsets — including
  // attempts to schedule into the past, which must clamp to "now".
  std::function<void(int)> tick = [&](int depth) {
    stamps.push_back(sched.now_us());
    if (depth >= 6) return;
    int64_t fwd = static_cast<int64_t>(sched.NextRand() % 97);
    sched.After(fwd, [&tick, depth] { tick(depth + 1); });
    sched.At(sched.now_us() - 50, [&tick, depth] { tick(depth + 1); });
  };
  sched.At(0, [&tick] { tick(0); });
  sched.RunUntil(1000000);
  ASSERT_GT(stamps.size(), 10u);
  for (size_t i = 1; i < stamps.size(); i++) {
    EXPECT_GE(stamps[i], stamps[i - 1]) << "virtual clock went backwards";
  }
}

TEST(SimTimeScheduler, AccrualFeedsTaskClockAndResetsPerEvent) {
  simtime::Scheduler sched(3);
  int64_t during = -1, next_dispatch = -1, next_task = -1;
  sched.At(10, [&] {
    sched.AdvanceUs(100);
    sched.AdvanceUs(-5);  // non-positive delays are ignored
    during = sched.task_now_us();
    sched.After(7, [&] {
      next_dispatch = sched.now_us();
      next_task = sched.task_now_us();  // fresh event: no leftover accrual
    });
  });
  sched.RunUntil(1000);
  EXPECT_EQ(during, 110);
  EXPECT_EQ(next_dispatch, 117);
  EXPECT_EQ(next_task, 117);
}

TEST(SimTimeScheduler, CancelPendingDropsQueuedEvents) {
  simtime::Scheduler sched(4);
  int ran = 0;
  sched.At(1, [&] { ran++; });
  sched.At(2, [&] { ran++; });
  EXPECT_EQ(sched.CancelPending(), 2u);
  sched.RunUntil(10);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sched.now_us(), 10);
}

TEST(SimTimeScheduler, SeededStreamReplaysIdentically) {
  simtime::Scheduler a(99), b(99), c(100);
  bool any_diff = false;
  for (int i = 0; i < 64; i++) {
    uint64_t ra = a.NextRand();
    EXPECT_EQ(ra, b.NextRand());
    if (ra != c.NextRand()) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "different seeds produced the same stream";
}

TEST(SimTimeScheduler, NowNanosOrRealUsesTaskClockUnderScheduler) {
  simtime::Scheduler sched(5);
  int64_t nanos = -1;
  sched.At(10, [&] {
    EXPECT_EQ(simtime::Current(), &sched);
    sched.AdvanceUs(5);
    nanos = simtime::NowNanosOrReal();
  });
  sched.RunUntil(100);
  EXPECT_EQ(nanos, 15 * 1000);
  EXPECT_EQ(simtime::Current(), nullptr);
  // Off-scheduler: a real steady-clock read, far past any virtual value.
  EXPECT_GT(simtime::NowNanosOrReal(), 1000 * 1000);
}

// ---------------------------------------------------------------------------
// SimNet in LatencyMode::kVirtual.

// One round trip with a no-op handler: delivery, latency and accounting
// only.
Status Ping(SimNet& net, NodeId from, NodeId to) {
  return net.Call(from, to, [] { return Status::Ok(); });
}

NetOptions VirtualNet(int64_t rtt_us, int64_t jitter_pct) {
  NetOptions options;
  options.mode = LatencyMode::kVirtual;
  options.cross_node_rtt_us = rtt_us;
  options.same_node_rtt_us = 0;
  options.jitter_pct = jitter_pct;
  return options;
}

TEST(SimNetVirtual, AdvancesTaskClockInsteadOfSleeping) {
  SimNet net(VirtualNet(1000, 0));
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  simtime::Scheduler sched(7);
  int64_t observed = -1;
  sched.At(0, [&] {
    EXPECT_TRUE(Ping(net, a, b).ok());
    EXPECT_TRUE(Ping(net, a, b).ok());
    observed = sched.task_now_us();
  });
  Stopwatch sw;
  sched.RunUntil(10);
  EXPECT_LT(sw.ElapsedMicros(), 500000) << "virtual mode must not sleep";
  EXPECT_EQ(observed, 2000);
  EXPECT_EQ(net.TotalInjectedLatencyUs(), 2000);
}

TEST(SimNetVirtual, NoSchedulerMeansNoCharge) {
  SimNet net(VirtualNet(1000, 0));
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  ASSERT_EQ(simtime::Current(), nullptr);
  Stopwatch sw;
  EXPECT_TRUE(Ping(net, a, b).ok());  // setup/population thread
  EXPECT_LT(sw.ElapsedMicros(), 500000);
  EXPECT_EQ(net.TotalInjectedLatencyUs(), 0);
}

TEST(SimNetVirtual, JitterComesFromSchedulerSeed) {
  auto total_for = [](uint64_t seed) {
    SimNet net(VirtualNet(1000, 10));
    NodeId a = net.AddNode("a", 0);
    NodeId b = net.AddNode("b", 1);
    simtime::Scheduler sched(seed);
    sched.At(0, [&] {
      for (int i = 0; i < 16; i++) (void)Ping(net, a, b);
    });
    sched.RunUntil(1);
    return net.TotalInjectedLatencyUs();
  };
  EXPECT_EQ(total_for(42), total_for(42));
  EXPECT_NE(total_for(42), total_for(43));
}

TEST(SimNetVirtual, FanOutChargesOneRoundAndSkipsDownNodes) {
  SimNet net(VirtualNet(1000, 10));
  NodeId from = net.AddNode("sender", 0);
  std::vector<NodeId> to = {net.AddNode("r0", 1), net.AddNode("r1", 2),
                            net.AddNode("r2", 3)};
  net.SetNodeDown(to[1], true);
  simtime::Scheduler sched(11);
  std::vector<Status> results;
  int64_t elapsed = -1;
  uint64_t hops = 0;
  std::vector<size_t> reached;
  sched.At(0, [&] {
    SimNet::ResetThreadHops();
    results = net.FanOut(from, to, [&](size_t i) {
      reached.push_back(i);
      return Status::Ok();
    });
    elapsed = sched.task_now_us();
    hops = SimNet::ThreadHops();
  });
  sched.RunUntil(1);

  // One concurrent round costs exactly what one call draws from the same
  // seed: a single jittered RTT, charged once.
  SimNet single(VirtualNet(1000, 10));
  NodeId a = single.AddNode("a", 0);
  NodeId b = single.AddNode("b", 1);
  simtime::Scheduler same_seed(11);
  int64_t one_rtt = -1;
  same_seed.At(0, [&] {
    EXPECT_TRUE(Ping(single, a, b).ok());
    one_rtt = same_seed.task_now_us();
  });
  same_seed.RunUntil(1);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(reached, (std::vector<size_t>{0, 2}));
  EXPECT_GT(one_rtt, 0);
  EXPECT_EQ(elapsed, one_rtt);
  EXPECT_EQ(net.TotalInjectedLatencyUs(), one_rtt);
  EXPECT_EQ(net.CallsTo(to[0]), 1u);
  EXPECT_EQ(net.CallsTo(to[1]), 0u);
  EXPECT_EQ(net.CallsTo(to[2]), 1u);
  EXPECT_EQ(hops, 2u);
}

// On a scheduler a round runs its handlers on the scheduler's thread, one
// after another in slot order, so handlers that draw from the seeded stream
// (here: nested calls with jitter) replay identically from the same seed.
TEST(SimNetVirtual, FanOutOnSchedulerIsSerialInOrderAndReplays) {
  auto run = [](uint64_t seed) {
    SimNet net(VirtualNet(1000, 10));
    NodeId from = net.AddNode("sender", 0);
    std::vector<NodeId> to = {net.AddNode("r0", 1), net.AddNode("r1", 2),
                              net.AddNode("r2", 3), net.AddNode("r3", 4)};
    NodeId leaf = net.AddNode("leaf", 5);
    simtime::Scheduler sched(seed);
    std::string log;
    for (int task = 0; task < 3; task++) {
      sched.At(task, [&, task] {
        const std::thread::id self = std::this_thread::get_id();
        (void)net.FanOut(from, to, [&](size_t i) {
          EXPECT_EQ(std::this_thread::get_id(), self);
          (void)Ping(net, to[i], leaf);
          log += std::to_string(task) + "." + std::to_string(i) + "@" +
                 std::to_string(sched.task_now_us()) + " ";
          return Status::Ok();
        });
      });
    }
    sched.RunUntil(100000);
    return log;
  };
  const std::string first = run(5);
  size_t at = 0;
  for (int task = 0; task < 3; task++) {
    for (int i = 0; i < 4; i++) {
      std::string slot = std::to_string(task) + "." + std::to_string(i) + "@";
      size_t next = first.find(slot, at);
      ASSERT_NE(next, std::string::npos) << slot << " out of order: " << first;
      at = next;
    }
  }
  EXPECT_EQ(first, run(5));
  EXPECT_NE(first, run(6));
}

// ---------------------------------------------------------------------------
// End to end: a small full-CFS cluster in sim mode.

constexpr size_t kSimClients = 32;
constexpr int64_t kSimDurationMs = 20;
constexpr int64_t kSimWarmupMs = 5;

CfsOptions SimCluster(uint64_t seed) {
  CfsOptions options = CfsFullOptions();
  options.num_servers = 4;
  options.tafdb.num_shards = 2;
  options.tafdb.range_stripe_width = 4;
  options.filestore.num_nodes = 2;
  options.net.mode = LatencyMode::kVirtual;
  options.net.seed = seed;
  options.net.cross_node_rtt_us = 150;
  options.net.same_node_rtt_us = 5;
  options.net.jitter_pct = 10;
  options.tafdb.raft.inline_replication = true;
  options.filestore.raft.inline_replication = true;
  options.renamer.raft.inline_replication = true;
  options.start_gc = false;
  return options;
}

RunResult RunSimOnce(uint64_t seed) {
  Cfs fs(SimCluster(seed));
  EXPECT_TRUE(fs.Start().ok());
  {
    auto setup = fs.NewClient();
    ThreadExecutor threads;  // off the scheduler: setup charges nothing
    EXPECT_TRUE(SetupPrivateDirs(threads, setup.get(), kSimClients).ok());
  }
  RunResult result;
  {
    std::vector<std::unique_ptr<MetadataClient>> clients;
    for (size_t i = 0; i < kSimClients; i++) clients.push_back(fs.NewClient());
    SchedulerExecutor exec(seed);
    result = RunClosedLoop(exec, RawClients(clients), MakeCreateOp(0.0),
                           Loop::Timed(kSimDurationMs, kSimWarmupMs));
  }
  fs.Stop();
  return result;
}

TEST(SimNetVirtual, SameSeedReplaysIdenticalRun) {
  RunResult first = RunSimOnce(1234);
  RunResult second = RunSimOnce(1234);
  ASSERT_GT(first.ops, 0u);
  EXPECT_EQ(first.ops, second.ops);
  EXPECT_EQ(first.errors, second.errors);
  EXPECT_EQ(first.latency.count(), second.latency.count());
  EXPECT_DOUBLE_EQ(first.latency.mean(), second.latency.mean());
  EXPECT_EQ(first.latency.P50(), second.latency.P50());
  EXPECT_EQ(first.latency.P99(), second.latency.P99());
  EXPECT_EQ(first.latency.P999(), second.latency.P999());
  EXPECT_EQ(first.latency.max(), second.latency.max());
  EXPECT_EQ(first.latency.Summary(), second.latency.Summary());
}

TEST(SimNetVirtual, SimModeSpansCarryVirtualTimestamps) {
  trace::TraceCollector& collector = trace::TraceCollector::Global();
  trace::TraceOptions options;
  options.enabled = true;
  options.sample_every = 1;     // retain every op
  options.slow_op_threshold_us = 0;
  collector.Reset();
  collector.Configure(options);

  RunResult result = RunSimOnce(77);
  ASSERT_GT(result.ops, 0u);

  trace::TraceOptions off;
  off.enabled = false;
  collector.Configure(off);
  std::vector<trace::OpRecord> retained = collector.SnapshotRetained();
  collector.Reset();

  ASSERT_FALSE(retained.empty());
  // Virtual time starts at 0 and the run measures kSimDurationMs of it; a
  // task dispatched near the deadline can accrue a little past it. A real
  // steady-clock stamp (process uptime, well past seconds by the time a
  // test binary runs) would be orders of magnitude larger.
  const int64_t limit_us = kSimDurationMs * 1000 + 100000;
  for (const trace::OpRecord& op : retained) {
    ASSERT_FALSE(op.events.empty());
    for (const trace::Event& ev : op.events) {
      EXPECT_GE(ev.ts_us, 0);
      EXPECT_LE(ev.end_us(), limit_us)
          << "span '" << ev.name << "' stamped with wall clock?";
    }
  }
}

}  // namespace
}  // namespace cfs
