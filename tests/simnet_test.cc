// Unit tests for SimNet: delivery, latency modes, fault injection, stats,
// and FanOut rounds off a simtime::Scheduler (on one: simnet_virtual_test).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/lock_order.h"
#include "src/common/metrics.h"
#include "src/net/simnet.h"

namespace cfs {
namespace {

// One round trip with a no-op handler: delivery, latency and accounting
// only.
Status Ping(SimNet& net, NodeId from, NodeId to) {
  return net.Call(from, to, [] { return Status::Ok(); });
}

TEST(SimNetTest, CallInvokesHandler) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  int called = 0;
  Status st = net.Call(a, b, [&]() -> Status {
    called++;
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(called, 1);
  EXPECT_EQ(net.TotalCalls(), 1u);
  EXPECT_EQ(net.CallsTo(b), 1u);
  EXPECT_EQ(net.CallsTo(a), 0u);
}

TEST(SimNetTest, CallPropagatesStatusOr) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  auto result = net.Call(a, b, [&]() -> StatusOr<int> { return 42; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(SimNetTest, DownNodeUnreachable) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  net.SetNodeDown(b, true);
  Status st = net.Call(a, b, [&]() -> Status { return Status::Ok(); });
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  net.SetNodeDown(b, false);
  EXPECT_TRUE(net.Call(a, b, [&]() -> Status { return Status::Ok(); }).ok());
}

TEST(SimNetTest, PartitionIsSymmetricAndHealable) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  NodeId c = net.AddNode("c", 2);
  net.SetPartitioned(a, b, true);
  EXPECT_FALSE(Ping(net, a, b).ok());
  EXPECT_FALSE(Ping(net, b, a).ok());
  EXPECT_TRUE(Ping(net, a, c).ok());
  net.HealAll();
  EXPECT_TRUE(Ping(net, a, b).ok());
}

TEST(SimNetTest, ThreadHopCounter) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  SimNet::ResetThreadHops();
  for (int i = 0; i < 5; i++) {
    (void)net.Call(a, b, [] { return Status::Ok(); });
  }
  EXPECT_EQ(SimNet::ThreadHops(), 5u);
  SimNet::ResetThreadHops();
  EXPECT_EQ(SimNet::ThreadHops(), 0u);
}

TEST(SimNetTest, SleepModeInjectsCrossNodeLatency) {
  NetOptions options;
  options.mode = LatencyMode::kSleep;
  options.cross_node_rtt_us = 2000;
  options.same_node_rtt_us = 0;
  options.jitter_pct = 0;
  SimNet net(options);
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  NodeId a2 = net.AddNode("a2", 0);

  Stopwatch sw;
  (void)Ping(net, a, b);
  EXPECT_GE(sw.ElapsedMicros(), 2000);

  sw.Reset();
  (void)Ping(net, a, a2);  // same server: no cross-node cost
  EXPECT_LT(sw.ElapsedMicros(), 1500);
}

TEST(SimNetTest, ZeroModeIsFast) {
  SimNet net;  // default zero latency
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  Stopwatch sw;
  for (int i = 0; i < 10000; i++) {
    (void)Ping(net, a, b);
  }
  EXPECT_LT(sw.ElapsedMicros(), 1000000);
  EXPECT_EQ(net.TotalCalls(), 10000u);
}

TEST(SimNetTest, ResetStatsClearsCounters) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  (void)Ping(net, a, b);
  net.ResetStats();
  EXPECT_EQ(net.TotalCalls(), 0u);
  EXPECT_EQ(net.CallsTo(b), 0u);
  EXPECT_EQ(net.CallsBetween(a, b), 0u);
  EXPECT_EQ(net.TotalInjectedLatencyUs(), 0);
  EXPECT_TRUE(net.EdgeStats().empty());
}

TEST(SimNetTest, EdgeStatsCountPerDirectedEdge) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  NodeId c = net.AddNode("c", 2);
  for (int i = 0; i < 3; i++) (void)Ping(net, a, b);
  (void)Ping(net, b, a);
  (void)Ping(net, a, c);

  EXPECT_EQ(net.CallsBetween(a, b), 3u);
  EXPECT_EQ(net.CallsBetween(b, a), 1u);  // edges are directed
  EXPECT_EQ(net.CallsBetween(a, c), 1u);
  EXPECT_EQ(net.CallsBetween(c, a), 0u);

  auto edges = net.EdgeStats();
  EXPECT_EQ(edges.size(), 3u);
  const SimNet::EdgeStat& ab = edges[std::make_pair(a, b)];
  EXPECT_EQ(ab.calls, 3u);
  // Zero-latency mode injects nothing.
  EXPECT_EQ(ab.injected_us, 0);
  EXPECT_EQ(net.TotalInjectedLatencyUs(), 0);

  // A failed delivery is not a completed round trip: no edge bump.
  net.SetNodeDown(c, true);
  (void)Ping(net, a, c);
  EXPECT_EQ(net.CallsBetween(a, c), 1u);
}

// Every source node keeps its own edge table: hops from many threads on
// shared and distinct edges all land, and the merged views agree.
TEST(SimNetTest, EdgeStatsExactUnderConcurrentHops) {
  constexpr int kThreads = 8;
  constexpr int kHops = 2000;
  SimNet net;
  NodeId shared_from = net.AddNode("shared-from", 0);
  NodeId to = net.AddNode("to", 1);
  std::vector<NodeId> own;
  for (int t = 0; t < kThreads; t++) {
    own.push_back(net.AddNode("own" + std::to_string(t), 2));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kHops; i++) {
        (void)Ping(net, shared_from, to);
        (void)Ping(net, own[t], to);
        (void)Ping(net, own[t], shared_from);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(net.TotalCalls(), uint64_t{3} * kThreads * kHops);
  EXPECT_EQ(net.CallsTo(to), uint64_t{2} * kThreads * kHops);
  EXPECT_EQ(net.CallsBetween(shared_from, to), uint64_t{kThreads} * kHops);
  auto edges = net.EdgeStats();
  EXPECT_EQ(edges.size(), 1u + 2u * kThreads);
  uint64_t sum = 0;
  for (const auto& [edge, stat] : edges) sum += stat.calls;
  EXPECT_EQ(sum, net.TotalCalls());
  for (int t = 0; t < kThreads; t++) {
    EXPECT_EQ(net.CallsBetween(own[t], to), uint64_t{kHops});
    EXPECT_EQ(edges[std::make_pair(own[t], shared_from)].calls,
              uint64_t{kHops});
  }
}

// A detached call counts in SimNet's stats like any call, but charges
// nothing to the calling thread: no hop, no kRpc phase, none of the
// handler's phases, no RPC-under-lock audit of the locks it holds.
TEST(SimNetTest, CallDetachedChargesNothingToTheCallingThread) {
  NetOptions options;
  options.mode = LatencyMode::kSleep;
  options.cross_node_rtt_us = 1000;
  options.jitter_pct = 0;
  SimNet net(options);
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  Mutex held{"simnet_test.held", 5};
  SimNet::ResetThreadHops();
  OpTrace::ClearPhase(Phase::kRpc);
  OpTrace::ClearPhase(Phase::kWalFsync);
  uint64_t violations = lock_order::TotalRpcUnderLockViolations();
  {
    MutexLock lock(held);
    Status status = net.CallDetached(a, b, [] {
      TraceSpan span(Phase::kWalFsync);
      return Status::Ok();
    });
    EXPECT_TRUE(status.ok());
  }
  EXPECT_EQ(net.TotalCalls(), 1u);
  EXPECT_EQ(net.CallsBetween(a, b), 1u);
  EXPECT_EQ(net.TotalInjectedLatencyUs(), 1000);
  EXPECT_EQ(SimNet::ThreadHops(), 0u);
  EXPECT_EQ(OpTrace::PhaseCount(Phase::kRpc), 0u);
  EXPECT_EQ(OpTrace::PhaseCount(Phase::kWalFsync), 0u);
  EXPECT_EQ(lock_order::TotalRpcUnderLockViolations(), violations);

  // The thread's own accounts resume afterwards.
  (void)Ping(net, a, b);
  EXPECT_EQ(SimNet::ThreadHops(), 1u);
  EXPECT_EQ(OpTrace::PhaseCount(Phase::kRpc), 1u);
  OpTrace::ClearPhase(Phase::kRpc);
}

TEST(SimNetTest, SleepModeAccumulatesInjectedLatency) {
  NetOptions options;
  options.mode = LatencyMode::kSleep;
  options.cross_node_rtt_us = 1000;
  options.jitter_pct = 0;
  SimNet net(options);
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  OpTrace::ClearPhase(Phase::kRpc);
  (void)Ping(net, a, b);
  (void)Ping(net, a, b);
  EXPECT_EQ(net.TotalInjectedLatencyUs(), 2000);
  EXPECT_EQ(net.EdgeStats()[std::make_pair(a, b)].injected_us, 2000);
  // Each hop also stamps the calling thread's trace.
  EXPECT_EQ(OpTrace::PhaseUs(Phase::kRpc), 2000);
  EXPECT_EQ(OpTrace::PhaseCount(Phase::kRpc), 2u);
  OpTrace::ClearPhase(Phase::kRpc);
}

TEST(SimNetTest, RegistersMetricsProbe) {
  SimNet net;
  NodeId a = net.AddNode("alpha", 0);
  NodeId b = net.AddNode("beta", 1);
  (void)Ping(net, a, b);
  std::string json = MetricsRegistry::Global().DumpJson();
  // The probe exposes total and per-edge samples named by node.
  EXPECT_NE(json.find("\"calls.alpha->beta\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_calls\":1"), std::string::npos) << json;
}

TEST(SimNetTest, NamesAndServers) {
  SimNet net;
  NodeId a = net.AddNode("alpha", 3);
  EXPECT_EQ(net.NameOf(a), "alpha");
  EXPECT_EQ(net.ServerOf(a), 3u);
  EXPECT_EQ(net.NumNodes(), 1u);
}

// --- FanOut off a scheduler: handlers run on the worker pool ---------------

std::vector<NodeId> AddNodes(SimNet* net, size_t n) {
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < n; i++) {
    nodes.push_back(net->AddNode("d" + std::to_string(i),
                                 static_cast<uint32_t>(i + 1)));
  }
  return nodes;
}

TEST(SimNetFanOutTest, HandlersRunConcurrently) {
  SimNet net;
  NodeId from = net.AddNode("src", 0);
  std::vector<NodeId> dests = AddNodes(&net, 4);
  // Four 2 ms handlers run serially would take 8 ms. The best of three
  // rounds keeps a briefly descheduled worker from failing the test.
  int64_t best_us = INT64_MAX;
  for (int round = 0; round < 3; round++) {
    Stopwatch sw;
    auto results = net.FanOut(from, dests, [](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return Status::Ok();
    });
    best_us = std::min(best_us, sw.ElapsedMicros());
    ASSERT_EQ(results.size(), 4u);
    for (const Status& st : results) EXPECT_TRUE(st.ok());
  }
  EXPECT_LT(best_us, 6000);
  EXPECT_EQ(net.TotalCalls(), 12u);
}

TEST(SimNetFanOutTest, EachRoundInjectsOneRtt) {
  NetOptions options;
  options.mode = LatencyMode::kSleep;
  options.cross_node_rtt_us = 500;
  options.same_node_rtt_us = 0;
  options.jitter_pct = 0;
  SimNet net(options);
  NodeId from = net.AddNode("src", 0);
  std::vector<NodeId> dests = AddNodes(&net, 3);
  SimNet::ResetThreadHops();
  OpTrace::ClearPhase(Phase::kRpc);
  for (int round = 1; round <= 3; round++) {
    (void)net.FanOut(from, dests, [](size_t) { return Status::Ok(); });
    EXPECT_EQ(net.TotalInjectedLatencyUs(), round * 500);
  }
  // Every edge is counted, on the calling thread.
  EXPECT_EQ(net.TotalCalls(), 9u);
  EXPECT_EQ(SimNet::ThreadHops(), 9u);
  EXPECT_EQ(OpTrace::PhaseUs(Phase::kRpc), 1500);
  OpTrace::ClearPhase(Phase::kRpc);
}

TEST(SimNetFanOutTest, DownDestinationFailsOnlyItsSlot) {
  SimNet net;
  NodeId from = net.AddNode("src", 0);
  std::vector<NodeId> dests = AddNodes(&net, 3);
  net.SetNodeDown(dests[1], true);
  std::atomic<int> ran{0};
  auto results = net.FanOut(from, dests, [&](size_t i) -> StatusOr<size_t> {
    ran++;
    return i * 10;
  });
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0], 0u);
  EXPECT_EQ(results[1].status().code(), ErrorCode::kUnavailable);
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(*results[2], 20u);
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(net.CallsTo(dests[1]), 0u);
}

TEST(SimNetFanOutTest, NestedRoundCompletesWhilePoolIsSaturated) {
  SimNet net;
  NodeId from = net.AddNode("src", 0);
  std::vector<NodeId> outer = AddNodes(&net, 5);
  std::vector<NodeId> inner = {net.AddNode("i0", 7), net.AddNode("i1", 8),
                               net.AddNode("i2", 9)};
  // Five outer handlers occupy every pool worker and the caller: each
  // waits until all five run (bounded, so a regression fails instead of
  // hanging), then starts a nested round whose helpers can only queue.
  std::atomic<int> started{0};
  std::atomic<int> all_started{0};
  std::atomic<int> inner_ran{0};
  auto results = net.FanOut(from, outer, [&](size_t i) {
    started++;
    Stopwatch sw;
    while (started.load() < 5 && sw.ElapsedMicros() < 2000000) {
      std::this_thread::yield();
    }
    if (started.load() == 5) all_started++;
    auto nested = net.FanOut(outer[i], inner, [&](size_t) {
      inner_ran++;
      return Status::Ok();
    });
    for (const Status& st : nested) {
      if (!st.ok()) return st;
    }
    return Status::Ok();
  });
  for (const Status& st : results) EXPECT_TRUE(st.ok());
  EXPECT_EQ(all_started.load(), 5);
  EXPECT_EQ(inner_ran.load(), 15);
}

}  // namespace
}  // namespace cfs
