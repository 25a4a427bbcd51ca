// Unit tests for simtime::SleepUs, the one wall-clock sleep for modelled
// delay: it lowers its thread's timer slack to 1 ns, never sleeps short,
// and each modelled-delay site (SimNet kSleep RTT, LoadGate service time,
// WAL fsync) sleeps through it.

#include <gtest/gtest.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <thread>

#include "src/common/clock.h"
#include "src/common/load_gate.h"
#include "src/common/simtime.h"
#include "src/net/simnet.h"
#include "src/wal/wal.h"

namespace cfs {
namespace {

#ifdef __linux__
// The timer slack (ns) a fresh thread has after running `fn`. The thread
// starts at Linux's 50 µs default rather than the slack it inherits from
// this one, which an earlier sleep here may have lowered; it reads 1 only
// if `fn` slept through simtime::SleepUs.
template <typename Fn>
long TimerSlackAfter(Fn fn) {
  long slack = -1;
  std::thread t([&] {
    if (prctl(PR_SET_TIMERSLACK, 50000UL) != 0) return;
    fn();
    slack = prctl(PR_GET_TIMERSLACK);
  });
  t.join();
  return slack;
}
#define SKIP_OFF_LINUX()
#else
#define SKIP_OFF_LINUX() GTEST_SKIP() << "timer slack is a Linux thread attribute"
template <typename Fn>
long TimerSlackAfter(Fn) {
  return -1;
}
#endif

TEST(SimTimeSleepTest, SleepSetsOneNanosecondSlack) {
  SKIP_OFF_LINUX();
  EXPECT_EQ(TimerSlackAfter([] {}), 50000);
  EXPECT_EQ(TimerSlackAfter([] { simtime::SleepUs(1); }), 1);
}

TEST(SimTimeSleepTest, SleepRttRoutesThroughHelper) {
  SKIP_OFF_LINUX();
  NetOptions options;
  options.mode = LatencyMode::kSleep;
  options.cross_node_rtt_us = 1;
  options.jitter_pct = 0;
  SimNet net(options);
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  EXPECT_EQ(TimerSlackAfter([&] {
              EXPECT_TRUE(net.Call(a, b, [] { return Status::Ok(); }).ok());
            }),
            1);
}

TEST(SimTimeSleepTest, LoadGateChargeRoutesThroughHelper) {
  SKIP_OFF_LINUX();
  LoadGate gate(1, 1);
  EXPECT_EQ(TimerSlackAfter([&] { gate.Charge(); }), 1);
}

TEST(SimTimeSleepTest, WalFsyncRoutesThroughHelper) {
  SKIP_OFF_LINUX();
  WalOptions options;
  options.fsync_delay_us = 1;
  Wal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  EXPECT_EQ(TimerSlackAfter([&] {
              EXPECT_TRUE(wal.Append("rec", /*sync=*/true).ok());
            }),
            1);
}

TEST(SimTimeSleepTest, SleepNeverEndsEarly) {
  for (int i = 0; i < 100; i++) {
    Stopwatch sw;
    simtime::SleepUs(50);
    EXPECT_GE(sw.ElapsedMicros(), 50);
  }
}

}  // namespace
}  // namespace cfs
