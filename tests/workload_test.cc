// Workload harness tests: closed-loop accounting, setup helpers, op
// factories (collision-free names, contention targeting), trace spec
// integrity, size sampling, and a short end-to-end trace replay.

#include <gtest/gtest.h>

#include "src/common/simtime.h"
#include "src/common/trace_event.h"
#include "src/core/cfs.h"
#include "src/core/gc.h"
#include "src/workload/traces.h"
#include "src/workload/workload.h"

namespace cfs {
namespace {

CfsOptions TestCluster() {
  CfsOptions options = CfsFullOptions();
  options.num_servers = 6;
  options.tafdb.num_shards = 2;
  options.tafdb.raft.election_timeout_min_ms = 50;
  options.tafdb.raft.election_timeout_max_ms = 100;
  options.tafdb.raft.heartbeat_interval_ms = 20;
  options.filestore.num_nodes = 2;
  options.filestore.raft = options.tafdb.raft;
  options.renamer.raft = options.tafdb.raft;
  return options;
}

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<Cfs>(TestCluster());
    ASSERT_TRUE(fs_->Start().ok());
    setup_ = fs_->NewClient();
  }
  void TearDown() override {
    setup_.reset();
    owned_.clear();
    fs_->Stop();
  }

  // `n` fresh clients, owned by the fixture.
  std::vector<MetadataClient*> Clients(size_t n) {
    std::vector<MetadataClient*> out;
    for (size_t i = 0; i < n; i++) {
      owned_.push_back(fs_->NewClient());
      out.push_back(owned_.back().get());
    }
    return out;
  }

  std::unique_ptr<Cfs> fs_;
  std::unique_ptr<MetadataClient> setup_;
  std::vector<std::unique_ptr<MetadataClient>> owned_;
  ThreadExecutor threads_;
};

TEST_F(WorkloadTest, CreateOpRunsErrorFree) {
  ASSERT_TRUE(SetupPrivateDirs(threads_, setup_.get(), 4).ok());
  RunResult result = RunClosedLoop(threads_, Clients(4), MakeCreateOp(0.0),
                                   Loop::Timed(300, 50));
  EXPECT_GT(result.ops, 0u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.ops_per_sec(), 0.0);
  EXPECT_GT(result.latency.count(), 0);
}

TEST_F(WorkloadTest, BackToBackCreateRunsAreErrorFree) {
  // Fig 9's shape: a peak leg, then a single-client leg with fresh clients
  // over the same namespace, then the same client again. Each run must
  // create new names rather than time EEXIST on the earlier runs' names.
  ASSERT_TRUE(SetupPrivateDirs(threads_, setup_.get(), 2).ok());
  RunResult first = RunClosedLoop(threads_, Clients(2), MakeCreateOp(0.0),
                                  Loop::Timed(150));
  auto light = Clients(1);
  RunResult second =
      RunClosedLoop(threads_, light, MakeCreateOp(0.0), Loop::Timed(150));
  RunResult third =
      RunClosedLoop(threads_, light, MakeCreateOp(0.0), Loop::Timed(150));
  for (const RunResult* r : {&first, &second, &third}) {
    EXPECT_GT(r->ops, 0u);
    EXPECT_EQ(r->errors, 0u);
  }
}

TEST_F(WorkloadTest, ContentionTargetsSharedDirectory) {
  ASSERT_TRUE(SetupPrivateDirs(threads_, setup_.get(), 2).ok());
  RunResult result = RunClosedLoop(threads_, Clients(2), MakeCreateOp(1.0),
                                   Loop::Timed(200));
  EXPECT_EQ(result.errors, 0u);
  auto shared = setup_->GetAttr("/shared");
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(static_cast<uint64_t>(shared->children), result.ops);
}

TEST_F(WorkloadTest, PairedOpsLeaveNoResidue) {
  ASSERT_TRUE(SetupPrivateDirs(threads_, setup_.get(), 2).ok());
  auto clients = Clients(2);
  RunResult unlinks = RunClosedLoop(threads_, clients,
                                    MakeUnlinkAfterCreateOp(0.0),
                                    Loop::Timed(200));
  EXPECT_EQ(unlinks.errors, 0u);
  RunResult rmdirs = RunClosedLoop(threads_, clients,
                                   MakeRmdirAfterMkdirOp(0.0),
                                   Loop::Timed(200));
  EXPECT_EQ(rmdirs.errors, 0u);
  for (int t = 0; t < 2; t++) {
    auto dir = setup_->GetAttr("/priv" + std::to_string(t));
    ASSERT_TRUE(dir.ok());
    EXPECT_EQ(dir->children, 0);
  }
}

TEST_F(WorkloadTest, ReadSideOpsUsePopulation) {
  ASSERT_TRUE(SetupPrivateDirs(threads_, setup_.get(), 2).ok());
  auto clients = Clients(2);
  ASSERT_TRUE(
      PopulateDirectories(threads_, clients, {"/priv0", "/priv1"}, 16).ok());
  RunResult result = RunClosedLoop(threads_, clients,
                                   MakeGetAttrOp(0.0, 16, 0), Loop::Timed(200));
  EXPECT_EQ(result.errors, 0u);
  RunResult lookups = RunClosedLoop(threads_, clients, MakeLookupOp(0.0, 16, 0),
                                    Loop::Timed(200));
  EXPECT_EQ(lookups.errors, 0u);
  RunResult setattrs = RunClosedLoop(
      threads_, clients, MakeSetAttrOp(0.0, 16, 0), Loop::Timed(200));
  EXPECT_EQ(setattrs.errors, 0u);
}

TEST_F(WorkloadTest, RenameOpTogglesWithoutErrors) {
  ASSERT_TRUE(setup_->Mkdir("/ren", 0755).ok());
  constexpr int kThreads = 2;
  for (int t = 0; t < kThreads; t++) {
    ASSERT_TRUE(setup_->Mkdir("/ren/t" + std::to_string(t), 0755).ok());
    ASSERT_TRUE(setup_->Mkdir("/ren/x" + std::to_string(t), 0755).ok());
    for (int i = 0; i < 16; i++) {
      ASSERT_TRUE(setup_
                      ->Create("/ren/t" + std::to_string(t) + "/r" +
                                   std::to_string(i) + "_a",
                               0644)
                      .ok());
    }
  }
  RunResult result = RunClosedLoop(threads_, Clients(kThreads),
                                   MakeRenameOp(0.9), Loop::Timed(300));
  EXPECT_GT(result.ops, 0u);
  EXPECT_EQ(result.errors, 0u);
}

TEST_F(WorkloadTest, RunCountExecutesExactly) {
  ASSERT_TRUE(SetupPrivateDirs(threads_, setup_.get(), 3).ok());
  RunResult result =
      RunClosedLoop(threads_, Clients(3), MakeCreateOp(0.0), Loop::Count(10));
  EXPECT_EQ(result.ops, 30u);
  EXPECT_EQ(result.errors, 0u);
}

// Both executors run the same client body: ops that start during warm-up
// are traced as "warmup" and not recorded, every other op is traced under
// the run label and recorded, and a count loop runs exactly its count. The
// op touches no client; it charges 300 us of modelled delay (a real sleep
// on a thread, virtual time on a scheduler).
TEST(ClosedLoopTest, WarmupOpsAreExcludedAndLabelledOnBothExecutors) {
  ThreadExecutor threads;
  SchedulerExecutor scheduler(9);
  const OpFn op = [](MetadataClient*, size_t, uint64_t, Rng&) {
    simtime::AdvanceOrSleepUs(300);
    return Status::Ok();
  };
  trace::TraceCollector& collector = trace::TraceCollector::Global();
  for (Executor* exec :
       std::initializer_list<Executor*>{&threads, &scheduler}) {
    trace::TraceOptions options;
    options.enabled = true;
    options.sample_every = 1;
    options.slow_op_threshold_us = 0;
    options.max_retained_ops = 1 << 20;
    collector.Reset();
    collector.Configure(options);

    const std::vector<MetadataClient*> clients(3, nullptr);
    RunResult result =
        RunClosedLoop(*exec, clients, op, Loop::Timed(30, 10), "loop_test");

    trace::TraceOptions off;
    off.enabled = false;
    collector.Configure(off);
    uint64_t labelled = 0, warmup = 0, other = 0;
    for (const trace::OpRecord& rec : collector.SnapshotRetained()) {
      if (rec.name == "loop_test") {
        labelled++;
      } else if (rec.name == "warmup") {
        warmup++;
      } else {
        other++;
      }
    }
    collector.Reset();
    EXPECT_GT(result.ops, 0u);
    EXPECT_EQ(labelled, result.ops);
    EXPECT_EQ(static_cast<uint64_t>(result.latency.count()), result.ops);
    EXPECT_GT(warmup, 0u);
    EXPECT_EQ(other, 0u);

    RunResult counted = RunClosedLoop(*exec, clients, op, Loop::Count(7));
    EXPECT_EQ(counted.ops, 21u);
    EXPECT_EQ(counted.errors, 0u);
  }
}

TEST(TraceSpecTest, MixesSumToRoughly100) {
  for (const auto& spec : AllTraces()) {
    double total = 0;
    for (const auto& [op, pct] : spec.mix) total += pct;
    EXPECT_NEAR(total, 100.0, 0.5) << spec.name;
    EXPECT_FALSE(spec.file_size_cdf.empty());
    EXPECT_NEAR(spec.file_size_cdf.back().second, 1.0, 1e-9);
    EXPECT_NEAR(spec.io_size_cdf.back().second, 1.0, 1e-9);
  }
}

TEST(TraceSpecTest, SampleSizeMatchesAnchors) {
  // Fig 14 anchors: fraction of files <= 32KB per trace.
  struct Anchor {
    TraceSpec spec;
    double at_32k;
  };
  std::vector<Anchor> anchors = {{TraceTr0(), 0.7527},
                                 {TraceTr1(), 0.9134},
                                 {TraceTr2(), 0.8751}};
  for (auto& [spec, expected] : anchors) {
    Rng rng(42);
    int below = 0;
    constexpr int kSamples = 20000;
    for (int i = 0; i < kSamples; i++) {
      if (SampleSize(spec.file_size_cdf, rng) <= (32u << 10)) below++;
    }
    EXPECT_NEAR(below / static_cast<double>(kSamples), expected, 0.02)
        << spec.name;
    EXPECT_NEAR(CdfAt(spec.file_size_cdf, 32 << 10), expected, 1e-9);
  }
}

TEST(TraceSpecTest, Table1SharesMatchPaper) {
  auto shares = Table1OpShares();
  double total = 0;
  double getattr = 0;
  for (const auto& s : shares) {
    total += s.ratio;
    if (s.op == "getattr") getattr = s.ratio;
  }
  EXPECT_NEAR(total, 100.0, 0.5);
  EXPECT_NEAR(getattr, 75.25, 1e-9);  // the dominant op driving tiering
}

TEST_F(WorkloadTest, TraceReplayEndToEnd) {
  TraceReplayConfig config;
  config.num_dirs = 2;
  config.files_per_dir = 8;
  config.duration_ms = 300;
  config.warmup_ms = 0;
  TraceReplayer replayer(TraceTr1(), config);

  ASSERT_TRUE(replayer.Prepare(threads_, setup_.get(), Clients(2)).ok());

  TraceReplayResult result = replayer.Replay(threads_, Clients(2));
  EXPECT_GT(result.fs_ops, 0u);
  EXPECT_GE(result.meta_ops, result.fs_ops);  // stat etc. decompose
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.fs_latency.P999(), 0);
}

}  // namespace
}  // namespace cfs
