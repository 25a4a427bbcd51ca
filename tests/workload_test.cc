// Workload harness tests: closed-loop accounting, setup helpers, op
// factories (collision-free names, contention targeting), trace spec
// integrity, size sampling, and a short end-to-end trace replay.

#include <gtest/gtest.h>

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
    fs_->Stop();
  }

  std::vector<std::unique_ptr<MetadataClient>> Clients(size_t n) {
    std::vector<std::unique_ptr<MetadataClient>> out;
    for (size_t i = 0; i < n; i++) out.push_back(fs_->NewClient());
    return out;
  }

  std::unique_ptr<Cfs> fs_;
  std::unique_ptr<MetadataClient> setup_;
};

TEST_F(WorkloadTest, CreateOpRunsErrorFree) {
  ASSERT_TRUE(SetupPrivateDirs(setup_.get(), 4).ok());
  WorkloadRunner runner(Clients(4));
  RunResult result = runner.Run(MakeCreateOp(0.0), 300, 50);
  EXPECT_GT(result.ops, 0u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.ops_per_sec(), 0.0);
  EXPECT_GT(result.latency.count(), 0);
}

TEST_F(WorkloadTest, BackToBackCreateRunsAreErrorFree) {
  // Fig 9's shape: a peak leg, then a single-client leg on a fresh runner
  // over the same namespace, then the same runner again. Each run must
  // create new names rather than time EEXIST on the earlier runs' names.
  ASSERT_TRUE(SetupPrivateDirs(setup_.get(), 2).ok());
  WorkloadRunner peak(Clients(2));
  RunResult first = peak.Run(MakeCreateOp(0.0), 150, 0);
  WorkloadRunner light(Clients(1));
  RunResult second = light.Run(MakeCreateOp(0.0), 150, 0);
  RunResult third = light.Run(MakeCreateOp(0.0), 150, 0);
  for (const RunResult* r : {&first, &second, &third}) {
    EXPECT_GT(r->ops, 0u);
    EXPECT_EQ(r->errors, 0u);
  }
}

TEST_F(WorkloadTest, ContentionTargetsSharedDirectory) {
  ASSERT_TRUE(SetupPrivateDirs(setup_.get(), 2).ok());
  WorkloadRunner runner(Clients(2));
  RunResult result = runner.Run(MakeCreateOp(1.0), 200, 0);
  EXPECT_EQ(result.errors, 0u);
  auto shared = setup_->GetAttr("/shared");
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(static_cast<uint64_t>(shared->children), result.ops);
}

TEST_F(WorkloadTest, PairedOpsLeaveNoResidue) {
  ASSERT_TRUE(SetupPrivateDirs(setup_.get(), 2).ok());
  WorkloadRunner runner(Clients(2));
  RunResult unlinks = runner.Run(MakeUnlinkAfterCreateOp(0.0), 200, 0);
  EXPECT_EQ(unlinks.errors, 0u);
  RunResult rmdirs = runner.Run(MakeRmdirAfterMkdirOp(0.0), 200, 0);
  EXPECT_EQ(rmdirs.errors, 0u);
  for (int t = 0; t < 2; t++) {
    auto dir = setup_->GetAttr("/priv" + std::to_string(t));
    ASSERT_TRUE(dir.ok());
    EXPECT_EQ(dir->children, 0);
  }
}

TEST_F(WorkloadTest, ReadSideOpsUsePopulation) {
  ASSERT_TRUE(SetupPrivateDirs(setup_.get(), 2).ok());
  auto clients = Clients(2);
  std::vector<MetadataClient*> raw;
  for (auto& c : clients) raw.push_back(c.get());
  for (int t = 0; t < 2; t++) {
    ASSERT_TRUE(
        PopulateDirectory(raw, "/priv" + std::to_string(t), 16).ok());
  }
  WorkloadRunner runner(std::move(clients));
  RunResult result = runner.Run(MakeGetAttrOp(0.0, 16, 0), 200, 0);
  EXPECT_EQ(result.errors, 0u);
  RunResult lookups = runner.Run(MakeLookupOp(0.0, 16, 0), 200, 0);
  EXPECT_EQ(lookups.errors, 0u);
  RunResult setattrs = runner.Run(MakeSetAttrOp(0.0, 16, 0), 200, 0);
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
  WorkloadRunner runner(Clients(kThreads));
  RunResult result = runner.Run(MakeRenameOp(0.9), 300, 0);
  EXPECT_GT(result.ops, 0u);
  EXPECT_EQ(result.errors, 0u);
}

TEST_F(WorkloadTest, RunCountExecutesExactly) {
  ASSERT_TRUE(SetupPrivateDirs(setup_.get(), 3).ok());
  WorkloadRunner runner(Clients(3));
  RunResult result = runner.RunCount(MakeCreateOp(0.0), 10);
  EXPECT_EQ(result.ops, 30u);
  EXPECT_EQ(result.errors, 0u);
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

  auto populate = Clients(2);
  std::vector<MetadataClient*> raw;
  for (auto& c : populate) raw.push_back(c.get());
  ASSERT_TRUE(replayer.Prepare(setup_.get(), raw).ok());

  TraceReplayResult result = replayer.Replay(Clients(2));
  EXPECT_GT(result.fs_ops, 0u);
  EXPECT_GE(result.meta_ops, result.fs_ops);  // stat etc. decompose
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.fs_latency.P999(), 0);
}

}  // namespace
}  // namespace cfs
