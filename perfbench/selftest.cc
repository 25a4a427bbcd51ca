// Self-checks of the benchmark itself: the op generators hit their
// configured shares, the virtual-time leg replays identically from a seed
// (ops, virtual latencies and per-op layer counts), and the audit's
// namespace model and percentile helper do what the result relies on.

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "perfbench/perfbench.h"
#include "src/common/logging.h"

namespace perfbench {
namespace {

// Draws `n` ops from one client and checks each kind's share against
// `expected` (percent) within five binomial standard deviations.
void ExpectShares(Workload workload, const std::map<Op, double>& expected,
                  size_t n) {
  Layout layout;
  layout.workload = workload;
  std::shared_ptr<HotSet> hot;
  if (workload == Workload::kReadMix) hot = MakeHotSet(layout, 7);
  ClientGen gen(layout, 7, 0, hot);
  std::map<Op, size_t> counts;
  for (size_t i = 0; i < n; i++) counts[gen.Next().op]++;
  for (const auto& [op, pct] : expected) {
    const double p = pct / 100.0;
    const double sigma = std::sqrt(p * (1 - p) / static_cast<double>(n));
    const double got = static_cast<double>(counts[op]) / static_cast<double>(n);
    EXPECT_NEAR(got, p, 5 * sigma + 1e-9)
        << WorkloadName(workload) << " " << OpName(op);
  }
  // Substitutions (a mutation drawn before the client owned anything) are
  // a start-up effect only.
  EXPECT_LT(gen.substitutions(), n / 1000) << WorkloadName(workload);
}

TEST(OpMix, ReadMixMatchesTable1) {
  ExpectShares(Workload::kReadMix,
               {{Op::kGetAttr, 75.25},
                {Op::kLookup, 17.80},
                {Op::kSetAttr, 3.21},
                {Op::kCreate, 1.44},
                {Op::kUnlink, 1.14},
                {Op::kReadDir, 0.92},
                {Op::kRename, 0.12},
                {Op::kMkdir, 0.08},
                {Op::kRmdir, 0.04}},
               400000);
}

TEST(OpMix, SharedDirWrites) {
  ExpectShares(Workload::kSharedDirWrites,
               {{Op::kCreate, 40},
                {Op::kUnlink, 25},
                {Op::kMkdir, 15},
                {Op::kRmdir, 10},
                {Op::kSetAttr, 10}},
               100000);
}

TEST(OpMix, RenameMix) {
  ExpectShares(Workload::kRenameMix,
               {{Op::kRename, 90}, {Op::kRenameCross, 7}, {Op::kRenameDir, 3}},
               100000);
}

TEST(OpMix, ReadMixIsZipfSkewed) {
  Layout layout;
  std::shared_ptr<HotSet> hot = MakeHotSet(layout, 3);
  ClientGen gen(layout, 3, 0, hot);
  std::map<std::string, size_t> hits;
  size_t reads = 0;
  for (int i = 0; i < 100000; i++) {
    OpSpec spec = gen.Next();
    if (spec.op != Op::kGetAttr) continue;
    hits[spec.path]++;
    reads++;
  }
  // The hottest file alone draws several percent of the reads; a uniform
  // draw over 8192 files would give each about 0.01%.
  size_t top = 0;
  for (const auto& [path, n] : hits) top = std::max(top, n);
  EXPECT_GT(static_cast<double>(top) / static_cast<double>(reads), 0.02);
}

std::vector<SimOpRecord> RunSim(Workload workload, uint64_t seed) {
  Layout layout;
  layout.workload = workload;
  layout.clients = 32;
  layout.top_dirs = 2;
  layout.sub_dirs = 2;
  layout.files_per_leaf = 16;
  layout.rename_files = 4;
  layout.rename_subdirs = 1;
  SimLeg leg(layout, seed, 64);
  leg.Setup();
  std::vector<SimOpRecord> records;
  SimLeg::Result r = leg.Run(2, 0, 3, 3, /*record=*/true, &records);
  EXPECT_EQ(r.totals.failed, 0u);
  EXPECT_EQ(r.totals.first_error, "");
  EXPECT_EQ(leg.Audit(), "");
  return records;
}

std::string Describe(const SimOpRecord& r) {
  return std::string(OpName(r.op)) + " " + r.path + " ns=" +
         std::to_string(r.virtual_ns) + " hops=" + std::to_string(r.hops) +
         " prim=" + std::to_string(r.primitives) +
         " reads=" + std::to_string(r.reads) +
         " hits=" + std::to_string(r.cache_hits) +
         " locks=" + std::to_string(r.lock_acquisitions) +
         " renames=" + std::to_string(r.renames);
}

// "" when identical, else the first difference.
std::string FirstDifference(const std::vector<SimOpRecord>& a,
                            const std::vector<SimOpRecord>& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); i++) {
    std::string x = Describe(a[i]);
    std::string y = Describe(b[i]);
    if (x != y) return "op " + std::to_string(i) + ": " + x + " vs " + y;
  }
  if (a.size() != b.size()) {
    return "lengths " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  return "";
}

class SimReplay : public ::testing::TestWithParam<Workload> {};

TEST_P(SimReplay, SameSeedSameOpsAndCountsOtherSeedDiffers) {
  cfs::Logger::Get().set_level(cfs::LogLevel::kWarn);
  std::vector<SimOpRecord> a = RunSim(GetParam(), 11);
  std::vector<SimOpRecord> b = RunSim(GetParam(), 11);
  std::vector<SimOpRecord> c = RunSim(GetParam(), 12);
  ASSERT_GT(a.size(), 100u);
  EXPECT_EQ(FirstDifference(a, b), "");
  bool same_ops = a.size() == c.size();
  for (size_t i = 0; same_ops && i < a.size(); i++) {
    same_ops = a[i].op == c[i].op && a[i].path == c[i].path;
  }
  EXPECT_FALSE(same_ops);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SimReplay,
                         ::testing::Values(Workload::kReadMix,
                                           Workload::kSharedDirWrites,
                                           Workload::kRenameMix));

TEST(NamespaceModel, DirectoryRenameMovesSubtree) {
  NamespaceModel m;
  m.AddDir("/");
  m.AddDir("/a");
  m.AddDir("/b");
  m.AddDir("/a/g");
  m.Apply({Op::kCreate, "/a/g/x", ""});
  m.Apply({Op::kRenameDir, "/a/g", "/b/h"});
  EXPECT_EQ(m.dirs().count("/a/g"), 0u);
  EXPECT_EQ(m.dirs().at("/b/h"), std::set<std::string>{"x"});
  EXPECT_EQ(m.dirs().at("/b"), std::set<std::string>{"h"});
  EXPECT_TRUE(m.dirs().at("/a").empty());
  EXPECT_EQ(m.files(), std::set<std::string>{"/b/h/x"});
}

TEST(Percentile, NearestRankIsExact) {
  std::vector<int64_t> v;
  for (int i = 1; i <= 1000; i++) v.push_back(i * 1000 + 1);
  EXPECT_EQ(Percentile(v, 50), 500001);
  EXPECT_EQ(Percentile(v, 99), 990001);
  EXPECT_EQ(Percentile(v, 100), 1000001);
}

}  // namespace
}  // namespace perfbench
