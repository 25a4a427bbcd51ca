// End-to-end tests of the assembled CFS system: every metadata operation,
// POSIX error semantics, rename fast/normal paths, orphan-loop rejection,
// client cache behaviour, concurrency, and crash-window garbage collection.
//
// The operation suite runs against all four Fig 13 configurations
// (CFS-base, +new-org, +primitives, full CFS) via TEST_P, so the lock-based
// and primitive-based execution paths are held to identical semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/core/cfs.h"
#include "src/core/gc.h"

namespace cfs {
namespace {

CfsOptions SmallCluster(CfsOptions options) {
  options.num_servers = 6;
  options.num_proxies = 2;
  options.tafdb.num_shards = 2;
  options.tafdb.range_stripe_width = 4;
  options.tafdb.raft.election_timeout_min_ms = 50;
  options.tafdb.raft.election_timeout_max_ms = 100;
  options.tafdb.raft.heartbeat_interval_ms = 20;
  options.filestore.num_nodes = 2;
  options.filestore.raft = options.tafdb.raft;
  options.renamer.raft = options.tafdb.raft;
  options.gc_interval_ms = 50;
  options.gc_grace_ms = 100;
  // Freeze time-based cache revalidation: coherence in these tests must
  // come from epoch bumps and invalidation broadcasts, not from TTLs
  // happening to expire on a slow CI machine.
  options.dentry_epoch_ttl_ms = 600000;
  return options;
}

struct Variant {
  const char* name;
  CfsOptions (*make)();
};

constexpr Variant kVariants[] = {
    {"CfsBase", CfsBaseOptions},
    {"NewOrg", CfsNewOrgOptions},
    {"Primitives", CfsPrimitivesOptions},
    {"FullCfs", CfsFullOptions},
};

class CfsVariantTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<Cfs>(SmallCluster(kVariants[GetParam()].make()));
    ASSERT_TRUE(fs_->Start().ok());
    client_ = fs_->NewClient();
  }

  void TearDown() override {
    client_.reset();
    fs_->Stop();
  }

  std::unique_ptr<Cfs> fs_;
  std::unique_ptr<MetadataClient> client_;
};

TEST_P(CfsVariantTest, MkdirCreateLookupGetattr) {
  ASSERT_TRUE(client_->Mkdir("/dir", 0755).ok());
  ASSERT_TRUE(client_->Create("/dir/file", 0644).ok());

  auto dir = client_->GetAttr("/dir");
  ASSERT_TRUE(dir.ok());
  EXPECT_TRUE(dir->IsDirectory());
  EXPECT_EQ(dir->children, 1);
  EXPECT_EQ(dir->mode, 0755u);

  auto file = client_->GetAttr("/dir/file");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->type, InodeType::kFile);
  EXPECT_EQ(file->mode, 0644u);
  EXPECT_EQ(file->links, 1);
  EXPECT_EQ(file->size, 0);

  auto looked = client_->Lookup("/dir/file");
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(looked->id, file->id);

  auto root = client_->GetAttr("/");
  ASSERT_TRUE(root.ok());
  EXPECT_GE(root->children, 1);
}

TEST_P(CfsVariantTest, CreateProducesExpectedSpanPhases) {
  ASSERT_TRUE(client_->Mkdir("/spans", 0755).ok());

  OpTrace::Begin();
  ASSERT_TRUE(client_->Create("/spans/file", 0644).ok());
  OpTraceData trace = OpTrace::Finish();

  // Every create resolves its parent and executes on at least one shard.
  // (Tests run with zero injected latency, so assert phase *counts*, not
  // durations.)
  EXPECT_GT(trace.PhaseCount(Phase::kResolve), 0u);
  EXPECT_GT(trace.PhaseCount(Phase::kShardExec), 0u);
  EXPECT_GT(trace.PhaseCount(Phase::kRpc), 0u);
  if (fs_->options().primitives) {
    // The primitive path never takes row locks: no lock phase at all.
    EXPECT_EQ(trace.PhaseCount(Phase::kLockWait), 0u);
  } else {
    // The conventional path brackets lock acquire/release RPCs.
    EXPECT_GT(trace.PhaseCount(Phase::kLockWait), 0u);
  }
}

TEST_P(CfsVariantTest, PosixErrorSemantics) {
  ASSERT_TRUE(client_->Mkdir("/d", 0755).ok());
  ASSERT_TRUE(client_->Create("/d/f", 0644).ok());

  // EEXIST
  EXPECT_TRUE(client_->Mkdir("/d", 0755).IsAlreadyExists());
  EXPECT_TRUE(client_->Create("/d/f", 0644).IsAlreadyExists());
  // ENOENT
  EXPECT_TRUE(client_->Create("/missing/x", 0644).IsNotFound());
  EXPECT_TRUE(client_->GetAttr("/d/missing").status().IsNotFound());
  EXPECT_TRUE(client_->Unlink("/d/missing").IsNotFound());
  EXPECT_TRUE(client_->Rmdir("/missing").IsNotFound());
  // ENOTDIR: path component is a file
  EXPECT_EQ(client_->Create("/d/f/sub", 0644).code(),
            ErrorCode::kNotADirectory);
  EXPECT_EQ(client_->Rmdir("/d/f").code(), ErrorCode::kNotADirectory);
  // EISDIR
  EXPECT_EQ(client_->Unlink("/d").code(), ErrorCode::kIsADirectory);
  // ENOTEMPTY
  EXPECT_EQ(client_->Rmdir("/d").code(), ErrorCode::kNotEmpty);

  ASSERT_TRUE(client_->Unlink("/d/f").ok());
  EXPECT_TRUE(client_->Rmdir("/d").ok());
  EXPECT_TRUE(client_->GetAttr("/d").status().IsNotFound());
}

TEST_P(CfsVariantTest, UnlinkDecrementsParentAndRemovesAttr) {
  ASSERT_TRUE(client_->Mkdir("/u", 0755).ok());
  ASSERT_TRUE(client_->Create("/u/a", 0644).ok());
  ASSERT_TRUE(client_->Create("/u/b", 0644).ok());
  auto before = client_->GetAttr("/u");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->children, 2);

  ASSERT_TRUE(client_->Unlink("/u/a").ok());
  auto after = client_->GetAttr("/u");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->children, 1);
  EXPECT_TRUE(client_->GetAttr("/u/a").status().IsNotFound());

  // The attribute record must eventually disappear from its tier.
  fs_->filestore()->DrainAsync();
}

TEST_P(CfsVariantTest, SetAttrChmodChownTruncate) {
  ASSERT_TRUE(client_->Create("/file", 0644).ok());
  SetAttrSpec spec;
  spec.mode = 0600;
  spec.uid = 7;
  spec.gid = 8;
  ASSERT_TRUE(client_->SetAttr("/file", spec).ok());
  auto info = client_->GetAttr("/file");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->mode, 0600u);
  EXPECT_EQ(info->uid, 7u);
  EXPECT_EQ(info->gid, 8u);

  SetAttrSpec trunc;
  trunc.size = 0;
  ASSERT_TRUE(client_->SetAttr("/file", trunc).ok());
  // Directory setattr goes to TafDB in every variant.
  ASSERT_TRUE(client_->Mkdir("/sd", 0700).ok());
  SetAttrSpec dmode;
  dmode.mode = 0711;
  ASSERT_TRUE(client_->SetAttr("/sd", dmode).ok());
  auto dinfo = client_->GetAttr("/sd");
  ASSERT_TRUE(dinfo.ok());
  EXPECT_EQ(dinfo->mode, 0711u);
}

TEST_P(CfsVariantTest, ReadDirListsSorted) {
  ASSERT_TRUE(client_->Mkdir("/list", 0755).ok());
  for (const char* name : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(client_->Create(std::string("/list/") + name, 0644).ok());
  }
  ASSERT_TRUE(client_->Mkdir("/list/subdir", 0755).ok());
  auto entries = client_->ReadDir("/list");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 4u);
  EXPECT_EQ((*entries)[0].name, "alpha");
  EXPECT_EQ((*entries)[1].name, "mid");
  EXPECT_EQ((*entries)[2].name, "subdir");
  EXPECT_EQ((*entries)[2].type, InodeType::kDirectory);
  EXPECT_EQ((*entries)[3].name, "zeta");
  // readdir on a file is ENOTDIR.
  EXPECT_EQ(client_->ReadDir("/list/alpha").status().code(),
            ErrorCode::kNotADirectory);
}

TEST_P(CfsVariantTest, DeepPathsResolve) {
  std::string path;
  for (int depth = 0; depth < 8; depth++) {
    path += "/d" + std::to_string(depth);
    ASSERT_TRUE(client_->Mkdir(path, 0755).ok()) << path;
  }
  ASSERT_TRUE(client_->Create(path + "/leaf", 0644).ok());
  auto info = client_->GetAttr(path + "/leaf");
  ASSERT_TRUE(info.ok());
  // A second client with a cold cache resolves the same path.
  auto other = fs_->NewClient();
  auto other_info = other->GetAttr(path + "/leaf");
  ASSERT_TRUE(other_info.ok());
  EXPECT_EQ(other_info->id, info->id);
}

TEST_P(CfsVariantTest, RenameIntraDirFile) {
  ASSERT_TRUE(client_->Mkdir("/r", 0755).ok());
  ASSERT_TRUE(client_->Create("/r/old", 0644).ok());
  auto old_info = client_->GetAttr("/r/old");
  ASSERT_TRUE(old_info.ok());

  ASSERT_TRUE(client_->Rename("/r/old", "/r/new").ok());
  EXPECT_TRUE(client_->GetAttr("/r/old").status().IsNotFound());
  auto new_info = client_->GetAttr("/r/new");
  ASSERT_TRUE(new_info.ok());
  EXPECT_EQ(new_info->id, old_info->id);
  auto parent = client_->GetAttr("/r");
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(parent->children, 1);
}

TEST_P(CfsVariantTest, RenameOverwritesExistingFile) {
  ASSERT_TRUE(client_->Mkdir("/r2", 0755).ok());
  ASSERT_TRUE(client_->Create("/r2/src", 0644).ok());
  ASSERT_TRUE(client_->Create("/r2/dst", 0644).ok());
  auto src_info = client_->GetAttr("/r2/src");
  ASSERT_TRUE(src_info.ok());

  ASSERT_TRUE(client_->Rename("/r2/src", "/r2/dst").ok());
  auto parent = client_->GetAttr("/r2");
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(parent->children, 1);
  auto dst = client_->GetAttr("/r2/dst");
  ASSERT_TRUE(dst.ok());
  EXPECT_EQ(dst->id, src_info->id);
  fs_->filestore()->DrainAsync();
}

TEST_P(CfsVariantTest, RenameCrossDirectory) {
  ASSERT_TRUE(client_->Mkdir("/a", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/b", 0755).ok());
  ASSERT_TRUE(client_->Create("/a/f", 0644).ok());
  ASSERT_TRUE(client_->Rename("/a/f", "/b/g").ok());
  EXPECT_TRUE(client_->GetAttr("/a/f").status().IsNotFound());
  EXPECT_TRUE(client_->GetAttr("/b/g").ok());
  auto a = client_->GetAttr("/a");
  auto b = client_->GetAttr("/b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->children, 0);
  EXPECT_EQ(b->children, 1);
}

TEST_P(CfsVariantTest, RenameDirectoryMove) {
  ASSERT_TRUE(client_->Mkdir("/p1", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/p2", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/p1/child", 0755).ok());
  ASSERT_TRUE(client_->Create("/p1/child/f", 0644).ok());

  ASSERT_TRUE(client_->Rename("/p1/child", "/p2/moved").ok());
  EXPECT_TRUE(client_->GetAttr("/p1/child").status().IsNotFound());
  auto moved = client_->GetAttr("/p2/moved");
  ASSERT_TRUE(moved.ok());
  EXPECT_TRUE(moved->IsDirectory());
  // Contents move with the directory (ids, not paths, anchor children).
  EXPECT_TRUE(client_->GetAttr("/p2/moved/f").ok());
}

TEST_P(CfsVariantTest, RenameRejectsOrphanLoop) {
  ASSERT_TRUE(client_->Mkdir("/loop", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/loop/inner", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/loop/inner/deep", 0755).ok());
  // Renaming an ancestor into its own subtree must fail.
  Status st = client_->Rename("/loop", "/loop/inner/deep/bad");
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  // And the hierarchy is intact.
  EXPECT_TRUE(client_->GetAttr("/loop/inner/deep").ok());
}

TEST_P(CfsVariantTest, RenameDirOverNonEmptyDirFails) {
  ASSERT_TRUE(client_->Mkdir("/x", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/y", 0755).ok());
  ASSERT_TRUE(client_->Create("/y/occupied", 0644).ok());
  Status st = client_->Rename("/x", "/y");
  EXPECT_EQ(st.code(), ErrorCode::kNotEmpty);
  // Over an empty directory succeeds.
  ASSERT_TRUE(client_->Mkdir("/z", 0755).ok());
  ASSERT_TRUE(client_->Unlink("/y/occupied").ok());
  EXPECT_TRUE(client_->Rename("/x", "/y").ok());
  (void)st;
}

TEST_P(CfsVariantTest, SymlinkAndReadlink) {
  ASSERT_TRUE(client_->Create("/target", 0644).ok());
  ASSERT_TRUE(client_->Symlink("/target", "/lnk").ok());
  auto target = client_->ReadLink("/lnk");
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/target");
  auto info = client_->Lookup("/lnk");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->type, InodeType::kSymlink);
  EXPECT_EQ(client_->ReadLink("/target").status().code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(client_->Unlink("/lnk").ok());
  EXPECT_TRUE(client_->GetAttr("/target").ok());
}

TEST_P(CfsVariantTest, HardLinkBumpsLinkCount) {
  ASSERT_TRUE(client_->Create("/orig", 0644).ok());
  ASSERT_TRUE(client_->Link("/orig", "/alias").ok());
  auto orig = client_->GetAttr("/orig");
  auto alias = client_->GetAttr("/alias");
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(orig->id, alias->id);
  EXPECT_EQ(orig->links, 2);
  // Hard links to directories are refused.
  ASSERT_TRUE(client_->Mkdir("/hd", 0755).ok());
  EXPECT_EQ(client_->Link("/hd", "/hd2").code(),
            ErrorCode::kPermissionDenied);
}

TEST_P(CfsVariantTest, WriteAndReadBack) {
  ASSERT_TRUE(client_->Create("/data", 0644).ok());
  ASSERT_TRUE(client_->Write("/data", 0, "hello, filestore").ok());
  auto read = client_->Read("/data", 0, 16);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello, filestore");
  auto partial = client_->Read("/data", 7, 9);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(*partial, "filestore");
  auto info = client_->GetAttr("/data");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 16);
}

TEST_P(CfsVariantTest, ConcurrentCreatesInSharedDirectory) {
  ASSERT_TRUE(client_->Mkdir("/shared", 0755).ok());
  constexpr int kThreads = 6;
  constexpr int kPerThread = 15;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<MetadataClient>> clients;
  for (int t = 0; t < kThreads; t++) {
    clients.push_back(fs_->NewClient());
  }
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        std::string path =
            "/shared/t" + std::to_string(t) + "_" + std::to_string(i);
        if (clients[t]->Create(path, 0644).ok()) ok++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  auto parent = client_->GetAttr("/shared");
  ASSERT_TRUE(parent.ok());
  // No lost updates on the shared children counter.
  EXPECT_EQ(parent->children, kThreads * kPerThread);
  auto entries = client_->ReadDir("/shared");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kThreads * kPerThread));
}

// Last-writer-wins follows the shard's apply order, not the writers'
// timestamps. Each engine takes its timestamps from its own batch of the
// oracle, so an engine that started later stamps larger values; its write
// must still lose to one that applies after it.
TEST_P(CfsVariantTest, LaterSetAttrWinsAcrossEngines) {
  ASSERT_TRUE(client_->Mkdir("/d", 0755).ok());
  // A second engine (a second proxy, in proxy modes), started after the
  // first one took its batch.
  auto other = fs_->NewClient();
  ASSERT_TRUE(other->Create("/d/f", 0644).ok());
  for (const char* path : {"/d/f", "/d"}) {
    SetAttrSpec first;
    first.mode = 0700;
    ASSERT_TRUE(other->SetAttr(path, first).ok());
    SetAttrSpec second;
    second.mode = 0755;
    ASSERT_TRUE(client_->SetAttr(path, second).ok());
    for (MetadataClient* reader : {client_.get(), other.get()}) {
      auto info = reader->GetAttr(path);
      ASSERT_TRUE(info.ok());
      EXPECT_EQ(info->mode, 0755u) << path;
    }
  }
}

// A directory move's reparent must land even when the moved directory's
// record was last written by an engine with a newer timestamp batch than
// the Renamer's; otherwise the loop check walks a stale backpointer.
TEST_P(CfsVariantTest, ReparentSurvivesNewerWriterOnMovedDirectory) {
  for (const char* dir : {"/a", "/b", "/a/x", "/t1", "/t2"}) {
    ASSERT_TRUE(client_->Mkdir(dir, 0755).ok()) << dir;
  }
  // The Renamer takes its timestamp batch here.
  ASSERT_TRUE(client_->Rename("/t1", "/t2/t1").ok());
  auto other = fs_->NewClient();
  ASSERT_TRUE(other->Create("/a/x/f", 0644).ok());
  ASSERT_TRUE(client_->Rename("/a/x", "/b/x").ok());
  Status st = client_->Rename("/b", "/b/x/b2");
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.ToString();
  EXPECT_TRUE(client_->GetAttr("/b/x/f").ok());
}

INSTANTIATE_TEST_SUITE_P(AllVariants, CfsVariantTest,
                         ::testing::Values(0u, 1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<size_t>& param) {
                           return kVariants[param.param].name;
                         });

// ---------------------------------------------------------------------------
// Lock-based paths (CFS-base, +new-org).

// A lock-based create or unlink in x locks and reads x's attribute record,
// but the Renamer moving x does not lock it. The child op must commit its
// change as an update spec; an image of the record it read would put x's
// old parent backpointer back.
TEST(CfsLockBasedTest, ChildOpsDoNotRevertConcurrentReparent) {
  Cfs fs(SmallCluster(CfsBaseOptions()));
  ASSERT_TRUE(fs.Start().ok());
  auto mover = fs.NewClient();
  auto writer = fs.NewClient();  // the other proxy
  ASSERT_TRUE(mover->Mkdir("/p", 0755).ok());
  ASSERT_TRUE(mover->Mkdir("/q", 0755).ok());
  ASSERT_TRUE(mover->Mkdir("/p/x", 0755).ok());
  auto p = mover->GetAttr("/p");
  auto q = mover->GetAttr("/q");
  auto x = mover->GetAttr("/p/x");
  ASSERT_TRUE(p.ok() && q.ok() && x.ok());

  std::atomic<bool> done{false};
  std::atomic<int> writes{0};
  std::thread churn([&] {
    // x moves under this thread's feet: try both locations.
    for (int i = 0; !done.load(); i++) {
      std::string name = "/x/f" + std::to_string(i % 8);
      for (const char* parent : {"/p", "/q"}) {
        if (writer->Create(parent + name, 0644).ok()) writes++;
        if (writer->Unlink(parent + name).ok()) writes++;
      }
    }
  });
  constexpr int kMoves = 3000;
  int stale = 0;
  for (int i = 0; i < kMoves; i++) {
    bool to_q = i % 2 == 0;
    // No ASSERT in this loop: returning early would leave `churn` unjoined.
    Status st = mover->Rename(to_q ? "/p/x" : "/q/x", to_q ? "/q/x" : "/p/x");
    if (!st.ok()) {
      ADD_FAILURE() << "move " << i << ": " << st.ToString();
      break;
    }
    TafDbShard* shard = fs.tafdb()->ShardFor(x->id);
    auto attr = shard->Get(InodeKey::AttrRecord(x->id));
    if (!attr.ok() || attr->parent != (to_q ? q : p)->id) stale++;
  }
  done = true;
  churn.join();
  EXPECT_EQ(stale, 0) << "of " << kMoves << " moves";
  EXPECT_GT(writes.load(), 0);
  mover.reset();
  writer.reset();
  fs.Stop();
}

// Pins the lock-based paths' per-op cost (Fig 4/13): SimNet hops on the
// calling thread, the client's proxy hop included.
TEST(CfsLockBasedTest, PerOpHopsArePinned) {
  struct Expected {
    const char* name;
    CfsOptions (*make)();
    // create, mkdir, setattr file, setattr dir, unlink, rmdir
    uint64_t hops[6];
  };
  const Expected kExpected[] = {
      {"CfsBase", CfsBaseOptions, {6, 11, 5, 5, 6, 14}},
      {"NewOrg", CfsNewOrgOptions, {11, 11, 2, 5, 11, 14}},
  };
  for (const Expected& e : kExpected) {
    SCOPED_TRACE(e.name);
    Cfs fs(SmallCluster(e.make()));
    ASSERT_TRUE(fs.Start().ok());
    auto client = fs.NewClient();
    ASSERT_TRUE(client->Mkdir("/d", 0755).ok());
    SetAttrSpec chmod;
    chmod.mode = 0700;
    const std::function<Status()> ops[] = {
        [&] { return client->Create("/d/f", 0644); },
        [&] { return client->Mkdir("/d/s", 0755); },
        [&] { return client->SetAttr("/d/f", chmod); },
        [&] { return client->SetAttr("/d/s", chmod); },
        [&] { return client->Unlink("/d/f"); },
        [&] { return client->Rmdir("/d/s"); },
    };
    for (size_t i = 0; i < 6; i++) {
      SimNet::ResetThreadHops();
      ASSERT_TRUE(ops[i]().ok()) << "op " << i;
      EXPECT_EQ(SimNet::ThreadHops(), e.hops[i]) << "op " << i;
    }
    client.reset();
    fs.Stop();
  }
}

// ---------------------------------------------------------------------------
// Full-CFS-specific behaviour: fast path routing, GC crash repair.

class CfsFullTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CfsOptions options = SmallCluster(CfsFullOptions());
    options.start_gc = false;  // tests drive GC passes explicitly
    fs_ = std::make_unique<Cfs>(options);
    ASSERT_TRUE(fs_->Start().ok());
    client_ = fs_->NewClient();
  }
  void TearDown() override {
    client_.reset();
    fs_->Stop();
  }

  std::unique_ptr<Cfs> fs_;
  std::unique_ptr<MetadataClient> client_;
};

TEST_F(CfsFullTest, IntraDirRenameSkipsRenamer) {
  ASSERT_TRUE(client_->Mkdir("/fp", 0755).ok());
  ASSERT_TRUE(client_->Create("/fp/a", 0644).ok());
  auto before = fs_->renamer()->stats();
  ASSERT_TRUE(client_->Rename("/fp/a", "/fp/b").ok());
  auto after = fs_->renamer()->stats();
  EXPECT_EQ(after.committed, before.committed);  // fast path: no coordinator

  // Cross-directory rename does reach the Renamer.
  ASSERT_TRUE(client_->Mkdir("/fp2", 0755).ok());
  ASSERT_TRUE(client_->Rename("/fp/b", "/fp2/c").ok());
  EXPECT_EQ(fs_->renamer()->stats().committed, before.committed + 1);
}

// Figure 8c: an intra-directory rename onto an existing file is one
// primitive with no pre-read of the destination; the replaced inode is
// unreferenced from the record the primitive deleted.
TEST_F(CfsFullTest, IntraDirRenameReplacesFileInOnePrimitive) {
  ASSERT_TRUE(client_->Mkdir("/rp", 0755).ok());
  ASSERT_TRUE(client_->Create("/rp/src", 0644).ok());
  ASSERT_TRUE(client_->Create("/rp/dst", 0644).ok());
  auto src = client_->GetAttr("/rp/src");
  auto dst = client_->GetAttr("/rp/dst");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());

  MetricsRegistry& metrics = MetricsRegistry::Global();
  uint64_t primitives = metrics.GetCounter("tafdb.primitives")->value();
  uint64_t reads = metrics.GetCounter("tafdb.reads")->value();
  ASSERT_TRUE(client_->Rename("/rp/src", "/rp/dst").ok());
  EXPECT_EQ(metrics.GetCounter("tafdb.primitives")->value() - primitives, 1u);
  EXPECT_EQ(metrics.GetCounter("tafdb.reads")->value() - reads, 0u);

  auto moved = client_->GetAttr("/rp/dst");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->id, src->id);
  EXPECT_TRUE(client_->GetAttr("/rp/src").status().IsNotFound());
  fs_->filestore()->DrainAsync();
  EXPECT_TRUE(fs_->filestore()
                  ->NodeFor(dst->id)
                  ->GetAttr(dst->id)
                  .status()
                  .IsNotFound());
}

TEST_F(CfsFullTest, GcReclaimsOrphanedCreateAttr) {
  // Simulate a client that crashed between create's two steps (Fig 7): the
  // FileStore attribute exists, the TafDB link was never written.
  InodeId orphan = fs_->tafdb()->id_allocator()->Next();
  InodeRecord attr = InodeRecord::MakeFileAttr(orphan, 1, 0644, 0, 0);
  ASSERT_TRUE(fs_->filestore()->NodeFor(orphan)->PutAttr(attr, "").ok());
  ASSERT_TRUE(fs_->filestore()->NodeFor(orphan)->GetAttr(orphan).ok());

  // First pass ingests the event; after the grace period a later pass
  // reclaims the unpaired attribute.
  fs_->gc()->RunOnceForTest();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  fs_->gc()->RunOnceForTest();

  EXPECT_TRUE(
      fs_->filestore()->NodeFor(orphan)->GetAttr(orphan).status().IsNotFound());
  EXPECT_GE(fs_->gc()->stats().orphan_attrs_deleted, 1u);
}

TEST_F(CfsFullTest, GcDoesNotReclaimLinkedAttr) {
  ASSERT_TRUE(client_->Create("/kept", 0644).ok());
  auto info = client_->GetAttr("/kept");
  ASSERT_TRUE(info.ok());
  fs_->gc()->RunOnceForTest();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  fs_->gc()->RunOnceForTest();
  // A properly linked file's attribute must survive collection.
  EXPECT_TRUE(client_->GetAttr("/kept").ok());
}

TEST_F(CfsFullTest, GcFixesMissedUnlinkCleanup) {
  ASSERT_TRUE(client_->Create("/doomed", 0644).ok());
  auto info = client_->GetAttr("/doomed");
  ASSERT_TRUE(info.ok());
  InodeId id = info->id;

  // Simulate the client crashing right after the TafDB unlink, before the
  // async FileStore cleanup: execute only the namespace half.
  DeleteSpec del;
  del.key = InodeKey::IdRecord(kRootInode, "doomed");
  del.forbid_directory = true;
  del.hint_id = id;
  del.expect_attr_cleanup = true;
  UpdateSpec dec;
  dec.key = InodeKey::AttrRecord(kRootInode);
  dec.children_delta = -1;
  auto op = PrimitiveOp::DeleteWithUpdate(del, dec);
  ASSERT_TRUE(fs_->tafdb()->ShardFor(kRootInode)->ExecutePrimitive(op).status.ok());
  ASSERT_TRUE(fs_->filestore()->NodeFor(id)->GetAttr(id).ok());

  fs_->gc()->RunOnceForTest();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  fs_->gc()->RunOnceForTest();

  EXPECT_TRUE(fs_->filestore()->NodeFor(id)->GetAttr(id).status().IsNotFound());
  EXPECT_GE(fs_->gc()->stats().missed_deletes_fixed, 1u);
}

TEST_F(CfsFullTest, OnDemandGcRepairsDanglingRmdir) {
  ASSERT_TRUE(client_->Mkdir("/ghost", 0755).ok());
  auto info = client_->GetAttr("/ghost");
  ASSERT_TRUE(info.ok());

  // Simulate a crash between rmdir's two steps: the directory's attribute
  // record was retired, the dentry under / remains.
  PrimitiveOp retire;
  DeleteSpec del_attr;
  del_attr.key = InodeKey::AttrRecord(info->id);
  retire.deletes.push_back(del_attr);
  ASSERT_TRUE(
      fs_->tafdb()->ShardFor(info->id)->ExecutePrimitive(retire).status.ok());

  // A fresh client (cold cache) hits the dangling dentry; getattr fails and
  // files an on-demand GC report.
  auto other = fs_->NewClient();
  EXPECT_TRUE(other->GetAttr("/ghost").status().IsNotFound());
  fs_->gc()->RunOnceForTest();

  // The dentry is gone and the parent's fanout is consistent again.
  auto entries = client_->ReadDir("/");
  ASSERT_TRUE(entries.ok());
  for (const auto& e : *entries) {
    EXPECT_NE(e.name, "ghost");
  }
  EXPECT_GE(fs_->gc()->stats().dangling_entries_removed, 1u);
}

// A collection pass issues its repair writes after releasing gc.scan, so
// a client's dangling report (filed from a failed GetAttr) never waits out
// the pass's raft commits.
TEST(CfsGcTest, ReportDanglingDoesNotWaitForRepairWrites) {
  constexpr int64_t kFsyncUs = 50000;
  CfsOptions options = SmallCluster(CfsFullOptions());
  options.start_gc = false;
  options.gc_grace_ms = 0;  // reclaim in the pass that sees the orphan
  options.filestore.raft.wal.fsync_delay_us = kFsyncUs;
  Cfs fs(options);
  ASSERT_TRUE(fs.Start().ok());
  // Two crashed creates: FileStore attributes that no dentry links.
  std::vector<InodeId> orphans;
  for (int i = 0; i < 2; i++) {
    InodeId id = fs.tafdb()->id_allocator()->Next();
    ASSERT_TRUE(fs.filestore()
                    ->NodeFor(id)
                    ->PutAttr(InodeRecord::MakeFileAttr(id, 1, 0644, 0, 0), "")
                    .ok());
    orphans.push_back(id);
  }

  Counter* mutations =
      MetricsRegistry::Global().GetCounter("filestore.mutations");
  uint64_t before = mutations->value();
  std::atomic<bool> done{false};
  std::thread pass([&fs, &done] {
    fs.gc()->RunOnceForTest();
    done.store(true);
  });
  // The first repair write has started once a FileStore mutation is
  // proposed; each one takes at least one fsync delay to commit.
  while (!done.load() && mutations->value() == before) {
    std::this_thread::yield();
  }
  ASSERT_FALSE(done.load()) << "the pass issued no repair write";
  auto start = std::chrono::steady_clock::now();
  fs.gc()->ReportDangling(kRootInode, "no-such-entry", orphans[0]);
  auto took = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  pass.join();
  EXPECT_LT(took.count(), kFsyncUs / 2);

  for (InodeId id : orphans) {
    EXPECT_TRUE(fs.filestore()->NodeFor(id)->GetAttr(id).status().IsNotFound());
  }
  EXPECT_GE(fs.gc()->stats().orphan_attrs_deleted, 2u);
  fs.Stop();
}

TEST_F(CfsFullTest, StaleClientCacheHealsAfterExternalChange) {
  ASSERT_TRUE(client_->Mkdir("/c", 0755).ok());
  ASSERT_TRUE(client_->Create("/c/f", 0644).ok());
  ASSERT_TRUE(client_->GetAttr("/c/f").ok());  // warm the cache

  // Another client removes the file.
  auto other = fs_->NewClient();
  ASSERT_TRUE(other->Unlink("/c/f").ok());

  // Wait out the asynchronous FileStore attribute removal so the stale
  // cached dentry is guaranteed to point at a dead attribute record.
  fs_->filestore()->DrainAsync();

  // The first client's cached dentry is stale; the operation must still
  // converge to ENOENT (attr fetch fails, cache evicts).
  EXPECT_TRUE(client_->GetAttr("/c/f").status().IsNotFound());
  EXPECT_TRUE(client_->GetAttr("/c/f").status().IsNotFound());
}

TEST_F(CfsFullTest, HintIdGuardsAbaOnUnlink) {
  ASSERT_TRUE(client_->Mkdir("/aba", 0755).ok());
  ASSERT_TRUE(client_->Create("/aba/f", 0644).ok());
  auto first = client_->GetAttr("/aba/f");
  ASSERT_TRUE(first.ok());

  // Another client replaces the file (unlink + create with same name).
  auto other = fs_->NewClient();
  ASSERT_TRUE(other->Unlink("/aba/f").ok());
  ASSERT_TRUE(other->Create("/aba/f", 0644).ok());

  // First client unlinks with its stale cached id: the hint-id guard makes
  // the primitive refuse to delete the replacement.
  Status st = client_->Unlink("/aba/f");
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_TRUE(other->GetAttr("/aba/f").ok());
}

TEST_F(CfsFullTest, ProxyModeAddsAHop) {
  CfsOptions proxy_options = SmallCluster(CfsPrimitivesOptions());
  Cfs proxy_fs(proxy_options);
  ASSERT_TRUE(proxy_fs.Start().ok());
  auto proxy_client = proxy_fs.NewClient();
  ASSERT_TRUE(proxy_client->Mkdir("/p", 0755).ok());

  // getattr through the proxy: client->proxy hop + proxy->tafdb hop(s).
  SimNet::ResetThreadHops();
  ASSERT_TRUE(proxy_client->GetAttr("/p").ok());
  uint64_t proxy_hops = SimNet::ThreadHops();

  ASSERT_TRUE(client_->Mkdir("/p", 0755).ok());
  ASSERT_TRUE(client_->GetAttr("/p").ok());  // warm cache
  SimNet::ResetThreadHops();
  ASSERT_TRUE(client_->GetAttr("/p").ok());
  uint64_t direct_hops = SimNet::ThreadHops();

  EXPECT_GT(proxy_hops, direct_hops);
  proxy_fs.Stop();
}

// ---------------------------------------------------------------------------
// Dentry-cache coherence across engines. (The "Coherence" infix is load-
// bearing: scripts/check.sh runs these tests again under TSan.)

TEST_F(CfsFullTest, CoherenceDirectoryRenameInvalidatesCachedSubtree) {
  ASSERT_TRUE(client_->Mkdir("/pd", 0755).ok());
  ASSERT_TRUE(client_->Mkdir("/pd/sub", 0755).ok());
  ASSERT_TRUE(client_->Create("/pd/sub/f", 0644).ok());
  ASSERT_TRUE(client_->GetAttr("/pd/sub/f").ok());  // warm the whole chain

  // Cross-directory directory move: normal path, prefix invalidation.
  ASSERT_TRUE(client_->Rename("/pd/sub", "/q").ok());

  // The old location must be gone immediately on the renaming engine...
  EXPECT_TRUE(client_->GetAttr("/pd/sub/f").status().IsNotFound());
  EXPECT_TRUE(client_->GetAttr("/q/f").ok());

  // ...and recreating the directory must not resurrect the cached child
  // (the pre-cache-rewrite engine kept "/pd/sub/f" alive here).
  ASSERT_TRUE(client_->Mkdir("/pd/sub", 0755).ok());
  EXPECT_TRUE(client_->GetAttr("/pd/sub/f").status().IsNotFound());
  EXPECT_TRUE(client_->GetAttr("/q/f").ok());
}

// The renaming engine keeps its cache: the fast path fills `to` with the
// epoch the primitive returned and fast-forwards the parent's view, so the
// follow-up getattr resolves entirely from the cache.
TEST_F(CfsFullTest, CoherenceOwnRenameKeepsCacheWarm) {
  ASSERT_TRUE(client_->Mkdir("/rc", 0755).ok());
  ASSERT_TRUE(client_->Create("/rc/a", 0644).ok());
  ASSERT_TRUE(client_->Create("/rc/sib", 0644).ok());
  ASSERT_TRUE(client_->GetAttr("/rc/a").ok());  // warm the chain
  ASSERT_TRUE(client_->GetAttr("/rc/sib").ok());

  Counter* reads = MetricsRegistry::Global().GetCounter("tafdb.reads");
  uint64_t before = reads->value();
  ASSERT_TRUE(client_->Rename("/rc/a", "/rc/b").ok());
  EXPECT_TRUE(client_->GetAttr("/rc/b").ok());
  EXPECT_TRUE(client_->GetAttr("/rc/sib").ok());
  EXPECT_EQ(reads->value() - before, 0u);

  // Normal-path renames come back through the Renamer's broadcast, which
  // names only the moved entry: the cached siblings survive too.
  ASSERT_TRUE(client_->Mkdir("/rd", 0755).ok());
  ASSERT_TRUE(client_->GetAttr("/rd").ok());
  ASSERT_TRUE(client_->Rename("/rc/b", "/rd/b").ok());
  before = reads->value();
  EXPECT_TRUE(client_->GetAttr("/rc/sib").ok());
  EXPECT_EQ(reads->value() - before, 0u);
}

// Engines A and B unlink different names in one directory, B first. A's
// own unlink returns the directory's journal since A's view, which names
// both unlinks: A erases its entries for both names instead of dropping
// them as stale, and B's name resolves to ENOENT from A.
TEST_F(CfsFullTest, CoherenceInterleavedUnlinksInvalidateSiblings) {
  ASSERT_TRUE(client_->Mkdir("/u", 0755).ok());
  ASSERT_TRUE(client_->Create("/u/a", 0644).ok());
  ASSERT_TRUE(client_->Create("/u/b", 0644).ok());
  ASSERT_TRUE(client_->GetAttr("/u/a").ok());
  ASSERT_TRUE(client_->GetAttr("/u/b").ok());
  auto* engine = dynamic_cast<CfsEngine*>(client_.get());
  ASSERT_NE(engine, nullptr);

  auto other = fs_->NewClient();
  ASSERT_TRUE(other->Unlink("/u/b").ok());
  DentryCache::Stats before = engine->dentry_cache().stats();
  ASSERT_TRUE(client_->Unlink("/u/a").ok());
  DentryCache::Stats after = engine->dentry_cache().stats();
  EXPECT_EQ(after.journal_drops - before.journal_drops, 2u);

  EXPECT_TRUE(client_->GetAttr("/u/b").status().IsNotFound());
  EXPECT_EQ(engine->dentry_cache().stats().stale_drops, after.stale_drops);
}

// B unlinks x in a shared directory, then A unlinks its own y. A's reply
// names x and y, so A keeps serving its cached z from the cache, and x is
// gone from A's view of the directory.
TEST_F(CfsFullTest, CoherenceRemoteUnlinkKeepsUnnamedSiblings) {
  ASSERT_TRUE(client_->Mkdir("/s", 0755).ok());
  for (const char* name : {"/s/x", "/s/y", "/s/z"}) {
    ASSERT_TRUE(client_->Create(name, 0644).ok());
    ASSERT_TRUE(client_->GetAttr(name).ok());  // warm A's cache
  }
  auto other = fs_->NewClient();
  ASSERT_TRUE(other->Unlink("/s/x").ok());
  ASSERT_TRUE(client_->Unlink("/s/y").ok());

  Counter* reads = MetricsRegistry::Global().GetCounter("tafdb.reads");
  uint64_t before = reads->value();
  EXPECT_TRUE(client_->GetAttr("/s/z").ok());
  EXPECT_EQ(reads->value() - before, 0u);
  EXPECT_TRUE(client_->GetAttr("/s/x").status().IsNotFound());
}

// Engine A renames; engine B (with a warm cache) must observe the new
// location and ENOENT at the old one with zero staleness, in both client
// resolving modes.
class CfsCoherenceTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    CfsOptions options =
        SmallCluster(GetParam() ? CfsFullOptions() : CfsPrimitivesOptions());
    fs_ = std::make_unique<Cfs>(options);
    ASSERT_TRUE(fs_->Start().ok());
    a_ = fs_->NewClient();
    b_ = fs_->NewClient();
  }
  void TearDown() override {
    a_.reset();
    b_.reset();
    fs_->Stop();
  }

  std::unique_ptr<Cfs> fs_;
  std::unique_ptr<MetadataClient> a_;
  std::unique_ptr<MetadataClient> b_;
};

TEST_P(CfsCoherenceTest, RenameVisibleAcrossEngines) {
  ASSERT_TRUE(a_->Mkdir("/a", 0755).ok());
  ASSERT_TRUE(a_->Mkdir("/c", 0755).ok());
  ASSERT_TRUE(a_->Create("/a/b", 0644).ok());
  ASSERT_TRUE(b_->GetAttr("/a/b").ok());  // warm B's cache

  ASSERT_TRUE(a_->Rename("/a/b", "/c/b").ok());

  // Positive coherence: B sees the new location immediately.
  EXPECT_TRUE(b_->GetAttr("/c/b").ok());
  // Negative coherence: B's warm entry for the old path must not serve.
  EXPECT_TRUE(b_->GetAttr("/a/b").status().IsNotFound());
  EXPECT_TRUE(b_->Lookup("/a/b").status().IsNotFound());
}

TEST_P(CfsCoherenceTest, RandomizedRenameLookupInterleavingsZeroStale) {
  constexpr int kFiles = 8;
  constexpr int kRounds = 1000;
  ASSERT_TRUE(a_->Mkdir("/d0", 0755).ok());
  ASSERT_TRUE(a_->Mkdir("/d1", 0755).ok());
  // files[i] tracks which directory currently holds file i.
  int where[kFiles];
  for (int i = 0; i < kFiles; i++) {
    ASSERT_TRUE(a_->Create("/d0/f" + std::to_string(i), 0644).ok());
    where[i] = 0;
    // Warm B on the initial location so its cache has something to go
    // stale.
    ASSERT_TRUE(b_->GetAttr("/d0/f" + std::to_string(i)).ok());
  }

  Rng rng(20260806);
  int stale_reads = 0;
  for (int round = 0; round < kRounds; round++) {
    int i = static_cast<int>(rng.Uniform(kFiles));
    std::string name = "f" + std::to_string(i);
    std::string src = "/d" + std::to_string(where[i]) + "/" + name;
    std::string dst = "/d" + std::to_string(1 - where[i]) + "/" + name;
    ASSERT_TRUE(a_->Rename(src, dst).ok()) << "round " << round;
    where[i] = 1 - where[i];

    // B must observe the move with zero staleness: sometimes it checks the
    // new location, sometimes the old, sometimes a random other file.
    int probe = static_cast<int>(rng.Uniform(kFiles));
    std::string probe_name = "f" + std::to_string(probe);
    std::string at = "/d" + std::to_string(where[probe]) + "/" + probe_name;
    std::string gone =
        "/d" + std::to_string(1 - where[probe]) + "/" + probe_name;
    if (!b_->GetAttr(at).ok()) stale_reads++;
    if (!b_->GetAttr(gone).status().IsNotFound()) stale_reads++;
  }
  EXPECT_EQ(stale_reads, 0);
}

// The engine that issued a normal-path rename caches the moved entry at
// its new name under step B's epoch, as the fast path does, so its next op
// on `to` resolves from the cache instead of re-reading the dentry.
TEST_P(CfsCoherenceTest, RenamerRenameKeepsIssuerCacheWarm) {
  ASSERT_TRUE(a_->Mkdir("/a", 0755).ok());
  ASSERT_TRUE(a_->Mkdir("/c", 0755).ok());
  ASSERT_TRUE(a_->Create("/a/f", 0644).ok());
  ASSERT_TRUE(a_->Mkdir("/a/g", 0755).ok());
  ASSERT_TRUE(a_->GetAttr("/c").ok());
  Counter* reads = MetricsRegistry::Global().GetCounter("tafdb.reads");

  ASSERT_TRUE(a_->Rename("/a/f", "/c/f").ok());
  uint64_t before = reads->value();
  EXPECT_TRUE(a_->GetAttr("/c/f").ok());
  EXPECT_EQ(reads->value() - before, 0u);

  // A directory's attributes live in TafDB, so its getattr makes exactly
  // that one read: the dentry comes from the cache.
  ASSERT_TRUE(a_->Rename("/a/g", "/c/g").ok());
  before = reads->value();
  auto moved = a_->GetAttr("/c/g");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->type, InodeType::kDirectory);
  EXPECT_EQ(reads->value() - before, 1u);
  EXPECT_TRUE(a_->GetAttr("/a/g").status().IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(ResolvingModes, CfsCoherenceTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "ClientResolving" : "Proxied";
                         });

// Fast-path (intra-directory) renames are not broadcast; coherence there
// comes from the epoch bump plus the receiver's epoch-view TTL. With the
// TTL at 0 every cache hit revalidates, so the heal is immediate and
// deterministic.
TEST(CfsCoherenceEpochTest, FastPathRenameHealsViaEpochRevalidation) {
  CfsOptions options = SmallCluster(CfsFullOptions());
  options.dentry_epoch_ttl_ms = 0;
  Cfs fs(options);
  ASSERT_TRUE(fs.Start().ok());
  auto a = fs.NewClient();
  auto b = fs.NewClient();

  ASSERT_TRUE(a->Mkdir("/d", 0755).ok());
  ASSERT_TRUE(a->Create("/d/x", 0644).ok());
  ASSERT_TRUE(b->GetAttr("/d/x").ok());  // warm B

  // Same-directory file rename: fast path, no Renamer, no broadcast.
  ASSERT_TRUE(a->Rename("/d/x", "/d/y").ok());

  // B's hit on the stale entry revalidates the epoch, sees the bump, and
  // falls through to a fresh read.
  EXPECT_TRUE(b->GetAttr("/d/x").status().IsNotFound());
  EXPECT_TRUE(b->GetAttr("/d/y").ok());

  // Regression: with the TTL at 0 the cache must still SERVE hits — each
  // hit pays one revalidation RPC, it doesn't degrade to a permanent miss.
  Counter* hit_counter =
      MetricsRegistry::Global().GetCounter("dentry_cache.hit");
  uint64_t hits_before = hit_counter->value();
  EXPECT_TRUE(b->GetAttr("/d/y").ok());  // warm entry, unchanged epoch
  EXPECT_GT(hit_counter->value(), hits_before);

  a.reset();
  b.reset();
  fs.Stop();
}

}  // namespace
}  // namespace cfs
