// FileStore tests: attribute CRUD with delta/LWW merges, block I/O,
// piggybacked creation, whole-file deletion, 2PC staging, hash
// distribution, async deletion, and the CDC feed.

#include <gtest/gtest.h>

#include <set>

#include "src/filestore/filestore.h"

namespace cfs {
namespace {

FileStoreOptions FastOptions() {
  FileStoreOptions options;
  options.num_nodes = 3;
  options.raft.election_timeout_min_ms = 50;
  options.raft.election_timeout_max_ms = 100;
  options.raft.heartbeat_interval_ms = 20;
  return options;
}

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<FileStoreCluster>(
        &net_, std::vector<uint32_t>{0, 1, 2}, FastOptions());
    ASSERT_TRUE(cluster_->Start().ok());
  }
  void TearDown() override { cluster_->Stop(); }

  SimNet net_;
  std::unique_ptr<FileStoreCluster> cluster_;
};

TEST_F(FileStoreTest, PutGetDeleteAttr) {
  InodeId id = 42;
  InodeRecord attr = InodeRecord::MakeFileAttr(id, 100, 0644, 1, 2);
  FileStoreNode* node = cluster_->NodeFor(id);
  ASSERT_TRUE(node->PutAttr(attr, "").ok());
  auto got = node->GetAttr(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->mode, 0644u);
  EXPECT_EQ(got->type, InodeType::kFile);
  ASSERT_TRUE(node->DeleteAttr(id).ok());
  EXPECT_TRUE(node->GetAttr(id).status().IsNotFound());
}

TEST_F(FileStoreTest, SetAttrMergesLwwAndDeltas) {
  InodeId id = 7;
  FileStoreNode* node = cluster_->NodeFor(id);
  ASSERT_TRUE(node->PutAttr(InodeRecord::MakeFileAttr(id, 10, 0644, 0, 0), "")
                  .ok());
  UpdateSpec first;
  first.key = InodeKey::AttrRecord(id);
  first.links_delta = 1;
  first.lww.mode = 0600;
  ASSERT_TRUE(node->SetAttr(id, first).ok());
  UpdateSpec second;
  second.key = InodeKey::AttrRecord(id);
  second.links_delta = 1;
  second.lww.mode = 0777;
  ASSERT_TRUE(node->SetAttr(id, second).ok());

  auto got = node->GetAttr(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->links, 3);      // both deltas applied (commutative)
  EXPECT_EQ(got->mode, 0777u);   // the later-applied LWW write wins
}

TEST_F(FileStoreTest, PiggybackedBlockLandsWithAttr) {
  InodeId id = 9;
  FileStoreNode* node = cluster_->NodeFor(id);
  ASSERT_TRUE(
      node->PutAttr(InodeRecord::MakeFileAttr(id, 1, 0644, 0, 0), "block0")
          .ok());
  auto block = node->ReadBlock(id, 0);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(*block, "block0");
}

TEST_F(FileStoreTest, WriteBlockBumpsSizeAndMtime) {
  InodeId id = 11;
  FileStoreNode* node = cluster_->NodeFor(id);
  ASSERT_TRUE(node->PutAttr(InodeRecord::MakeFileAttr(id, 1, 0644, 0, 0), "")
                  .ok());
  ASSERT_TRUE(node->WriteBlock(id, 0, "0123456789", /*mtime_ts=*/55).ok());
  auto got = node->GetAttr(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size, 10);
  EXPECT_EQ(got->mtime, 55u);
  ASSERT_TRUE(node->WriteBlock(id, 3, "xyz", 60).ok());
  got = node->GetAttr(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size, 13);
  auto b3 = node->ReadBlock(id, 3);
  ASSERT_TRUE(b3.ok());
  EXPECT_EQ(*b3, "xyz");
}

TEST_F(FileStoreTest, DeleteFileRemovesAttrAndAllBlocks) {
  InodeId id = 13;
  FileStoreNode* node = cluster_->NodeFor(id);
  ASSERT_TRUE(node->PutAttr(InodeRecord::MakeFileAttr(id, 1, 0644, 0, 0), "")
                  .ok());
  for (uint64_t b = 0; b < 5; b++) {
    ASSERT_TRUE(node->WriteBlock(id, b, "data", 2).ok());
  }
  ASSERT_TRUE(node->DeleteFile(id).ok());
  EXPECT_TRUE(node->GetAttr(id).status().IsNotFound());
  for (uint64_t b = 0; b < 5; b++) {
    EXPECT_TRUE(node->ReadBlock(id, b).status().IsNotFound()) << b;
  }
}

TEST_F(FileStoreTest, TwoPhaseCommitStaging) {
  InodeId id = 17;
  FileStoreNode* node = cluster_->NodeFor(id);
  FileStoreCommand put;
  put.kind = FileStoreCommand::Kind::kPutAttr;
  put.id = id;
  put.attr = InodeRecord::MakeFileAttr(id, 1, 0644, 0, 0);
  TxnId txn = 1234;
  ASSERT_TRUE(node->Stage(txn, put).ok());
  ASSERT_TRUE(node->Prepare(txn).ok());
  // Not visible before commit.
  EXPECT_TRUE(node->GetAttr(id).status().IsNotFound());
  ASSERT_TRUE(node->Commit(txn).ok());
  EXPECT_TRUE(node->GetAttr(id).ok());

  // Abort path leaves nothing.
  InodeId id2 = 18;
  FileStoreCommand put2 = put;
  put2.id = id2;
  put2.attr = InodeRecord::MakeFileAttr(id2, 1, 0644, 0, 0);
  FileStoreNode* node2 = cluster_->NodeFor(id2);
  TxnId txn2 = 1235;
  ASSERT_TRUE(node2->Stage(txn2, put2).ok());
  ASSERT_TRUE(node2->Prepare(txn2).ok());
  ASSERT_TRUE(node2->Abort(txn2).ok());
  EXPECT_TRUE(node2->GetAttr(id2).status().IsNotFound());
}

TEST_F(FileStoreTest, HashPartitionSpreadsIds) {
  std::set<size_t> nodes_hit;
  std::vector<int> counts(cluster_->num_nodes(), 0);
  for (InodeId id = 1; id <= 3000; id++) {
    size_t n = cluster_->NodeIndexFor(id);
    nodes_hit.insert(n);
    counts[n]++;
  }
  EXPECT_EQ(nodes_hit.size(), cluster_->num_nodes());
  for (int c : counts) {
    EXPECT_GT(c, 700);  // roughly balanced thirds of 3000
    EXPECT_LT(c, 1300);
  }
}

TEST_F(FileStoreTest, AsyncDeleteEventuallyApplies) {
  InodeId id = 21;
  FileStoreNode* node = cluster_->NodeFor(id);
  ASSERT_TRUE(node->PutAttr(InodeRecord::MakeFileAttr(id, 1, 0644, 0, 0), "")
                  .ok());
  cluster_->DeleteAttrAsync(id);
  cluster_->DrainAsync();
  EXPECT_TRUE(node->GetAttr(id).status().IsNotFound());
}

TEST_F(FileStoreTest, CdcFeedReportsCommands) {
  InodeId id = 23;
  FileStoreNode* node = cluster_->NodeFor(id);
  ASSERT_TRUE(node->PutAttr(InodeRecord::MakeFileAttr(id, 1, 0644, 0, 0), "")
                  .ok());
  ASSERT_TRUE(node->DeleteAttr(id).ok());
  auto feed = node->ReadCommittedSince(0, 100);
  bool saw_put = false, saw_delete = false;
  for (auto& [index, cmd] : feed) {
    if (cmd.kind == FileStoreCommand::Kind::kPutAttr && cmd.id == id) {
      saw_put = true;
    }
    if (cmd.kind == FileStoreCommand::Kind::kDeleteAttr && cmd.id == id) {
      saw_delete = true;
    }
  }
  EXPECT_TRUE(saw_put);
  EXPECT_TRUE(saw_delete);
}

TEST_F(FileStoreTest, CommandCodecRoundTrip) {
  FileStoreCommand cmd;
  cmd.kind = FileStoreCommand::Kind::kWriteBlock;
  cmd.txn = 99;
  cmd.id = 31;
  cmd.block_index = 4;
  cmd.data = std::string(1000, 'z');
  cmd.update.key = InodeKey::AttrRecord(31);
  cmd.update.size_delta = 1000;
  cmd.update.lww.mtime = 5;
  auto decoded = FileStoreCommand::Decode(cmd.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, FileStoreCommand::Kind::kWriteBlock);
  EXPECT_EQ(decoded->txn, 99u);
  EXPECT_EQ(decoded->id, 31u);
  EXPECT_EQ(decoded->block_index, 4u);
  EXPECT_EQ(decoded->data.size(), 1000u);
  EXPECT_EQ(decoded->update.size_delta, 1000);
  EXPECT_EQ(*decoded->update.lww.mtime, 5u);
}

TEST_F(FileStoreTest, SurvivesNodeReplicaFailure) {
  InodeId id = 37;
  FileStoreNode* node = cluster_->NodeFor(id);
  ASSERT_TRUE(node->PutAttr(InodeRecord::MakeFileAttr(id, 1, 0644, 0, 0), "")
                  .ok());
  // Crash one follower replica of the raft group; writes must continue.
  RaftGroup* group = node->raft_group();
  RaftNode* leader = group->Leader();
  for (size_t i = 0; i < group->size(); i++) {
    if (group->replica(i) != leader) {
      group->CrashReplica(i);
      break;
    }
  }
  UpdateSpec update;
  update.key = InodeKey::AttrRecord(id);
  update.lww.mode = 0700;
  EXPECT_TRUE(node->SetAttr(id, update).ok());
  auto got = node->GetAttr(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->mode, 0700u);
}

}  // namespace
}  // namespace cfs
