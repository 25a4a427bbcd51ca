// TafDB tests: schema round-trips, single-shard atomic primitive semantics
// (Table 2 / Figure 8), conflict reconciliation (delta-apply + LWW),
// raft-backed shard execution, scans, and the 2PC participant path.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "src/tafdb/tafdb.h"

namespace cfs {
namespace {

// ---------- schema ----------

TEST(SchemaTest, KeyEncodingPreservesOrder) {
  // (kid, kstr) order must match encoded lexicographic order.
  std::vector<InodeKey> keys = {
      InodeKey::IdRecord(1, "a"),   InodeKey::IdRecord(1, "b"),
      InodeKey::IdRecord(2, "a"),   InodeKey::AttrRecord(2),
      InodeKey::IdRecord(255, "x"), InodeKey::IdRecord(256, "a"),
  };
  for (size_t i = 0; i < keys.size(); i++) {
    for (size_t j = 0; j < keys.size(); j++) {
      EXPECT_EQ(keys[i] < keys[j], keys[i].Encode() < keys[j].Encode())
          << i << " vs " << j;
    }
  }
}

TEST(SchemaTest, KeyRoundTrip) {
  InodeKey key = InodeKey::IdRecord(12345678901234ULL, "some-file.txt");
  auto decoded = InodeKey::Decode(key.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, key);
  EXPECT_FALSE(decoded->IsAttr());
  EXPECT_TRUE(InodeKey::AttrRecord(7).IsAttr());
}

TEST(SchemaTest, DirBoundsBracketDirectory) {
  std::string lower = DirLowerBound(10);
  std::string upper = DirUpperBound(10);
  EXPECT_LT(lower, InodeKey::AttrRecord(10).Encode());
  EXPECT_LE(lower, InodeKey::IdRecord(10, "zzz").Encode());
  EXPECT_GT(upper, InodeKey::IdRecord(10, "zzz").Encode());
  EXPECT_LE(upper, InodeKey::IdRecord(11, "a").Encode());
}

TEST(SchemaTest, RecordValueRoundTrip) {
  InodeRecord attr = InodeRecord::MakeDirAttr(42, 1000, 0755, 5, 6);
  attr.children = 17;
  auto decoded = InodeRecord::DecodeValue(attr.key, attr.EncodeValue());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, 42u);
  EXPECT_EQ(decoded->type, InodeType::kDirectory);
  EXPECT_EQ(decoded->children, 17);
  EXPECT_EQ(decoded->links, 2);
  EXPECT_EQ(decoded->mtime, 1000u);
  EXPECT_EQ(decoded->mode, 0755u);
  EXPECT_EQ(decoded->uid, 5u);
  EXPECT_EQ(decoded->gid, 6u);
}

TEST(SchemaTest, IdRecordOmitsUnusedFields) {
  InodeRecord rec = InodeRecord::MakeIdRecord(1, "f", 99, InodeType::kFile);
  auto decoded = InodeRecord::DecodeValue(rec.key, rec.EncodeValue());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->Has(InodeRecord::kFieldId));
  EXPECT_TRUE(decoded->Has(InodeRecord::kFieldType));
  EXPECT_FALSE(decoded->Has(InodeRecord::kFieldChildren));
  EXPECT_FALSE(decoded->Has(InodeRecord::kFieldMtime));
  // An attribute record is ~0.2KB in the paper; ours is much smaller, but
  // the id record must stay lean regardless.
  EXPECT_LT(rec.EncodeValue().size(), 16u);
}

TEST(SchemaTest, SymlinkTargetRoundTrip) {
  InodeRecord rec = InodeRecord::MakeFileAttr(7, 1, 0644, 0, 0);
  rec.type = InodeType::kSymlink;
  rec.symlink_target = "/a/b/c";
  rec.Set(InodeRecord::kFieldSymlink);
  auto decoded = InodeRecord::DecodeValue(rec.key, rec.EncodeValue());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->symlink_target, "/a/b/c");
}

// ---------- primitive execution against a bare KV ----------

class PrimitiveExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A parent directory (id 10) with one child file "old" (id 20).
    PrimitiveOp bootstrap;
    bootstrap.inserts.push_back(InodeRecord::MakeDirAttr(10, 1, 0755, 0, 0));
    bootstrap.inserts.push_back(
        InodeRecord::MakeIdRecord(10, "old", 20, InodeType::kFile));
    auto r = ExecutePrimitive(bootstrap, &kv_);
    ASSERT_TRUE(r.status.ok());
    PrimitiveOp bump;
    UpdateSpec u;
    u.key = InodeKey::AttrRecord(10);
    u.children_delta = 1;
    bump.updates.push_back(u);
    ASSERT_TRUE(ExecutePrimitive(bump, &kv_).status.ok());
  }

  int64_t Children() {
    auto rec = ReadRecord(kv_, InodeKey::AttrRecord(10));
    return rec.ok() ? rec->children : -1;
  }

  KvStore kv_;
};

TEST_F(PrimitiveExecTest, InsertWithUpdateCreatesAndBumpsParent) {
  Predicate parent_exists;
  parent_exists.key = InodeKey::AttrRecord(10);
  parent_exists.kind = Predicate::Kind::kExistsWithType;
  parent_exists.type = InodeType::kDirectory;

  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(10);
  bump.children_delta = 1;
  bump.lww.mtime = 50;

  auto op = PrimitiveOp::InsertWithUpdate(
      InodeRecord::MakeIdRecord(10, "new", 21, InodeType::kFile),
      parent_exists, bump);
  auto result = ExecutePrimitive(op, &kv_);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(Children(), 2);
  auto rec = ReadRecord(kv_, InodeKey::IdRecord(10, "new"));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->id, 21u);

  // Duplicate insert: implicit existence check fails, nothing changes.
  auto dup = ExecutePrimitive(op, &kv_);
  EXPECT_TRUE(dup.status.IsAlreadyExists());
  EXPECT_EQ(Children(), 2);
}

TEST_F(PrimitiveExecTest, InsertFailsWhenParentMissing) {
  Predicate parent_exists;
  parent_exists.key = InodeKey::AttrRecord(999);
  parent_exists.kind = Predicate::Kind::kExistsWithType;
  parent_exists.type = InodeType::kDirectory;
  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(999);
  bump.children_delta = 1;
  auto op = PrimitiveOp::InsertWithUpdate(
      InodeRecord::MakeIdRecord(999, "x", 30, InodeType::kFile), parent_exists,
      bump);
  auto result = ExecutePrimitive(op, &kv_);
  EXPECT_TRUE(result.status.IsNotFound());
  EXPECT_FALSE(kv_.Contains(InodeKey::IdRecord(999, "x").Encode()));
}

TEST_F(PrimitiveExecTest, DeleteWithUpdateRemovesAndDecrements) {
  DeleteSpec del;
  del.key = InodeKey::IdRecord(10, "old");
  del.type_is = InodeType::kFile;
  UpdateSpec dec;
  dec.key = InodeKey::AttrRecord(10);
  dec.children_delta = -1;
  auto op = PrimitiveOp::DeleteWithUpdate(del, dec);
  auto result = ExecutePrimitive(op, &kv_);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.deleted, 1);
  EXPECT_EQ(Children(), 0);
  EXPECT_FALSE(kv_.Contains(InodeKey::IdRecord(10, "old").Encode()));

  // Deleting again: NotFound, parent unchanged.
  auto again = ExecutePrimitive(op, &kv_);
  EXPECT_TRUE(again.status.IsNotFound());
  EXPECT_EQ(Children(), 0);
}

TEST_F(PrimitiveExecTest, DeleteDirectoryAsFileFails) {
  PrimitiveOp mkdir_op;
  mkdir_op.inserts.push_back(
      InodeRecord::MakeIdRecord(10, "subdir", 30, InodeType::kDirectory));
  ASSERT_TRUE(ExecutePrimitive(mkdir_op, &kv_).status.ok());

  DeleteSpec del;
  del.key = InodeKey::IdRecord(10, "subdir");
  del.type_is = InodeType::kFile;  // unlink() on a directory
  UpdateSpec dec;
  dec.key = InodeKey::AttrRecord(10);
  dec.children_delta = -1;
  auto result = ExecutePrimitive(PrimitiveOp::DeleteWithUpdate(del, dec), &kv_);
  EXPECT_EQ(result.status.code(), ErrorCode::kIsADirectory);
}

TEST_F(PrimitiveExecTest, ChildrenZeroPredicateEnforcesEmptiness) {
  Predicate empty_check;
  empty_check.key = InodeKey::AttrRecord(10);
  empty_check.kind = Predicate::Kind::kChildrenZero;
  PrimitiveOp op;
  op.checks.push_back(empty_check);
  auto result = ExecutePrimitive(op, &kv_);
  EXPECT_EQ(result.status.code(), ErrorCode::kNotEmpty);  // has "old"
}

TEST_F(PrimitiveExecTest, IntraDirRenameToFreshName) {
  // rename "old" -> "fresh": destination does not exist.
  InodeRecord moved = InodeRecord::MakeIdRecord(10, "fresh", 20, InodeType::kFile);
  DeleteSpec del_a;
  del_a.key = InodeKey::IdRecord(10, "old");
  del_a.type_is = InodeType::kFile;
  DeleteSpec del_b;
  del_b.key = InodeKey::IdRecord(10, "fresh");
  del_b.type_is = InodeType::kFile;
  del_b.ifexist = true;
  UpdateSpec upd;
  upd.key = InodeKey::AttrRecord(10);
  upd.children_delta_auto = true;
  upd.lww.mtime = 60;
  auto op = PrimitiveOp::InsertAndDeleteWithUpdate(moved, {del_a, del_b}, upd,
                                                   {});
  auto result = ExecutePrimitive(op, &kv_);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.deleted, 1);  // only A existed
  EXPECT_EQ(Children(), 1);      // 1 + (1 insert - 1 delete) = 1
  auto rec = ReadRecord(kv_, InodeKey::IdRecord(10, "fresh"));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->id, 20u);
  EXPECT_FALSE(kv_.Contains(InodeKey::IdRecord(10, "old").Encode()));
}

TEST_F(PrimitiveExecTest, IntraDirRenameOverExistingTarget) {
  // Add target "victim" (id 25) first.
  PrimitiveOp add;
  add.inserts.push_back(
      InodeRecord::MakeIdRecord(10, "victim", 25, InodeType::kFile));
  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(10);
  bump.children_delta = 1;
  add.updates.push_back(bump);
  ASSERT_TRUE(ExecutePrimitive(add, &kv_).status.ok());
  ASSERT_EQ(Children(), 2);

  // rename "old" -> "victim".
  InodeRecord moved =
      InodeRecord::MakeIdRecord(10, "victim", 20, InodeType::kFile);
  DeleteSpec del_a;
  del_a.key = InodeKey::IdRecord(10, "old");
  del_a.type_is = InodeType::kFile;
  DeleteSpec del_b;
  del_b.key = InodeKey::IdRecord(10, "victim");
  del_b.type_is = InodeType::kFile;
  del_b.ifexist = true;
  UpdateSpec upd;
  upd.key = InodeKey::AttrRecord(10);
  upd.children_delta_auto = true;
  auto op = PrimitiveOp::InsertAndDeleteWithUpdate(moved, {del_a, del_b}, upd,
                                                   {});
  auto result = ExecutePrimitive(op, &kv_);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.deleted, 2);  // both A and B existed
  EXPECT_EQ(Children(), 1);      // 2 + (1 - 2) = 1
  auto rec = ReadRecord(kv_, InodeKey::IdRecord(10, "victim"));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->id, 20u);  // victim now points at A's inode
}

TEST_F(PrimitiveExecTest, RenameSourceMissingFails) {
  InodeRecord moved = InodeRecord::MakeIdRecord(10, "b", 99, InodeType::kFile);
  DeleteSpec del_a;
  del_a.key = InodeKey::IdRecord(10, "missing");
  del_a.type_is = InodeType::kFile;
  UpdateSpec upd;
  upd.key = InodeKey::AttrRecord(10);
  upd.children_delta_auto = true;
  auto op = PrimitiveOp::InsertAndDeleteWithUpdate(moved, {del_a}, upd, {});
  auto result = ExecutePrimitive(op, &kv_);
  EXPECT_TRUE(result.status.IsNotFound());
  EXPECT_FALSE(kv_.Contains(InodeKey::IdRecord(10, "b").Encode()));
}

TEST_F(PrimitiveExecTest, DeltaApplyIsCommutative) {
  // Apply +1 and -1 in both orders; final children must match.
  UpdateSpec plus;
  plus.key = InodeKey::AttrRecord(10);
  plus.children_delta = 1;
  UpdateSpec minus = plus;
  minus.children_delta = -1;
  PrimitiveOp op_plus, op_minus;
  op_plus.updates.push_back(plus);
  op_minus.updates.push_back(minus);

  int64_t start = Children();
  ASSERT_TRUE(ExecutePrimitive(op_plus, &kv_).status.ok());
  ASSERT_TRUE(ExecutePrimitive(op_minus, &kv_).status.ok());
  EXPECT_EQ(Children(), start);
  ASSERT_TRUE(ExecutePrimitive(op_minus, &kv_).status.ok());
  ASSERT_TRUE(ExecutePrimitive(op_plus, &kv_).status.ok());
  EXPECT_EQ(Children(), start);
}

TEST_F(PrimitiveExecTest, LaterAppliedLwwWriteWinsAndDeltasMerge) {
  // The first write carries the larger mtime, as when it comes from an
  // engine holding a newer oracle batch: apply order decides, not mtime.
  UpdateSpec first;
  first.key = InodeKey::AttrRecord(10);
  first.children_delta = 2;
  first.lww.mtime = 100;
  first.lww.mode = 0700;
  UpdateSpec second;
  second.key = InodeKey::AttrRecord(10);
  second.children_delta = -1;
  second.lww.mtime = 42;
  second.lww.mode = 0777;

  int64_t start = Children();
  PrimitiveOp op_first, op_second;
  op_first.updates.push_back(first);
  op_second.updates.push_back(second);
  ASSERT_TRUE(ExecutePrimitive(op_first, &kv_).status.ok());
  ASSERT_TRUE(ExecutePrimitive(op_second, &kv_).status.ok());

  auto rec = ReadRecord(kv_, InodeKey::AttrRecord(10));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->mtime, 42u);  // the later-applied write wins
  EXPECT_EQ(rec->mode, 0777u);
  EXPECT_EQ(Children(), start + 1);  // both deltas merged
}

TEST_F(PrimitiveExecTest, FailedCheckLeavesNoPartialState) {
  // insert + update, but with a failing kNotExists check on an existing key.
  Predicate must_not_exist;
  must_not_exist.key = InodeKey::IdRecord(10, "old");
  must_not_exist.kind = Predicate::Kind::kNotExists;
  PrimitiveOp op;
  op.checks.push_back(must_not_exist);
  op.inserts.push_back(
      InodeRecord::MakeIdRecord(10, "partial", 77, InodeType::kFile));
  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(10);
  bump.children_delta = 1;
  op.updates.push_back(bump);

  int64_t before = Children();
  auto result = ExecutePrimitive(op, &kv_);
  EXPECT_TRUE(result.status.IsAlreadyExists());
  EXPECT_EQ(Children(), before);
  EXPECT_FALSE(kv_.Contains(InodeKey::IdRecord(10, "partial").Encode()));
}

TEST(PrimitiveCodecTest, OpEncodeDecodeRoundTrip) {
  PrimitiveOp op;
  Predicate check;
  check.key = InodeKey::AttrRecord(5);
  check.kind = Predicate::Kind::kExistsWithType;
  check.type = InodeType::kDirectory;
  check.ifexist = true;
  op.checks.push_back(check);
  DeleteSpec del;
  del.key = InodeKey::IdRecord(5, "gone");
  del.ifexist = true;
  del.type_is = InodeType::kFile;
  op.deletes.push_back(del);
  op.inserts.push_back(InodeRecord::MakeIdRecord(5, "new", 9, InodeType::kFile));
  op.puts.push_back(InodeRecord::MakeDirAttr(9, 3, 0711, 1, 2));
  UpdateSpec upd;
  upd.key = InodeKey::AttrRecord(5);
  upd.children_delta = -2;
  upd.links_delta = 3;
  upd.size_delta = -100;
  upd.children_delta_auto = true;
  upd.must_exist = false;
  upd.lww.mtime = 11;
  upd.lww.mode = 0644;
  upd.lww.size = -5;
  op.updates.push_back(upd);
  op.epoch_dir = 5;

  auto decoded = PrimitiveOp::Decode(op.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->checks.size(), 1u);
  EXPECT_EQ(decoded->checks[0].kind, Predicate::Kind::kExistsWithType);
  EXPECT_TRUE(decoded->checks[0].ifexist);
  ASSERT_EQ(decoded->deletes.size(), 1u);
  EXPECT_EQ(*decoded->deletes[0].type_is, InodeType::kFile);
  ASSERT_EQ(decoded->inserts.size(), 1u);
  EXPECT_EQ(decoded->inserts[0].id, 9u);
  ASSERT_EQ(decoded->puts.size(), 1u);
  EXPECT_EQ(decoded->puts[0].mode, 0711u);
  ASSERT_EQ(decoded->updates.size(), 1u);
  EXPECT_EQ(decoded->updates[0].children_delta, -2);
  EXPECT_EQ(decoded->updates[0].links_delta, 3);
  EXPECT_EQ(decoded->updates[0].size_delta, -100);
  EXPECT_TRUE(decoded->updates[0].children_delta_auto);
  EXPECT_FALSE(decoded->updates[0].must_exist);
  EXPECT_EQ(*decoded->updates[0].lww.mtime, 11u);
  EXPECT_EQ(*decoded->updates[0].lww.size, -5);
  EXPECT_EQ(decoded->epoch_dir, 5u);
}

TEST(PrimitiveCodecTest, ResultRoundTrip) {
  PrimitiveResult r;
  r.status = Status::NotEmpty("dir");
  r.deleted = 3;
  r.deleted_records.push_back(
      InodeRecord::MakeIdRecord(5, "gone", 9, InodeType::kFile));
  r.changes.since = 5;
  r.changes.epoch = 7;
  r.changes.covered = true;
  r.changes.names = {"a", "b"};
  auto decoded = PrimitiveResult::Decode(r.Encode());
  EXPECT_EQ(decoded.status.code(), ErrorCode::kNotEmpty);
  EXPECT_EQ(decoded.status.message(), "dir");
  EXPECT_EQ(decoded.deleted, 3);
  ASSERT_EQ(decoded.deleted_records.size(), 1u);
  EXPECT_EQ(decoded.deleted_records[0].id, 9u);
  EXPECT_EQ(decoded.changes.since, 5u);
  EXPECT_EQ(decoded.changes.epoch, 7u);
  EXPECT_TRUE(decoded.changes.covered);
  EXPECT_EQ(decoded.changes.names, (std::vector<std::string>{"a", "b"}));
}

// Applies shard commands to a bare state machine, one request id each.
class ShardSmHarness {
 public:
  ShardSmHarness() {
    PrimitiveOp mkdir;
    mkdir.inserts.push_back(InodeRecord::MakeDirAttr(kDir, 1, 0755, 0, 0));
    EXPECT_TRUE(Apply(mkdir).status.ok());
  }

  static constexpr InodeId kDir = 10;

  PrimitiveResult Apply(const PrimitiveOp& op) { return Apply(++seq_, op); }
  PrimitiveResult Apply(uint64_t request_id, const PrimitiveOp& op) {
    ShardCommand cmd;
    cmd.request_id = request_id;
    cmd.op = op;
    return PrimitiveResult::Decode(sm_.Apply(request_id, cmd.Encode()));
  }

  // A change to kDir: creates `name` (or unlinks it) and names kDir as the
  // op's epoch_dir.
  PrimitiveResult Create(const std::string& name, uint64_t since = 0) {
    PrimitiveOp op;
    op.inserts.push_back(
        InodeRecord::MakeIdRecord(kDir, name, 100, InodeType::kFile));
    op.epoch_dir = kDir;
    op.epoch_since = since;
    return Apply(op);
  }
  PrimitiveResult Unlink(const std::string& name, uint64_t since = 0) {
    DeleteSpec del;
    del.key = InodeKey::IdRecord(kDir, name);
    UpdateSpec upd;
    upd.key = InodeKey::AttrRecord(kDir);
    auto op = PrimitiveOp::DeleteWithUpdate(del, upd);
    op.epoch_dir = kDir;
    op.epoch_since = since;
    return Apply(op);
  }

  TafDbShardSm& sm() { return sm_; }

 private:
  TafDbShardSm sm_;
  uint64_t seq_ = 1000;
};

// Directory epochs are shard state: bumped in apply only when the op
// succeeds, replayed (not bumped again) for a retried request id, and
// carried by the snapshot.
TEST(TafDbShardSmTest, DirEpochBumpsInApplyAndSurvivesSnapshot) {
  ShardSmHarness h;
  EXPECT_EQ(h.sm().DirChangesSince(10, 0).epoch, 0u);

  PrimitiveOp create;
  create.inserts.push_back(
      InodeRecord::MakeIdRecord(10, "f", 20, InodeType::kFile));
  create.epoch_dir = 10;
  PrimitiveResult first = h.Apply(2, create);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.changes.epoch, 1u);
  EXPECT_EQ(h.Apply(2, create).changes.epoch, 1u);  // retried: replayed
  PrimitiveResult duplicate = h.Apply(3, create);
  EXPECT_TRUE(duplicate.status.IsAlreadyExists());
  EXPECT_EQ(duplicate.changes.epoch, 0u);
  EXPECT_EQ(h.sm().DirChangesSince(10, 0).epoch, 1u);

  TafDbShardSm restored;
  ASSERT_TRUE(restored.Restore(h.sm().Snapshot()).ok());
  EXPECT_EQ(restored.DirChangesSince(10, 0).epoch, 1u);
  EXPECT_EQ(restored.DirChangesSince(11, 0).epoch, 0u);
}

// A bump journals the names of the epoch_dir dentries its op deleted,
// inserted or put; attribute records and other directories' keys are not
// names. The op's result carries the slice since its epoch_since.
TEST(TafDbShardSmTest, BumpJournalsTouchedNames) {
  ShardSmHarness h;
  ASSERT_TRUE(h.Create("a").status.ok());
  ASSERT_TRUE(h.Create("b").status.ok());

  // Fast-path-rename shape: delete a, delete b (ifexist), insert b, and an
  // update of the parent's attribute record.
  DeleteSpec del_a;
  del_a.key = InodeKey::IdRecord(ShardSmHarness::kDir, "a");
  DeleteSpec del_b;
  del_b.key = InodeKey::IdRecord(ShardSmHarness::kDir, "b");
  del_b.ifexist = true;
  UpdateSpec upd;
  upd.key = InodeKey::AttrRecord(ShardSmHarness::kDir);
  auto rename = PrimitiveOp::InsertAndDeleteWithUpdate(
      InodeRecord::MakeIdRecord(ShardSmHarness::kDir, "b", 100,
                                InodeType::kFile),
      {del_a, del_b}, upd, {});
  rename.puts.push_back(InodeRecord::MakeIdRecord(11, "elsewhere", 101,
                                                  InodeType::kFile));
  rename.epoch_dir = ShardSmHarness::kDir;
  rename.epoch_since = 2;
  PrimitiveResult result = h.Apply(rename);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.changes.since, 2u);
  EXPECT_EQ(result.changes.epoch, 3u);
  EXPECT_TRUE(result.changes.covered);
  EXPECT_EQ(result.changes.names, (std::vector<std::string>{"a", "b"}));

  DirChanges all = h.sm().DirChangesSince(ShardSmHarness::kDir, 0);
  EXPECT_TRUE(all.covered);
  EXPECT_EQ(all.epoch, 3u);
  EXPECT_EQ(all.names.size(), 2u);  // a and b, each once
  DirChanges none = h.sm().DirChangesSince(ShardSmHarness::kDir, 3);
  EXPECT_TRUE(none.covered);
  EXPECT_TRUE(none.names.empty());
}

// A failed op bumps and journals nothing; a replayed request id returns
// its first result without journaling again.
TEST(TafDbShardSmTest, FailedOrReplayedOpJournalsNothing) {
  ShardSmHarness h;
  EXPECT_TRUE(h.Unlink("missing").status.IsNotFound());
  DirChanges after_failure = h.sm().DirChangesSince(ShardSmHarness::kDir, 0);
  EXPECT_EQ(after_failure.epoch, 0u);
  EXPECT_TRUE(after_failure.names.empty());

  PrimitiveOp create;
  create.inserts.push_back(InodeRecord::MakeIdRecord(
      ShardSmHarness::kDir, "x", 100, InodeType::kFile));
  create.epoch_dir = ShardSmHarness::kDir;
  ASSERT_TRUE(h.Apply(7, create).status.ok());
  PrimitiveResult replay = h.Apply(7, create);
  EXPECT_TRUE(replay.status.ok());
  EXPECT_EQ(replay.changes.epoch, 1u);
  DirChanges changes = h.sm().DirChangesSince(ShardSmHarness::kDir, 0);
  EXPECT_EQ(changes.epoch, 1u);
  EXPECT_EQ(changes.names, (std::vector<std::string>{"x"}));
}

// The journal stops covering a view when a bump names no dentry (the
// floor jumps to that bump), when it trims past kJournalDepth bumps, and
// after a snapshot restore (floor = epoch).
TEST(TafDbShardSmTest, UncoveredAfterNamelessBumpTrimAndRestore) {
  ShardSmHarness h;
  ASSERT_TRUE(h.Create("a").status.ok());  // epoch 1

  PrimitiveOp setattr;
  UpdateSpec upd;
  upd.key = InodeKey::AttrRecord(ShardSmHarness::kDir);
  upd.lww.mode = 0700;
  setattr.updates.push_back(upd);
  setattr.epoch_dir = ShardSmHarness::kDir;
  setattr.epoch_since = 1;
  PrimitiveResult nameless = h.Apply(setattr);  // epoch 2, no names
  ASSERT_TRUE(nameless.status.ok());
  EXPECT_EQ(nameless.changes.epoch, 2u);
  EXPECT_FALSE(nameless.changes.covered);
  EXPECT_FALSE(h.sm().DirChangesSince(ShardSmHarness::kDir, 1).covered);
  EXPECT_TRUE(h.sm().DirChangesSince(ShardSmHarness::kDir, 2).covered);

  // Trim: after kJournalDepth more bumps, the first of them falls off.
  for (size_t i = 0; i < TafDbShardSm::kJournalDepth + 1; i++) {
    ASSERT_TRUE(h.Create("f" + std::to_string(i)).status.ok());
  }
  uint64_t epoch = 2 + TafDbShardSm::kJournalDepth + 1;
  EXPECT_EQ(h.sm().DirChangesSince(ShardSmHarness::kDir, 0).epoch, epoch);
  EXPECT_FALSE(h.sm().DirChangesSince(ShardSmHarness::kDir, 2).covered);
  DirChanges tail = h.sm().DirChangesSince(ShardSmHarness::kDir, 3);
  EXPECT_TRUE(tail.covered);
  EXPECT_EQ(tail.names.size(), TafDbShardSm::kJournalDepth);

  TafDbShardSm restored;
  ASSERT_TRUE(restored.Restore(h.sm().Snapshot()).ok());
  EXPECT_FALSE(restored.DirChangesSince(ShardSmHarness::kDir, epoch - 1)
                   .covered);
  DirChanges current = restored.DirChangesSince(ShardSmHarness::kDir, epoch);
  EXPECT_TRUE(current.covered);
  EXPECT_TRUE(current.names.empty());
}

// ---------- raft-backed shard & cluster ----------

RaftOptions FastRaft() {
  RaftOptions options;
  options.election_timeout_min_ms = 50;
  options.election_timeout_max_ms = 100;
  options.heartbeat_interval_ms = 20;
  return options;
}

class TafDbClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TafDbOptions options;
    options.num_shards = 2;
    options.replicas = 3;
    options.range_stripe_width = 4;
    options.raft = FastRaft();
    cluster_ = std::make_unique<TafDbCluster>(
        &net_, std::vector<uint32_t>{0, 1, 2, 3, 4, 5}, options);
    ASSERT_TRUE(cluster_->Start().ok());
  }

  void TearDown() override { cluster_->Stop(); }

  SimNet net_;
  std::unique_ptr<TafDbCluster> cluster_;
};

TEST_F(TafDbClusterTest, RootExistsAfterBootstrap) {
  auto root = cluster_->ShardFor(kRootInode)->Get(InodeKey::AttrRecord(kRootInode));
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->type, InodeType::kDirectory);
}

TEST_F(TafDbClusterTest, ExecutePrimitiveThroughRaft) {
  InodeId dir = kRootInode;
  Predicate parent_exists;
  parent_exists.key = InodeKey::AttrRecord(dir);
  parent_exists.kind = Predicate::Kind::kExistsWithType;
  parent_exists.type = InodeType::kDirectory;
  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(dir);
  bump.children_delta = 1;
  auto op = PrimitiveOp::InsertWithUpdate(
      InodeRecord::MakeIdRecord(dir, "f1", 100, InodeType::kFile),
      parent_exists, bump);
  auto result = cluster_->ShardFor(dir)->ExecutePrimitive(op);
  ASSERT_TRUE(result.status.ok()) << result.status;
  auto rec = cluster_->ShardFor(dir)->Get(InodeKey::IdRecord(dir, "f1"));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->id, 100u);
}

TEST_F(TafDbClusterTest, RangePartitionKeepsDirectoryTogether) {
  // Every key of one directory maps to the same shard.
  for (InodeId dir : {1ULL, 5ULL, 100ULL, 12345ULL}) {
    size_t attr_shard = cluster_->ShardIndexFor(dir);
    EXPECT_EQ(cluster_->ShardIndexFor(dir), attr_shard);
  }
  // Different stripes spread across shards.
  std::set<size_t> seen;
  for (InodeId dir = 0; dir < 64; dir += 4) {
    seen.insert(cluster_->ShardIndexFor(dir));
  }
  EXPECT_EQ(seen.size(), cluster_->num_shards());
}

TEST_F(TafDbClusterTest, ScanDirReturnsChildrenSorted) {
  InodeId dir = kRootInode;
  for (const char* name : {"charlie", "alpha", "bravo"}) {
    PrimitiveOp op;
    op.inserts.push_back(
        InodeRecord::MakeIdRecord(dir, name, 200 + name[0], InodeType::kFile));
    ASSERT_TRUE(cluster_->ShardFor(dir)->ExecutePrimitive(op).status.ok());
  }
  auto rows = cluster_->ShardFor(dir)->ScanDir(dir, "", 0);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0].key.kstr, "alpha");
  EXPECT_EQ((*rows)[1].key.kstr, "bravo");
  EXPECT_EQ((*rows)[2].key.kstr, "charlie");

  // Pagination: continue after "alpha", limit 1.
  auto page = cluster_->ShardFor(dir)->ScanDir(dir, "alpha", 1);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page->size(), 1u);
  EXPECT_EQ((*page)[0].key.kstr, "bravo");
}

TEST_F(TafDbClusterTest, ConcurrentPrimitivesOnSharedParentAllSucceed) {
  InodeId dir = kRootInode;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        std::string name =
            "c" + std::to_string(t) + "_" + std::to_string(i);
        Predicate parent_exists;
        parent_exists.key = InodeKey::AttrRecord(dir);
        parent_exists.kind = Predicate::Kind::kExistsWithType;
        parent_exists.type = InodeType::kDirectory;
        UpdateSpec bump;
        bump.key = InodeKey::AttrRecord(dir);
        bump.children_delta = 1;
        bump.lww.mtime = static_cast<uint64_t>(t * 1000 + i);
        auto op = PrimitiveOp::InsertWithUpdate(
            InodeRecord::MakeIdRecord(dir, name,
                                      1000 + static_cast<InodeId>(t * 100 + i),
                                      InodeType::kFile),
            parent_exists, bump);
        if (cluster_->ShardFor(dir)->ExecutePrimitive(op).status.ok()) ok++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  // Delta-applied children counter must equal the number of inserts: no
  // lost updates despite full contention on one record.
  auto attr = cluster_->ShardFor(dir)->Get(InodeKey::AttrRecord(dir));
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->children, kThreads * kPerThread);
}

// A primitive's write batch is visible whole to leader-served reads: one
// name flips between "a" and "b" by one-primitive renames through raft
// while a reader lists the directory, and every listing holds exactly one
// of the two names.
TEST_F(TafDbClusterTest, ScanDirNeverSeesHalfARename) {
  constexpr InodeId kDir = 40;
  TafDbShard* shard = cluster_->ShardFor(kDir);
  PrimitiveOp create;
  create.inserts.push_back(
      InodeRecord::MakeIdRecord(kDir, "a", 500, InodeType::kFile));
  ASSERT_TRUE(shard->ExecutePrimitive(create).status.ok());
  std::atomic<bool> done{false};
  std::atomic<int> scans{0};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto rows = shard->ScanDir(kDir, "", 0);
      if (rows.ok() && rows->size() != 1) torn.fetch_add(1);
      scans.fetch_add(1);
    }
  });
  for (int i = 0; i < 3000; i++) {
    const std::string from = i % 2 == 0 ? "a" : "b";
    const std::string to = i % 2 == 0 ? "b" : "a";
    PrimitiveOp rename;
    DeleteSpec del;
    del.key = InodeKey::IdRecord(kDir, from);
    rename.deletes.push_back(del);
    rename.inserts.push_back(
        InodeRecord::MakeIdRecord(kDir, to, 500, InodeType::kFile));
    EXPECT_TRUE(shard->ExecutePrimitive(rename).status.ok()) << i;
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0) << "of " << scans.load() << " listings";
}

TEST_F(TafDbClusterTest, TwoPhaseCommitAcrossShards) {
  // Find two kids on different shards.
  InodeId kid_a = 1, kid_b = 0;
  for (InodeId k = 2; k < 100; k++) {
    if (cluster_->ShardIndexFor(k) != cluster_->ShardIndexFor(kid_a)) {
      kid_b = k;
      break;
    }
  }
  ASSERT_NE(kid_b, 0u);
  // Bootstrap attr record for kid_b's directory.
  PrimitiveOp mk;
  mk.inserts.push_back(InodeRecord::MakeDirAttr(kid_b, 1, 0755, 0, 0));
  ASSERT_TRUE(cluster_->ShardFor(kid_b)->ExecutePrimitive(mk).status.ok());

  TafDbShard* shard_a = cluster_->ShardFor(kid_a);
  TafDbShard* shard_b = cluster_->ShardFor(kid_b);
  TxnId txn = 777;

  PrimitiveOp write_a;
  write_a.puts.push_back(
      InodeRecord::MakeIdRecord(kid_a, "cross", 500, InodeType::kFile));
  PrimitiveOp write_b;
  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(kid_b);
  bump.children_delta = 1;
  write_b.updates.push_back(bump);

  ASSERT_TRUE(shard_a->Stage(txn, write_a).ok());
  ASSERT_TRUE(shard_b->Stage(txn, write_b).ok());

  NodeId coord = net_.AddNode("coordinator", 0);
  TwoPhaseCommit tpc(&net_);
  ASSERT_TRUE(tpc.Run(coord, {shard_a, shard_b}, txn).ok());

  auto rec = shard_a->Get(InodeKey::IdRecord(kid_a, "cross"));
  ASSERT_TRUE(rec.ok());
  auto attr = shard_b->Get(InodeKey::AttrRecord(kid_b));
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->children, 1);
}

TEST_F(TafDbClusterTest, AbortedTwoPhaseCommitLeavesNoState) {
  TafDbShard* shard = cluster_->ShardFor(kRootInode);
  TxnId txn = 888;
  PrimitiveOp write;
  write.puts.push_back(
      InodeRecord::MakeIdRecord(kRootInode, "phantom", 600, InodeType::kFile));
  ASSERT_TRUE(shard->Stage(txn, write).ok());
  ASSERT_TRUE(shard->Prepare(txn).ok());
  ASSERT_TRUE(shard->Abort(txn).ok());
  EXPECT_TRUE(
      shard->Get(InodeKey::IdRecord(kRootInode, "phantom")).status().IsNotFound());
}

TEST_F(TafDbClusterTest, CdcFeedSeesCommittedPrimitives) {
  TafDbShard* shard = cluster_->ShardFor(kRootInode);
  PrimitiveOp op;
  op.inserts.push_back(
      InodeRecord::MakeIdRecord(kRootInode, "cdc-file", 700, InodeType::kFile));
  ASSERT_TRUE(shard->ExecutePrimitive(op).status.ok());
  auto feed = shard->ReadCommittedSince(0, 1000);
  bool found = false;
  for (auto& [index, cmd] : feed) {
    for (auto& ins : cmd.op.inserts) {
      if (ins.key.kstr == "cdc-file") found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TafDbClusterTest, TimestampAndIdServicesAreDistinctAndMonotonic) {
  uint64_t ts1 = cluster_->ts_oracle()->Next();
  uint64_t ts2 = cluster_->ts_oracle()->Next();
  EXPECT_GT(ts2, ts1);
  InodeId id1 = cluster_->id_allocator()->Next();
  EXPECT_GT(id1, kRootInode);
}

}  // namespace
}  // namespace cfs
