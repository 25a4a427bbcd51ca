// Single-shard atomic primitives (paper §4.2, Table 2).
//
// A PrimitiveOp is a parameterized command bundling the reads, conditional
// checks, and writes of one metadata request. The shard's raft state
// machine executes it in one step: predicates are evaluated against shard
// state and, only if all pass, every mutation is applied in a single
// write batch. Isolation comes from the shard's serial apply — no row
// locks are taken — and atomicity from the all-or-nothing evaluation.
//
// Conflict reconciliation (§4.2) is encoded in the update specs:
//   - numeric fields (children/links/size) carry signed DELTAS, which are
//     commutative, so concurrent updates of a shared parent directory merge
//     instead of conflicting ("delta apply");
//   - clock/permission fields carry absolute values applied last-writer-
//     wins in the shard's raft apply order. Each record lives in exactly
//     one shard, whose log totally orders its writes, and an op that starts
//     after another has returned also applies after it; no timestamp is
//     compared. The mtime/ctime values are the writer's oracle timestamps,
//     so a later-applied write from an engine holding an older timestamp
//     batch may set an older mtime.
//
// The same op structure doubles as the buffered write set of lock-based
// transactions. The baselines' `puts` carry absolute record images computed
// under locks; CFS-base commits its attribute changes as update specs, so
// they merge with the Renamer's reparent instead of overwriting it.

#ifndef CFS_TAFDB_PRIMITIVES_H_
#define CFS_TAFDB_PRIMITIVES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/kv/kvstore.h"
#include "src/tafdb/schema.h"

namespace cfs {

// A conditional check over one record, evaluated before any mutation.
struct Predicate {
  enum class Kind : uint8_t {
    kExists = 0,         // record must exist
    kNotExists = 1,      // record must be absent
    kExistsWithType = 2, // record must exist and have `type`
    kChildrenZero = 3,   // directory emptiness check ("children = 0")
  };

  InodeKey key;
  Kind kind = Kind::kExists;
  InodeType type = InodeType::kNone;
  // Softens kExistsWithType: an absent record passes, but a present record
  // with the wrong type still fails (the rename "ifexist" keyword).
  bool ifexist = false;
};

// Deletion of one record, with its own inline existence/type conditions.
struct DeleteSpec {
  InodeKey key;
  bool ifexist = false;  // absent target is not an error (counts 0)
  std::optional<InodeType> type_is;  // fail unless the record has this type
  // unlink/rename guard: fail with kIsADirectory if the record is a
  // directory (files and symlinks both pass).
  bool forbid_directory = false;
  // When nonzero, the record's inode id must match (ABA guard against the
  // entry being replaced between resolution and execution). Also the
  // pairing hint the garbage collector uses to match this namespace
  // removal with the corresponding attribute-record deletion (§4.4).
  InodeId hint_id = kInvalidInode;
  // True on unlink/rmdir-style deletes: the inode's attribute record is
  // supposed to be cleaned up afterwards, and the GC reclaims it if the
  // cleanup never arrives. False on rename-style deletes, whose inode is
  // re-linked elsewhere (possibly on another shard, ingested in any order).
  bool expect_attr_cleanup = false;
};

// Last-writer-wins absolute assignments; the later-applied write wins.
struct LwwAssign {
  std::optional<uint64_t> mtime;
  std::optional<uint64_t> ctime;
  std::optional<uint32_t> mode;
  std::optional<uint32_t> uid;
  std::optional<uint32_t> gid;
  std::optional<int64_t> size;  // absolute size (setattr/truncate)
  // Reparenting (normal-path directory rename, §4.3): moves the directory's
  // ancestor backpointer.
  std::optional<InodeId> parent;
};

// One record update: commutative deltas + LWW sets.
struct UpdateSpec {
  InodeKey key;
  int64_t children_delta = 0;
  int64_t links_delta = 0;
  int64_t size_delta = 0;
  LwwAssign lww;
  // rename support: children_delta is computed inside the shard as
  // (#inserts - #records actually deleted) — "determined by TafDB internal"
  // (paper §4.3).
  bool children_delta_auto = false;
  bool must_exist = true;
};

// The parameterized single-shard command.
struct PrimitiveOp {
  std::vector<Predicate> checks;
  std::vector<DeleteSpec> deletes;
  std::vector<InodeRecord> inserts;  // fail kAlreadyExists on existing key
  std::vector<InodeRecord> puts;     // absolute upserts (lock-based txns)
  std::vector<UpdateSpec> updates;
  // Directory whose mutation epoch (client dentry-cache coherence, DESIGN.md
  // §8) this op bumps when it applies successfully. The bump happens in the
  // shard's raft apply, so it is ordered with the mutation on every replica,
  // and journals the names of the epoch_dir dentries the op touched.
  InodeId epoch_dir = kInvalidInode;
  // The issuer's view of epoch_dir's epoch: the result carries the
  // directory's changes since this epoch (PrimitiveResult::changes).
  uint64_t epoch_since = 0;

  bool empty() const {
    return checks.empty() && deletes.empty() && inserts.empty() &&
           puts.empty() && updates.empty();
  }

  std::string Encode() const;
  static StatusOr<PrimitiveOp> Decode(std::string_view data);

  // ---- builders matching Table 2 / Figure 8 ----

  // insert_with_update: create / mkdir / symlink / link.
  static PrimitiveOp InsertWithUpdate(InodeRecord insert, Predicate check,
                                      UpdateSpec update);
  // delete_with_update: unlink / rmdir.
  static PrimitiveOp DeleteWithUpdate(DeleteSpec del, UpdateSpec update,
                                      std::vector<Predicate> checks = {});
  // insert_and_delete_with_update: intra-directory rename.
  static PrimitiveOp InsertAndDeleteWithUpdate(InodeRecord insert,
                                               std::vector<DeleteSpec> dels,
                                               UpdateSpec update,
                                               std::vector<Predicate> checks);
};

// A slice of one directory's change journal: the names of the dentries the
// bumps in (since, epoch] touched. `covered` is false when the journal no
// longer reaches back to `since` (trimmed, cleared by a bump that named no
// dentry, or restored from a snapshot); `names` is then empty and only
// `epoch` is meaningful.
struct DirChanges {
  uint64_t since = 0;
  uint64_t epoch = 0;
  bool covered = false;
  std::vector<std::string> names;
};

struct PrimitiveResult {
  PrimitiveResult() = default;
  // A failed result (SimNet::Call returns its delivery error this way).
  PrimitiveResult(Status s) : status(std::move(s)) {}  // NOLINT

  Status status;
  int64_t deleted = 0;  // records actually deleted (rename's auto delta)
  // Images of the records this op deleted, in delete order. Multi-step
  // operations (rmdir, normal-path rename) use these to restore state
  // exactly when a later step loses a race (compensation).
  std::vector<InodeRecord> deleted_records;
  // epoch_dir's changes since the op's epoch_since, read right after the
  // op's own bump (so changes.epoch is the bumped epoch); all zero when the
  // op names no epoch_dir or failed.
  DirChanges changes;

  std::string Encode() const;
  static PrimitiveResult Decode(std::string_view data);
};

// Executes `op` atomically against `kv`. The caller guarantees serial
// execution (the raft apply loop). Reads current state, evaluates every
// predicate and implicit check, then applies all mutations as one batch.
PrimitiveResult ExecutePrimitive(const PrimitiveOp& op, KvStore* kv);

// Reads one record from shard state.
StatusOr<InodeRecord> ReadRecord(const KvStore& kv, const InodeKey& key);

// Merges one UpdateSpec into a record: delta-apply for numeric fields,
// last-writer-wins for timestamp/permission fields. `auto_children_delta`
// replaces the spec's children delta when children_delta_auto is set.
// Shared by TafDB shard apply and FileStore attribute merges.
void ApplyUpdateToRecord(const UpdateSpec& update, int64_t auto_children_delta,
                         InodeRecord* record);

}  // namespace cfs

#endif  // CFS_TAFDB_PRIMITIVES_H_
