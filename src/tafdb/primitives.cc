#include "src/tafdb/primitives.h"

#include <map>

#include "src/common/encoding.h"

namespace cfs {
namespace {

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void PutKey(std::string* out, const InodeKey& key) {
  PutLengthPrefixed(out, key.Encode());
}

bool GetKey(Decoder* dec, InodeKey* key) {
  std::string_view raw;
  if (!dec->GetLengthPrefixed(&raw)) return false;
  auto decoded = InodeKey::Decode(raw);
  if (!decoded.ok()) return false;
  *key = std::move(decoded).value();
  return true;
}

void PutRecord(std::string* out, const InodeRecord& rec) {
  PutKey(out, rec.key);
  PutLengthPrefixed(out, rec.EncodeValue());
}

bool GetRecord(Decoder* dec, InodeRecord* rec) {
  InodeKey key;
  std::string_view value;
  if (!GetKey(dec, &key) || !dec->GetLengthPrefixed(&value)) return false;
  auto decoded = InodeRecord::DecodeValue(key, value);
  if (!decoded.ok()) return false;
  *rec = std::move(decoded).value();
  return true;
}

// Maps a type-check failure to the POSIX-style error the callers surface.
Status TypeMismatch(InodeType expected, InodeType actual) {
  if (expected == InodeType::kDirectory && actual != InodeType::kDirectory) {
    return Status::NotADirectory();
  }
  if (expected != InodeType::kDirectory && actual == InodeType::kDirectory) {
    return Status::IsADirectory();
  }
  return Status::InvalidArgument("inode type mismatch");
}

}  // namespace

PrimitiveOp PrimitiveOp::InsertWithUpdate(InodeRecord insert, Predicate check,
                                          UpdateSpec update) {
  PrimitiveOp op;
  op.inserts.push_back(std::move(insert));
  op.checks.push_back(std::move(check));
  op.updates.push_back(std::move(update));
  return op;
}

PrimitiveOp PrimitiveOp::DeleteWithUpdate(DeleteSpec del, UpdateSpec update,
                                          std::vector<Predicate> checks) {
  PrimitiveOp op;
  op.deletes.push_back(std::move(del));
  op.updates.push_back(std::move(update));
  op.checks = std::move(checks);
  return op;
}

PrimitiveOp PrimitiveOp::InsertAndDeleteWithUpdate(
    InodeRecord insert, std::vector<DeleteSpec> dels, UpdateSpec update,
    std::vector<Predicate> checks) {
  PrimitiveOp op;
  op.inserts.push_back(std::move(insert));
  op.deletes = std::move(dels);
  op.updates.push_back(std::move(update));
  op.checks = std::move(checks);
  return op;
}

std::string PrimitiveOp::Encode() const {
  std::string out;
  PutVarint64(&out, checks.size());
  for (const auto& c : checks) {
    PutKey(&out, c.key);
    out.push_back(static_cast<char>(c.kind));
    out.push_back(static_cast<char>(c.type));
    out.push_back(c.ifexist ? 1 : 0);
  }
  PutVarint64(&out, deletes.size());
  for (const auto& d : deletes) {
    PutKey(&out, d.key);
    out.push_back(d.ifexist ? 1 : 0);
    out.push_back(d.type_is.has_value() ? 1 : 0);
    out.push_back(d.type_is.has_value() ? static_cast<char>(*d.type_is) : 0);
    out.push_back(d.forbid_directory ? 1 : 0);
    out.push_back(d.expect_attr_cleanup ? 1 : 0);
    PutVarint64(&out, d.hint_id);
  }
  PutVarint64(&out, inserts.size());
  for (const auto& r : inserts) PutRecord(&out, r);
  PutVarint64(&out, puts.size());
  for (const auto& r : puts) PutRecord(&out, r);
  PutVarint64(&out, updates.size());
  for (const auto& u : updates) {
    PutKey(&out, u.key);
    PutVarint64(&out, ZigZag(u.children_delta));
    PutVarint64(&out, ZigZag(u.links_delta));
    PutVarint64(&out, ZigZag(u.size_delta));
    out.push_back(u.children_delta_auto ? 1 : 0);
    out.push_back(u.must_exist ? 1 : 0);
    uint32_t lww_bits = (u.lww.mtime ? 1u : 0) | (u.lww.ctime ? 2u : 0) |
                        (u.lww.mode ? 4u : 0) | (u.lww.uid ? 8u : 0) |
                        (u.lww.gid ? 16u : 0) | (u.lww.size ? 32u : 0) |
                        (u.lww.parent ? 64u : 0);
    PutVarint32(&out, lww_bits);
    if (u.lww.mtime) PutVarint64(&out, *u.lww.mtime);
    if (u.lww.ctime) PutVarint64(&out, *u.lww.ctime);
    if (u.lww.mode) PutVarint32(&out, *u.lww.mode);
    if (u.lww.uid) PutVarint32(&out, *u.lww.uid);
    if (u.lww.gid) PutVarint32(&out, *u.lww.gid);
    if (u.lww.size) PutVarint64(&out, ZigZag(*u.lww.size));
    if (u.lww.parent) PutVarint64(&out, *u.lww.parent);
  }
  PutVarint64(&out, epoch_dir);
  PutVarint64(&out, epoch_since);
  return out;
}

StatusOr<PrimitiveOp> PrimitiveOp::Decode(std::string_view data) {
  Decoder dec(data);
  PrimitiveOp op;
  auto fail = [] { return Status::Corruption("primitive op truncated"); };
  uint64_t n;

  if (!dec.GetVarint64(&n)) return fail();
  for (uint64_t i = 0; i < n; i++) {
    Predicate c;
    if (!GetKey(&dec, &c.key) || dec.remaining() < 3) return fail();
    c.kind = static_cast<Predicate::Kind>(dec.rest()[0]);
    c.type = static_cast<InodeType>(dec.rest()[1]);
    c.ifexist = dec.rest()[2] != 0;
    dec = Decoder(dec.rest().substr(3));
    op.checks.push_back(std::move(c));
  }

  if (!dec.GetVarint64(&n)) return fail();
  for (uint64_t i = 0; i < n; i++) {
    DeleteSpec d;
    if (!GetKey(&dec, &d.key) || dec.remaining() < 4) return fail();
    d.ifexist = dec.rest()[0] != 0;
    bool has_type = dec.rest()[1] != 0;
    if (has_type) d.type_is = static_cast<InodeType>(dec.rest()[2]);
    d.forbid_directory = dec.rest()[3] != 0;
    if (dec.remaining() < 5) return fail();
    d.expect_attr_cleanup = dec.rest()[4] != 0;
    dec = Decoder(dec.rest().substr(5));
    if (!dec.GetVarint64(&d.hint_id)) return fail();
    op.deletes.push_back(std::move(d));
  }

  if (!dec.GetVarint64(&n)) return fail();
  for (uint64_t i = 0; i < n; i++) {
    InodeRecord r;
    if (!GetRecord(&dec, &r)) return fail();
    op.inserts.push_back(std::move(r));
  }
  if (!dec.GetVarint64(&n)) return fail();
  for (uint64_t i = 0; i < n; i++) {
    InodeRecord r;
    if (!GetRecord(&dec, &r)) return fail();
    op.puts.push_back(std::move(r));
  }

  if (!dec.GetVarint64(&n)) return fail();
  for (uint64_t i = 0; i < n; i++) {
    UpdateSpec u;
    uint64_t z;
    if (!GetKey(&dec, &u.key)) return fail();
    if (!dec.GetVarint64(&z)) return fail();
    u.children_delta = UnZigZag(z);
    if (!dec.GetVarint64(&z)) return fail();
    u.links_delta = UnZigZag(z);
    if (!dec.GetVarint64(&z)) return fail();
    u.size_delta = UnZigZag(z);
    if (dec.remaining() < 2) return fail();
    u.children_delta_auto = dec.rest()[0] != 0;
    u.must_exist = dec.rest()[1] != 0;
    dec = Decoder(dec.rest().substr(2));
    uint32_t bits;
    if (!dec.GetVarint32(&bits)) return fail();
    uint64_t u64;
    uint32_t u32;
    if (bits & 1) {
      if (!dec.GetVarint64(&u64)) return fail();
      u.lww.mtime = u64;
    }
    if (bits & 2) {
      if (!dec.GetVarint64(&u64)) return fail();
      u.lww.ctime = u64;
    }
    if (bits & 4) {
      if (!dec.GetVarint32(&u32)) return fail();
      u.lww.mode = u32;
    }
    if (bits & 8) {
      if (!dec.GetVarint32(&u32)) return fail();
      u.lww.uid = u32;
    }
    if (bits & 16) {
      if (!dec.GetVarint32(&u32)) return fail();
      u.lww.gid = u32;
    }
    if (bits & 32) {
      if (!dec.GetVarint64(&u64)) return fail();
      u.lww.size = UnZigZag(u64);
    }
    if (bits & 64) {
      if (!dec.GetVarint64(&u64)) return fail();
      u.lww.parent = u64;
    }
    op.updates.push_back(std::move(u));
  }
  if (!dec.GetVarint64(&op.epoch_dir) || !dec.GetVarint64(&op.epoch_since)) {
    return fail();
  }
  return op;
}

std::string PrimitiveResult::Encode() const {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(status.code()));
  PutLengthPrefixed(&out, status.message());
  PutVarint64(&out, ZigZag(deleted));
  PutVarint64(&out, deleted_records.size());
  for (const auto& rec : deleted_records) {
    PutRecord(&out, rec);
  }
  PutVarint64(&out, changes.since);
  PutVarint64(&out, changes.epoch);
  out.push_back(changes.covered ? 1 : 0);
  PutVarint64(&out, changes.names.size());
  for (const auto& name : changes.names) PutLengthPrefixed(&out, name);
  return out;
}

PrimitiveResult PrimitiveResult::Decode(std::string_view data) {
  Decoder dec(data);
  PrimitiveResult r;
  uint32_t code;
  std::string message;
  uint64_t z;
  if (!dec.GetVarint32(&code) || !dec.GetLengthPrefixed(&message) ||
      !dec.GetVarint64(&z)) {
    r.status = Status::Corruption("primitive result truncated");
    return r;
  }
  r.status = Status(static_cast<ErrorCode>(code), std::move(message));
  r.deleted = UnZigZag(z);
  uint64_t n;
  if (dec.GetVarint64(&n)) {
    for (uint64_t i = 0; i < n; i++) {
      InodeRecord rec;
      if (!GetRecord(&dec, &rec)) break;
      r.deleted_records.push_back(std::move(rec));
    }
  }
  DirChanges& c = r.changes;
  if (dec.GetVarint64(&c.since) && dec.GetVarint64(&c.epoch) &&
      dec.remaining() >= 1) {
    c.covered = dec.rest()[0] != 0;
    dec = Decoder(dec.rest().substr(1));
    if (dec.GetVarint64(&n)) {
      for (uint64_t i = 0; i < n; i++) {
        std::string name;
        if (!dec.GetLengthPrefixed(&name)) break;
        c.names.push_back(std::move(name));
      }
    }
  }
  return r;
}

void ApplyUpdateToRecord(const UpdateSpec& upd, int64_t auto_children_delta,
                         InodeRecord* merged) {
  // Delta apply: commutative numeric merges, no locks needed (§4.2).
  int64_t children_delta =
      upd.children_delta_auto ? auto_children_delta : upd.children_delta;
  merged->children += children_delta;
  merged->links += upd.links_delta;
  merged->size += upd.size_delta;
  if (children_delta != 0) merged->Set(InodeRecord::kFieldChildren);
  if (upd.links_delta != 0) merged->Set(InodeRecord::kFieldLinks);
  if (upd.size_delta != 0) merged->Set(InodeRecord::kFieldSize);
  // Last-writer-wins in the shard's apply order: the raft log totally
  // orders every write to this record, so the later-applied write wins.
  if (upd.lww.mtime) {
    merged->mtime = *upd.lww.mtime;
    merged->Set(InodeRecord::kFieldMtime);
  }
  if (upd.lww.ctime) {
    merged->ctime = *upd.lww.ctime;
    merged->Set(InodeRecord::kFieldCtime);
  }
  if (upd.lww.mode) {
    merged->mode = *upd.lww.mode;
    merged->Set(InodeRecord::kFieldMode);
  }
  if (upd.lww.uid) {
    merged->uid = *upd.lww.uid;
    merged->Set(InodeRecord::kFieldUid);
  }
  if (upd.lww.gid) {
    merged->gid = *upd.lww.gid;
    merged->Set(InodeRecord::kFieldGid);
  }
  if (upd.lww.size) {
    merged->size = *upd.lww.size;
    merged->Set(InodeRecord::kFieldSize);
  }
  if (upd.lww.parent) {
    merged->parent = *upd.lww.parent;
    merged->Set(InodeRecord::kFieldParent);
  }
}

StatusOr<InodeRecord> ReadRecord(const KvStore& kv, const InodeKey& key) {
  auto value = kv.Get(key.Encode());
  if (!value.ok()) return value.status();
  return InodeRecord::DecodeValue(key, *value);
}

PrimitiveResult ExecutePrimitive(const PrimitiveOp& op, KvStore* kv) {
  PrimitiveResult result;

  // ---- Phase 1: evaluate every check against current state ----
  for (const auto& check : op.checks) {
    auto rec = ReadRecord(*kv, check.key);
    switch (check.kind) {
      case Predicate::Kind::kExists:
        if (!rec.ok()) {
          result.status = Status::NotFound(check.key.kstr);
          return result;
        }
        break;
      case Predicate::Kind::kNotExists:
        if (rec.ok()) {
          result.status = Status::AlreadyExists(check.key.kstr);
          return result;
        }
        break;
      case Predicate::Kind::kExistsWithType:
        if (!rec.ok()) {
          if (check.ifexist) break;
          result.status = Status::NotFound(check.key.kstr);
          return result;
        }
        if (rec->type != check.type) {
          result.status = TypeMismatch(check.type, rec->type);
          return result;
        }
        break;
      case Predicate::Kind::kChildrenZero:
        if (!rec.ok()) {
          result.status = Status::NotFound(check.key.kstr);
          return result;
        }
        if (rec->children != 0) {
          result.status = Status::NotEmpty(check.key.kstr);
          return result;
        }
        break;
    }
  }

  std::vector<InodeKey> to_delete;
  std::vector<InodeRecord> deleted_images;
  for (const auto& del : op.deletes) {
    auto rec = ReadRecord(*kv, del.key);
    if (!rec.ok()) {
      if (del.ifexist) continue;
      result.status = Status::NotFound(del.key.kstr);
      return result;
    }
    if (del.type_is && rec->type != *del.type_is) {
      result.status = TypeMismatch(*del.type_is, rec->type);
      return result;
    }
    if (del.forbid_directory && rec->type == InodeType::kDirectory) {
      result.status = Status::IsADirectory(del.key.kstr);
      return result;
    }
    if (del.hint_id != kInvalidInode && rec->Has(InodeRecord::kFieldId) &&
        rec->id != del.hint_id) {
      // The dentry was concurrently replaced; treat as gone.
      if (del.ifexist) continue;
      result.status = Status::NotFound(del.key.kstr);
      return result;
    }
    to_delete.push_back(del.key);
    deleted_images.push_back(std::move(rec).value());
  }
  result.deleted = static_cast<int64_t>(to_delete.size());
  result.deleted_records = std::move(deleted_images);

  for (const auto& ins : op.inserts) {
    // Implicit existence check: a duplicate insert aborts the primitive —
    // unless this op also deletes that key (rename re-using the dest name).
    bool deleted_here = false;
    for (const auto& d : to_delete) {
      if (d == ins.key) {
        deleted_here = true;
        break;
      }
    }
    if (!deleted_here && kv->Contains(ins.key.Encode())) {
      result.status = Status::AlreadyExists(ins.key.kstr);
      return result;
    }
  }

  // Updates on the same record compose: later specs merge into the working
  // copy produced by earlier ones (a rename whose source and destination
  // share a parent issues two deltas against one attribute record).
  std::map<std::string, InodeRecord> resolved;
  for (const auto& upd : op.updates) {
    std::string encoded_key = upd.key.Encode();
    auto it = resolved.find(encoded_key);
    if (it == resolved.end()) {
      auto rec = ReadRecord(*kv, upd.key);
      if (!rec.ok()) {
        if (!upd.must_exist) continue;
        result.status = Status::NotFound(upd.key.kstr);
        return result;
      }
      it = resolved.emplace(encoded_key, std::move(rec).value()).first;
    }
    int64_t auto_delta = static_cast<int64_t>(op.inserts.size()) -
                         static_cast<int64_t>(to_delete.size());
    ApplyUpdateToRecord(upd, auto_delta, &it->second);
  }

  // ---- Phase 2: apply everything as one batch ----
  WriteBatch batch;
  for (const auto& key : to_delete) {
    batch.Delete(key.Encode());
  }
  for (const auto& ins : op.inserts) {
    batch.Put(ins.key.Encode(), ins.EncodeValue());
  }
  for (const auto& put : op.puts) {
    batch.Put(put.key.Encode(), put.EncodeValue());
  }
  for (const auto& [encoded_key, merged] : resolved) {
    batch.Put(encoded_key, merged.EncodeValue());
  }
  // Durability is provided by the raft log that carried this command.
  result.status = kv->Write(batch);
  return result;
}

}  // namespace cfs
