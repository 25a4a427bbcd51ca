#include "src/tafdb/schema.h"

#include "src/common/encoding.h"

namespace cfs {
namespace {

void PutBigEndian64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 7; i >= 0; i--) {
    buf[i] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
  dst->append(buf, 8);
}

bool GetBigEndian64(std::string_view data, uint64_t* v) {
  if (data.size() < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; i++) {
    out = (out << 8) | static_cast<unsigned char>(data[i]);
  }
  *v = out;
  return true;
}

}  // namespace

std::string InodeKey::Encode() const {
  std::string out;
  out.reserve(8 + kstr.size());
  PutBigEndian64(&out, kid);
  out += kstr;
  return out;
}

StatusOr<InodeKey> InodeKey::Decode(std::string_view encoded) {
  InodeKey key;
  if (!GetBigEndian64(encoded, &key.kid)) {
    return Status::Corruption("short inode key");
  }
  key.kstr.assign(encoded.substr(8));
  return key;
}

std::string DirLowerBound(InodeId kid) {
  std::string out;
  PutBigEndian64(&out, kid);
  return out;
}

std::string DirUpperBound(InodeId kid) {
  std::string out;
  PutBigEndian64(&out, kid + 1);
  return out;
}

InodeRecord InodeRecord::MakeIdRecord(InodeId parent, std::string_view name,
                                      InodeId id, InodeType type) {
  InodeRecord r;
  r.key = InodeKey::IdRecord(parent, name);
  r.id = id;
  r.type = type;
  r.Set(kFieldId);
  r.Set(kFieldType);
  return r;
}

InodeRecord InodeRecord::MakeDirAttr(InodeId self, uint64_t now_ts,
                                     uint32_t mode, uint32_t uid,
                                     uint32_t gid, InodeId parent) {
  InodeRecord r;
  r.key = InodeKey::AttrRecord(self);
  r.id = self;
  r.type = InodeType::kDirectory;
  r.children = 0;
  r.links = 2;  // "." and the parent link
  r.size = 0;
  r.mtime = now_ts;
  r.ctime = now_ts;
  r.mode = mode;
  r.uid = uid;
  r.gid = gid;
  r.parent = parent;
  r.present = kFieldId | kFieldType | kFieldChildren | kFieldLinks |
              kFieldSize | kFieldMtime | kFieldCtime | kFieldMode | kFieldUid |
              kFieldGid;
  if (parent != kInvalidInode) r.present |= kFieldParent;
  return r;
}

InodeRecord InodeRecord::MakeFileAttr(InodeId self, uint64_t now_ts,
                                      uint32_t mode, uint32_t uid,
                                      uint32_t gid) {
  InodeRecord r = MakeDirAttr(self, now_ts, mode, uid, gid);
  r.type = InodeType::kFile;
  r.links = 1;
  r.present &= ~static_cast<uint32_t>(kFieldChildren);
  return r;
}

std::string InodeRecord::EncodeValue() const {
  std::string out;
  PutVarint32(&out, present);
  if (Has(kFieldId)) PutVarint64(&out, id);
  if (Has(kFieldType)) out.push_back(static_cast<char>(type));
  if (Has(kFieldChildren)) PutVarint64(&out, static_cast<uint64_t>(children));
  if (Has(kFieldLinks)) PutVarint64(&out, static_cast<uint64_t>(links));
  if (Has(kFieldSize)) PutVarint64(&out, static_cast<uint64_t>(size));
  if (Has(kFieldMtime)) PutVarint64(&out, mtime);
  if (Has(kFieldCtime)) PutVarint64(&out, ctime);
  if (Has(kFieldMode)) PutVarint32(&out, mode);
  if (Has(kFieldUid)) PutVarint32(&out, uid);
  if (Has(kFieldGid)) PutVarint32(&out, gid);
  if (Has(kFieldSymlink)) PutLengthPrefixed(&out, symlink_target);
  if (Has(kFieldParent)) PutVarint64(&out, parent);
  return out;
}

StatusOr<InodeRecord> InodeRecord::DecodeValue(const InodeKey& key,
                                               std::string_view encoded) {
  InodeRecord r;
  r.key = key;
  Decoder dec(encoded);
  if (!dec.GetVarint32(&r.present)) {
    return Status::Corruption("inode record: presence bitmap");
  }
  uint64_t u64;
  uint32_t u32;
  auto fail = [] { return Status::Corruption("inode record: truncated"); };
  if (r.Has(InodeRecord::kFieldId)) {
    if (!dec.GetVarint64(&u64)) return fail();
    r.id = u64;
  }
  if (r.Has(InodeRecord::kFieldType)) {
    if (dec.empty()) return fail();
    r.type = static_cast<InodeType>(dec.rest()[0]);
    dec = Decoder(dec.rest().substr(1));
  }
  if (r.Has(InodeRecord::kFieldChildren)) {
    if (!dec.GetVarint64(&u64)) return fail();
    r.children = static_cast<int64_t>(u64);
  }
  if (r.Has(InodeRecord::kFieldLinks)) {
    if (!dec.GetVarint64(&u64)) return fail();
    r.links = static_cast<int64_t>(u64);
  }
  if (r.Has(InodeRecord::kFieldSize)) {
    if (!dec.GetVarint64(&u64)) return fail();
    r.size = static_cast<int64_t>(u64);
  }
  if (r.Has(InodeRecord::kFieldMtime)) {
    if (!dec.GetVarint64(&r.mtime)) return fail();
  }
  if (r.Has(InodeRecord::kFieldCtime)) {
    if (!dec.GetVarint64(&r.ctime)) return fail();
  }
  if (r.Has(InodeRecord::kFieldMode)) {
    if (!dec.GetVarint32(&r.mode)) return fail();
  }
  if (r.Has(InodeRecord::kFieldUid)) {
    if (!dec.GetVarint32(&u32)) return fail();
    r.uid = u32;
  }
  if (r.Has(InodeRecord::kFieldGid)) {
    if (!dec.GetVarint32(&u32)) return fail();
    r.gid = u32;
  }
  if (r.Has(InodeRecord::kFieldSymlink)) {
    if (!dec.GetLengthPrefixed(&r.symlink_target)) return fail();
  }
  if (r.Has(InodeRecord::kFieldParent)) {
    if (!dec.GetVarint64(&r.parent)) return fail();
  }
  return r;
}

}  // namespace cfs
