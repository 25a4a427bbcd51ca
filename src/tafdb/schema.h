// inode_table schema (paper §4.1, Figure 6).
//
// All namespace metadata lives in one table whose composite primary key is
// <kID, kStr>:
//   - directory/file *id records*:  kID = parent inode id, kStr = name,
//     carrying the child's inode id and type;
//   - directory *attribute records*: kID = the directory's own inode id,
//     kStr = the reserved "/_ATTR", carrying children/links/size/mtime/...
//
// Keys encode kID big-endian so the KV store's lexicographic order equals
// (kID, kStr) order: a directory's attribute record and all its children's
// id records form one contiguous key range, which range partitioning then
// keeps on a single shard — the property that makes the paper's metadata
// requests single-shard.
//
// Values are encoded with a field-presence bitmap; unused fields are absent
// (the paper's "unused fields set to NULL"). Records carry no write
// timestamp: the owning shard's raft log orders last-writer-wins updates
// (primitives.h).

#ifndef CFS_TAFDB_SCHEMA_H_
#define CFS_TAFDB_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace cfs {

using InodeId = uint64_t;
inline constexpr InodeId kInvalidInode = 0;
inline constexpr InodeId kRootInode = 1;

// Reserved kStr for attribute records. '/' cannot appear in a file name, so
// this can never collide with a real directory entry, and it sorts before
// most printable names (irrelevant for correctness, handy when scanning).
inline constexpr std::string_view kAttrKeyStr = "/_ATTR";

enum class InodeType : uint8_t {
  kNone = 0,
  kFile = 1,
  kDirectory = 2,
  kSymlink = 3,
};

struct InodeKey {
  InodeId kid = kInvalidInode;
  std::string kstr;

  static InodeKey IdRecord(InodeId parent, std::string_view name) {
    return InodeKey{parent, std::string(name)};
  }
  static InodeKey AttrRecord(InodeId self) {
    return InodeKey{self, std::string(kAttrKeyStr)};
  }

  bool IsAttr() const { return kstr == kAttrKeyStr; }

  std::string Encode() const;
  static StatusOr<InodeKey> Decode(std::string_view encoded);

  friend bool operator==(const InodeKey& a, const InodeKey& b) {
    return a.kid == b.kid && a.kstr == b.kstr;
  }
  friend bool operator<(const InodeKey& a, const InodeKey& b) {
    if (a.kid != b.kid) return a.kid < b.kid;
    return a.kstr < b.kstr;
  }
};

// Prefix of every key with the given kID; [DirLowerBound, DirUpperBound)
// brackets a directory's attribute record plus all its children.
std::string DirLowerBound(InodeId kid);
std::string DirUpperBound(InodeId kid);

// One row of inode_table. Field presence is tracked explicitly so partial
// records (id records vs attribute records) round-trip exactly.
struct InodeRecord {
  InodeKey key;

  // Field presence bits.
  enum Field : uint32_t {
    kFieldId = 1u << 0,
    kFieldType = 1u << 1,
    kFieldChildren = 1u << 2,
    kFieldLinks = 1u << 3,
    kFieldSize = 1u << 4,
    kFieldMtime = 1u << 5,
    kFieldCtime = 1u << 6,
    kFieldMode = 1u << 7,
    kFieldUid = 1u << 8,
    kFieldGid = 1u << 9,
    kFieldSymlink = 1u << 10,
    kFieldParent = 1u << 11,
  };
  uint32_t present = 0;

  InodeId id = kInvalidInode;  // id records: the child's inode id
  InodeType type = InodeType::kNone;
  int64_t children = 0;  // attribute records of directories
  int64_t links = 0;
  int64_t size = 0;
  uint64_t mtime = 0;
  uint64_t ctime = 0;
  uint32_t mode = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;
  std::string symlink_target;
  // Directory attribute records carry a parent backpointer so the Renamer
  // can walk ancestor chains for orphan-loop detection (§4.3).
  InodeId parent = kInvalidInode;

  bool Has(Field f) const { return (present & f) != 0; }
  void Set(Field f) { present |= f; }

  // Builders for the two record shapes.
  static InodeRecord MakeIdRecord(InodeId parent, std::string_view name,
                                  InodeId id, InodeType type);
  static InodeRecord MakeDirAttr(InodeId self, uint64_t now_ts, uint32_t mode,
                                 uint32_t uid, uint32_t gid,
                                 InodeId parent = kInvalidInode);
  static InodeRecord MakeFileAttr(InodeId self, uint64_t now_ts, uint32_t mode,
                                  uint32_t uid, uint32_t gid);

  std::string EncodeValue() const;
  static StatusOr<InodeRecord> DecodeValue(const InodeKey& key,
                                           std::string_view encoded);
};

}  // namespace cfs

#endif  // CFS_TAFDB_SCHEMA_H_
