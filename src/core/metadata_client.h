// The file-system-facing metadata/data API implemented by CFS and by both
// baselines (HopsFS-like, InfiniFS-like). Benchmarks and examples program
// against this interface so every system runs the identical workload.
//
// Paths are absolute ("/a/b/c"). Operations mirror the paper's seven
// sampled metadata requests (create, unlink, mkdir, rmdir, lookup, getattr,
// setattr) plus readdir, rename, symlink/readlink, link, and the data ops
// used by the trace replays.

#ifndef CFS_CORE_METADATA_CLIENT_H_
#define CFS_CORE_METADATA_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/simnet.h"
#include "src/tafdb/schema.h"

namespace cfs {

struct FileInfo {
  InodeId id = kInvalidInode;
  InodeType type = InodeType::kNone;
  int64_t size = 0;
  int64_t links = 0;
  int64_t children = 0;
  uint64_t mtime = 0;
  uint64_t ctime = 0;
  uint32_t mode = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;

  bool IsDirectory() const { return type == InodeType::kDirectory; }

  static FileInfo FromRecord(const InodeRecord& rec) {
    FileInfo info;
    info.id = rec.id;
    info.type = rec.type;
    info.size = rec.size;
    info.links = rec.links;
    info.children = rec.children;
    info.mtime = rec.mtime;
    info.ctime = rec.ctime;
    info.mode = rec.mode;
    info.uid = rec.uid;
    info.gid = rec.gid;
    return info;
  }
};

struct DirEntry {
  std::string name;
  InodeId id = kInvalidInode;
  InodeType type = InodeType::kNone;
};

// Partial attribute update (chmod/chown/utimens/truncate).
struct SetAttrSpec {
  std::optional<uint32_t> mode;
  std::optional<uint32_t> uid;
  std::optional<uint32_t> gid;
  std::optional<uint64_t> mtime;
  std::optional<int64_t> size;
};

class MetadataClient {
 public:
  virtual ~MetadataClient() = default;

  virtual Status Mkdir(const std::string& path, uint32_t mode) = 0;
  virtual Status Rmdir(const std::string& path) = 0;
  virtual Status Create(const std::string& path, uint32_t mode) = 0;
  virtual Status Unlink(const std::string& path) = 0;
  // Resolves the dentry (parent lookup + final component read).
  virtual StatusOr<FileInfo> Lookup(const std::string& path) = 0;
  // Full attribute fetch.
  virtual StatusOr<FileInfo> GetAttr(const std::string& path) = 0;
  virtual Status SetAttr(const std::string& path, const SetAttrSpec& spec) = 0;
  virtual StatusOr<std::vector<DirEntry>> ReadDir(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Symlink(const std::string& target,
                         const std::string& link_path) = 0;
  virtual StatusOr<std::string> ReadLink(const std::string& path) = 0;
  virtual Status Link(const std::string& existing,
                      const std::string& link_path) = 0;

  // Data plane (used by the end-to-end trace replays).
  virtual Status Write(const std::string& path, uint64_t offset,
                       const std::string& data) = 0;
  virtual StatusOr<std::string> Read(const std::string& path, uint64_t offset,
                                     size_t length) = 0;
};

// Forwards every MetadataClient call through SimNet to an engine living on
// another node: the metadata proxy hop of the baselines and of CFS without
// client-side resolving (§3.1).
class ForwardingClient : public MetadataClient {
 public:
  ForwardingClient(SimNet* net, NodeId self, NodeId target,
                   MetadataClient* engine)
      : net_(net), self_(self), target_(target), engine_(engine) {}

  Status Mkdir(const std::string& path, uint32_t mode) override {
    return net_->Call(self_, target_, [&] { return engine_->Mkdir(path, mode); });
  }
  Status Rmdir(const std::string& path) override {
    return net_->Call(self_, target_, [&] { return engine_->Rmdir(path); });
  }
  Status Create(const std::string& path, uint32_t mode) override {
    return net_->Call(self_, target_,
                      [&] { return engine_->Create(path, mode); });
  }
  Status Unlink(const std::string& path) override {
    return net_->Call(self_, target_, [&] { return engine_->Unlink(path); });
  }
  StatusOr<FileInfo> Lookup(const std::string& path) override {
    return net_->Call(self_, target_,
                      [&]() -> StatusOr<FileInfo> { return engine_->Lookup(path); });
  }
  StatusOr<FileInfo> GetAttr(const std::string& path) override {
    return net_->Call(self_, target_, [&]() -> StatusOr<FileInfo> {
      return engine_->GetAttr(path);
    });
  }
  Status SetAttr(const std::string& path, const SetAttrSpec& spec) override {
    return net_->Call(self_, target_,
                      [&] { return engine_->SetAttr(path, spec); });
  }
  StatusOr<std::vector<DirEntry>> ReadDir(const std::string& path) override {
    return net_->Call(self_, target_,
                      [&]() -> StatusOr<std::vector<DirEntry>> {
                        return engine_->ReadDir(path);
                      });
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return net_->Call(self_, target_, [&] { return engine_->Rename(from, to); });
  }
  Status Symlink(const std::string& target,
                 const std::string& link_path) override {
    return net_->Call(self_, target_,
                      [&] { return engine_->Symlink(target, link_path); });
  }
  StatusOr<std::string> ReadLink(const std::string& path) override {
    return net_->Call(self_, target_, [&]() -> StatusOr<std::string> {
      return engine_->ReadLink(path);
    });
  }
  Status Link(const std::string& existing,
              const std::string& link_path) override {
    return net_->Call(self_, target_,
                      [&] { return engine_->Link(existing, link_path); });
  }
  Status Write(const std::string& path, uint64_t offset,
               const std::string& data) override {
    return net_->Call(self_, target_,
                      [&] { return engine_->Write(path, offset, data); });
  }
  StatusOr<std::string> Read(const std::string& path, uint64_t offset,
                             size_t length) override {
    return net_->Call(self_, target_, [&]() -> StatusOr<std::string> {
      return engine_->Read(path, offset, length);
    });
  }

 private:
  SimNet* net_;
  NodeId self_;
  NodeId target_;
  MetadataClient* engine_;
};

// Splits "/a/b/c" into components; rejects empty names and relative paths.
StatusOr<std::vector<std::string>> SplitPath(const std::string& path);
// "/a/b/c" -> ("/a/b", "c"); "/" has no parent.
StatusOr<std::pair<std::string, std::string>> SplitParent(
    const std::string& path);
// ("/a/b", "c") -> "/a/b/c"; ("/", "c") -> "/c". The inverse of SplitParent
// on normalized paths.
std::string JoinPath(const std::string& dir, const std::string& name);

}  // namespace cfs

#endif  // CFS_CORE_METADATA_CLIENT_H_
