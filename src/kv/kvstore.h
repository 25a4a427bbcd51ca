// KvStore — the ordered key-value map each TafDB shard replica and each
// FileStore node applies its raft log into (the paper uses RocksDB for the
// latter). Raft's log and WAL are the durability and replay path, so the
// store is one in-memory ordered map; storage-engine internals are not
// modelled (DESIGN.md §1).
//
// A write batch is applied under the exclusive lock, so a reader sees all
// of a batch or none of it.

#ifndef CFS_KV_KVSTORE_H_
#define CFS_KV_KVSTORE_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace cfs {

class WriteBatch {
 public:
  void Put(std::string_view key, std::string_view value);
  void Delete(std::string_view key);
  void Clear() { ops_.clear(); }
  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }

  // In application order; a missing value deletes the key.
  struct Op {
    std::string key;
    std::optional<std::string> value;
  };
  const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
};

class KvStore {
 public:
  Status Write(const WriteBatch& batch);
  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);

  StatusOr<std::string> Get(std::string_view key) const;
  bool Contains(std::string_view key) const;

  // Live key/value pairs with key in [start, end) in key order, at most
  // `limit` (0 = unlimited). An empty `end` is unbounded.
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view start, std::string_view end, size_t limit = 0) const;

  // Drops every key (snapshot restore).
  void Clear();

 private:
  mutable SharedMutex mu_{"kv.map", 64};
  std::map<std::string, std::string, std::less<>> map_ GUARDED_BY(mu_);
};

}  // namespace cfs

#endif  // CFS_KV_KVSTORE_H_
