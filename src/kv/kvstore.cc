#include "src/kv/kvstore.h"

#include "src/common/race_detector.h"

namespace cfs {

void WriteBatch::Put(std::string_view key, std::string_view value) {
  ops_.push_back(Op{std::string(key), std::string(value)});
}

void WriteBatch::Delete(std::string_view key) {
  ops_.push_back(Op{std::string(key), std::nullopt});
}

Status KvStore::Write(const WriteBatch& batch) {
  if (batch.empty()) return Status::Ok();
  WriterMutexLock lock(mu_);
  CFS_SHARED_WRITE(map_, mu_);
  for (const auto& op : batch.ops()) {
    if (op.value) {
      map_.insert_or_assign(op.key, *op.value);
    } else {
      map_.erase(op.key);
    }
  }
  return Status::Ok();
}

Status KvStore::Put(std::string_view key, std::string_view value) {
  WriteBatch b;
  b.Put(key, value);
  return Write(b);
}

Status KvStore::Delete(std::string_view key) {
  WriteBatch b;
  b.Delete(key);
  return Write(b);
}

StatusOr<std::string> KvStore::Get(std::string_view key) const {
  ReaderMutexLock lock(mu_);
  CFS_SHARED_READ(map_, mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return Status::NotFound();
  return it->second;
}

bool KvStore::Contains(std::string_view key) const {
  ReaderMutexLock lock(mu_);
  CFS_SHARED_READ(map_, mu_);
  return map_.find(key) != map_.end();
}

std::vector<std::pair<std::string, std::string>> KvStore::Scan(
    std::string_view start, std::string_view end, size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  ReaderMutexLock lock(mu_);
  CFS_SHARED_READ(map_, mu_);
  for (auto it = map_.lower_bound(start);
       it != map_.end() && (end.empty() || it->first < end); ++it) {
    out.emplace_back(it->first, it->second);
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

void KvStore::Clear() {
  WriterMutexLock lock(mu_);
  CFS_SHARED_WRITE(map_, mu_);
  map_.clear();
}

}  // namespace cfs
