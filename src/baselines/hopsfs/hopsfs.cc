#include "src/baselines/hopsfs/hopsfs.h"

#include <algorithm>

namespace cfs {
namespace {

// Inline-attribute dentry row for a new inode.
InodeRecord MakeInlineRow(InodeId parent, const std::string& name, InodeId id,
                          InodeType type, uint32_t mode, uint64_t ts) {
  InodeRecord row = InodeRecord::MakeDirAttr(id, ts, mode, 0, 0, parent);
  row.key = InodeKey::IdRecord(parent, name);
  row.type = type;
  if (type != InodeType::kDirectory) {
    row.links = 1;
    row.present &= ~static_cast<uint32_t>(InodeRecord::kFieldChildren);
  }
  return row;
}

std::string SubtreeLockKey(const std::string& path) {
  auto parts = SplitPath(path);
  if (!parts.ok() || parts->empty()) return "st:/";
  std::string key = "st:" + (*parts)[0];
  if (parts->size() > 2) {
    key += "/" + (*parts)[1];  // lock the subtree containing the dentry
  }
  return key;
}

}  // namespace

StatusOr<InodeKey> HopsFsEngine::DirAttrRowKey(const std::string& dir_path) {
  if (dir_path == "/") {
    return InodeKey::AttrRecord(kRootInode);
  }
  auto resolved = ResolveParent(dir_path);
  if (!resolved.ok()) return resolved.status();
  return InodeKey::IdRecord(resolved->parent, resolved->name);
}

Status HopsFsEngine::InsertInode(const std::string& path, InodeRecord row) {
  auto split = SplitParent(path);
  if (!split.ok()) return split.status();
  auto& [parent_path, name] = *split;
  auto parent = Resolve(parent_path);
  if (!parent.ok()) return parent.status();
  if (parent->type != InodeType::kDirectory) {
    return Status::NotADirectory(parent_path);
  }
  auto parent_row_key = DirAttrRowKey(parent_path);
  if (!parent_row_key.ok()) return parent_row_key.status();

  row.key = InodeKey::IdRecord(parent->id, name);
  row.parent = parent->id;

  // Figure 3: acquire write locks up front, then execute.
  TxnId txn = NextTxn();
  InodeId entry_kid = parent->id;
  InodeId parent_kid = parent_row_key->kid;
  uint64_t ts = NowTs();

  struct ShardLocks {
    InodeId kid;
    std::vector<std::string> keys;
  };
  std::vector<ShardLocks> plans;
  plans.push_back({entry_kid, {row.key.Encode()}});
  if (tafdb_->ShardIndexFor(parent_kid) == tafdb_->ShardIndexFor(entry_kid)) {
    plans[0].keys.push_back(parent_row_key->Encode());
  } else {
    plans.push_back({parent_kid, {parent_row_key->Encode()}});
  }
  std::sort(plans.begin(), plans.end(), [&](const auto& a, const auto& b) {
    return tafdb_->ShardIndexFor(a.kid) < tafdb_->ShardIndexFor(b.kid);
  });
  std::vector<InodeId> locked;
  auto unlock_all = [&] {
    for (InodeId kid : locked) UnlockOnShard(txn, kid);
  };
  for (auto& plan : plans) {
    Status st = LockOnShard(txn, plan.kid, plan.keys);
    if (!st.ok()) {
      unlock_all();
      return st;
    }
    locked.push_back(plan.kid);
  }

  // Interactive reads under locks.
  auto parent_row = ReadRow(*parent_row_key);
  if (!parent_row.ok()) {
    unlock_all();
    return parent_row.status();
  }
  if (parent_row->type != InodeType::kDirectory) {
    unlock_all();
    return Status::NotADirectory(parent_path);
  }
  if (ReadRow(row.key).ok()) {
    unlock_all();
    return Status::AlreadyExists(path);
  }

  // Buffered writes + (2PC) commit.
  std::map<size_t, PrimitiveOp> ops;
  ops[tafdb_->ShardIndexFor(entry_kid)].puts.push_back(row);
  InodeRecord parent_image = std::move(parent_row).value();
  parent_image.children += 1;
  if (row.type == InodeType::kDirectory) parent_image.links += 1;
  parent_image.mtime = ts;
  ops[tafdb_->ShardIndexFor(parent_kid)].puts.push_back(parent_image);
  Status commit_st = CommitWriteSets(std::move(ops), txn);
  unlock_all();
  if (commit_st.ok()) {
    CachePut(path, row.id, row.type);
  }
  return commit_st;
}

Status HopsFsEngine::Create(const std::string& path, uint32_t mode) {
  auto split = SplitParent(path);
  if (!split.ok()) return split.status();
  return InsertInode(path, MakeInlineRow(0, split->second, AllocId(),
                                         InodeType::kFile, mode, NowTs()));
}

Status HopsFsEngine::Mkdir(const std::string& path, uint32_t mode) {
  auto split = SplitParent(path);
  if (!split.ok()) return split.status();
  return InsertInode(path, MakeInlineRow(0, split->second, AllocId(),
                                         InodeType::kDirectory, mode, NowTs()));
}

Status HopsFsEngine::Symlink(const std::string& target,
                             const std::string& link_path) {
  auto split = SplitParent(link_path);
  if (!split.ok()) return split.status();
  InodeRecord row = MakeInlineRow(0, split->second, AllocId(),
                                  InodeType::kSymlink, 0777, NowTs());
  row.symlink_target = target;
  row.Set(InodeRecord::kFieldSymlink);
  return InsertInode(link_path, row);
}

Status HopsFsEngine::Unlink(const std::string& path) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  if (resolved->type == InodeType::kDirectory) {
    return Status::IsADirectory(path);
  }
  auto split = SplitParent(path);
  if (!split.ok()) return split.status();
  auto parent_row_key = DirAttrRowKey(split->first);
  if (!parent_row_key.ok()) return parent_row_key.status();
  InodeKey entry_key = InodeKey::IdRecord(resolved->parent, resolved->name);
  uint64_t ts = NowTs();
  TxnId txn = NextTxn();

  std::vector<std::pair<InodeId, std::vector<std::string>>> plans;
  plans.push_back({resolved->parent, {entry_key.Encode()}});
  if (tafdb_->ShardIndexFor(parent_row_key->kid) ==
      tafdb_->ShardIndexFor(resolved->parent)) {
    plans[0].second.push_back(parent_row_key->Encode());
  } else {
    plans.push_back({parent_row_key->kid, {parent_row_key->Encode()}});
  }
  std::sort(plans.begin(), plans.end(), [&](const auto& a, const auto& b) {
    return tafdb_->ShardIndexFor(a.first) < tafdb_->ShardIndexFor(b.first);
  });
  std::vector<InodeId> locked;
  auto unlock_all = [&] {
    for (InodeId kid : locked) UnlockOnShard(txn, kid);
  };
  for (auto& [kid, keys] : plans) {
    Status st = LockOnShard(txn, kid, keys);
    if (!st.ok()) {
      unlock_all();
      return st;
    }
    locked.push_back(kid);
  }

  auto entry = ReadRow(entry_key);
  if (!entry.ok()) {
    unlock_all();
    CacheErase(path);
    return entry.status();
  }
  if (entry->type == InodeType::kDirectory) {
    unlock_all();
    return Status::IsADirectory(path);
  }
  auto parent_row = ReadRow(*parent_row_key);
  if (!parent_row.ok()) {
    unlock_all();
    return parent_row.status();
  }

  std::map<size_t, PrimitiveOp> ops;
  DeleteSpec del;
  del.key = entry_key;
  ops[tafdb_->ShardIndexFor(resolved->parent)].deletes.push_back(del);
  InodeRecord parent_image = std::move(parent_row).value();
  parent_image.children -= 1;
  parent_image.mtime = ts;
  ops[tafdb_->ShardIndexFor(parent_row_key->kid)].puts.push_back(parent_image);
  Status commit_st = CommitWriteSets(std::move(ops), txn);
  unlock_all();
  CacheErase(path);
  if (commit_st.ok()) {
    filestore_->DeleteAttrAsync(entry->id);  // data blocks
  }
  return commit_st;
}

Status HopsFsEngine::Rmdir(const std::string& path) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  if (resolved->type != InodeType::kDirectory) {
    return Status::NotADirectory(path);
  }
  if (resolved->id == kRootInode) {
    return Status::InvalidArgument("cannot remove /");
  }
  auto split = SplitParent(path);
  if (!split.ok()) return split.status();
  auto parent_row_key = DirAttrRowKey(split->first);
  if (!parent_row_key.ok()) return parent_row_key.status();
  // The directory's own attribute row IS its dentry row.
  InodeKey dir_row_key = InodeKey::IdRecord(resolved->parent, resolved->name);
  uint64_t ts = NowTs();
  TxnId txn = NextTxn();

  std::vector<std::pair<InodeId, std::vector<std::string>>> plans;
  plans.push_back({resolved->parent, {dir_row_key.Encode()}});
  if (tafdb_->ShardIndexFor(parent_row_key->kid) ==
      tafdb_->ShardIndexFor(resolved->parent)) {
    plans[0].second.push_back(parent_row_key->Encode());
  } else {
    plans.push_back({parent_row_key->kid, {parent_row_key->Encode()}});
  }
  std::sort(plans.begin(), plans.end(), [&](const auto& a, const auto& b) {
    return tafdb_->ShardIndexFor(a.first) < tafdb_->ShardIndexFor(b.first);
  });
  std::vector<InodeId> locked;
  auto unlock_all = [&] {
    for (InodeId kid : locked) UnlockOnShard(txn, kid);
  };
  for (auto& [kid, keys] : plans) {
    Status st = LockOnShard(txn, kid, keys);
    if (!st.ok()) {
      unlock_all();
      return st;
    }
    locked.push_back(kid);
  }

  auto dir_row = ReadRow(dir_row_key);
  if (!dir_row.ok()) {
    unlock_all();
    CacheErase(path);
    return dir_row.status();
  }
  if (dir_row->children != 0) {
    unlock_all();
    return Status::NotEmpty(path);
  }
  auto parent_row = ReadRow(*parent_row_key);
  if (!parent_row.ok()) {
    unlock_all();
    return parent_row.status();
  }

  std::map<size_t, PrimitiveOp> ops;
  DeleteSpec del;
  del.key = dir_row_key;
  ops[tafdb_->ShardIndexFor(resolved->parent)].deletes.push_back(del);
  InodeRecord parent_image = std::move(parent_row).value();
  parent_image.children -= 1;
  parent_image.links -= 1;
  parent_image.mtime = ts;
  ops[tafdb_->ShardIndexFor(parent_row_key->kid)].puts.push_back(parent_image);
  Status commit_st = CommitWriteSets(std::move(ops), txn);
  unlock_all();
  CacheErase(path);
  return commit_st;
}

StatusOr<FileInfo> HopsFsEngine::Lookup(const std::string& path) {
  if (path == "/") {
    FileInfo info;
    info.id = kRootInode;
    info.type = InodeType::kDirectory;
    return info;
  }
  // A lookup is a real dentry read (only ancestors come from the cache).
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.status();
  auto row = ReadRow(InodeKey::IdRecord(parent->parent, parent->name));
  if (!row.ok()) {
    if (row.status().IsNotFound()) CacheErase(path);
    return row.status();
  }
  CachePut(path, row->id, row->type);
  FileInfo info;
  info.id = row->id;
  info.type = row->type;
  return info;
}

StatusOr<FileInfo> HopsFsEngine::GetAttr(const std::string& path) {
  if (path == "/") {
    auto row = ReadRow(InodeKey::AttrRecord(kRootInode));
    if (!row.ok()) return row.status();
    return FileInfo::FromRecord(*row);
  }
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.status();
  auto row = ReadRow(InodeKey::IdRecord(parent->parent, parent->name));
  if (!row.ok()) {
    if (row.status().IsNotFound()) CacheErase(path);
    return row.status();
  }
  CachePut(path, row->id, row->type);
  return FileInfo::FromRecord(*row);
}

Status HopsFsEngine::SetAttr(const std::string& path, const SetAttrSpec& spec) {
  InodeKey row_key = InodeKey::AttrRecord(kRootInode);
  if (path != "/") {
    auto parent = ResolveParent(path);
    if (!parent.ok()) return parent.status();
    row_key = InodeKey::IdRecord(parent->parent, parent->name);
  }
  uint64_t ts = NowTs();
  TxnId txn = NextTxn();
  CFS_RETURN_IF_ERROR(LockOnShard(txn, row_key.kid, {row_key.Encode()}));
  auto row = ReadRow(row_key);
  Status commit_st = row.status();
  if (row.ok()) {
    InodeRecord image = std::move(row).value();
    UpdateSpec update;
    update.lww.mode = spec.mode;
    update.lww.uid = spec.uid;
    update.lww.gid = spec.gid;
    update.lww.mtime = spec.mtime;
    update.lww.size = spec.size;
    update.lww.ctime = ts;
    ApplyUpdateToRecord(update, 0, &image);
    std::map<size_t, PrimitiveOp> ops;
    ops[tafdb_->ShardIndexFor(row_key.kid)].puts.push_back(image);
    commit_st = CommitWriteSets(std::move(ops), txn);
  }
  UnlockOnShard(txn, row_key.kid);
  return commit_st;
}

StatusOr<std::vector<DirEntry>> HopsFsEngine::ReadDir(const std::string& path) {
  auto dir_id = ResolveDirId(path);
  if (!dir_id.ok()) return dir_id.status();
  auto rows = ScanDirRows(*dir_id);
  if (!rows.ok()) return rows.status();
  std::vector<DirEntry> out;
  out.reserve(rows->size());
  for (const auto& row : *rows) {
    out.push_back(DirEntry{row.key.kstr, row.id, row.type});
  }
  return out;
}

Status HopsFsEngine::Rename(const std::string& from, const std::string& to) {
  if (from == to) return Status::Ok();
  // Renaming an ancestor into its own subtree is an orphan loop.
  if (to.size() > from.size() && to.compare(0, from.size(), from) == 0 &&
      to[from.size()] == '/') {
    return Status::InvalidArgument("rename into own subtree");
  }
  auto src = Resolve(from);
  if (!src.ok()) return src.status();
  auto dst_parent = ResolveParent(to);
  if (!dst_parent.ok()) return dst_parent.status();
  uint64_t ts = NowTs();
  TxnId txn = NextTxn();

  // Heavy subtree locking (§5.6): both top-level subtrees are exclusively
  // locked on the root shard, serializing every rename that shares them.
  std::vector<std::string> subtree_keys = {SubtreeLockKey(from),
                                           SubtreeLockKey(to)};
  std::sort(subtree_keys.begin(), subtree_keys.end());
  subtree_keys.erase(std::unique(subtree_keys.begin(), subtree_keys.end()),
                     subtree_keys.end());
  CFS_RETURN_IF_ERROR(LockOnShard(txn, kRootInode, subtree_keys));
  auto unlock_subtrees = [&] { UnlockOnShard(txn, kRootInode); };

  InodeKey src_key = InodeKey::IdRecord(src->parent, src->name);
  InodeKey dst_key = InodeKey::IdRecord(dst_parent->parent, dst_parent->name);
  auto src_parent_row_key = DirAttrRowKey(SplitParent(from)->first);
  auto dst_parent_row_key = DirAttrRowKey(SplitParent(to)->first);
  if (!src_parent_row_key.ok() || !dst_parent_row_key.ok()) {
    unlock_subtrees();
    return src_parent_row_key.ok() ? dst_parent_row_key.status()
                                   : src_parent_row_key.status();
  }

  // Row locks across the involved shards (ordered).
  std::map<size_t, std::pair<InodeId, std::vector<std::string>>> lock_plan;
  auto add_lock = [&](const InodeKey& key) {
    auto& slot = lock_plan[tafdb_->ShardIndexFor(key.kid)];
    slot.first = key.kid;
    slot.second.push_back(key.Encode());
  };
  add_lock(src_key);
  add_lock(dst_key);
  add_lock(*src_parent_row_key);
  add_lock(*dst_parent_row_key);
  std::vector<InodeId> locked;
  auto unlock_all = [&] {
    for (InodeId kid : locked) UnlockOnShard(txn, kid);
    unlock_subtrees();
  };
  for (auto& [index, plan] : lock_plan) {
    Status st = LockOnShard(txn, plan.first, plan.second);
    if (!st.ok()) {
      unlock_all();
      return st;
    }
    locked.push_back(plan.first);
  }

  auto src_row = ReadRow(src_key);
  if (!src_row.ok()) {
    unlock_all();
    CacheErase(from);
    return src_row.status();
  }
  auto dst_row = ReadRow(dst_key);
  bool dst_exists = dst_row.ok();
  if (dst_exists) {
    if (src_row->type == InodeType::kDirectory) {
      if (dst_row->type != InodeType::kDirectory) {
        unlock_all();
        return Status::NotADirectory(to);
      }
      if (dst_row->children != 0) {
        unlock_all();
        return Status::NotEmpty(to);
      }
    } else if (dst_row->type == InodeType::kDirectory) {
      unlock_all();
      return Status::IsADirectory(to);
    }
  }
  auto src_parent_row = ReadRow(*src_parent_row_key);
  auto dst_parent_row = ReadRow(*dst_parent_row_key);
  if (!src_parent_row.ok() || !dst_parent_row.ok()) {
    unlock_all();
    return src_parent_row.ok() ? dst_parent_row.status()
                               : src_parent_row.status();
  }

  std::map<size_t, PrimitiveOp> ops;
  {
    DeleteSpec del;
    del.key = src_key;
    ops[tafdb_->ShardIndexFor(src_key.kid)].deletes.push_back(del);
  }
  {
    InodeRecord moved = std::move(src_row).value();
    moved.key = dst_key;
    moved.parent = dst_parent->parent;
    ops[tafdb_->ShardIndexFor(dst_key.kid)].puts.push_back(moved);
  }
  bool same_parent_row = *src_parent_row_key == *dst_parent_row_key;
  {
    InodeRecord image = std::move(src_parent_row).value();
    image.children -= 1;
    if (same_parent_row && !dst_exists) image.children += 1;
    image.mtime = ts;
    ops[tafdb_->ShardIndexFor(src_parent_row_key->kid)].puts.push_back(image);
  }
  if (!same_parent_row) {
    InodeRecord image = std::move(dst_parent_row).value();
    if (!dst_exists) image.children += 1;
    image.mtime = ts;
    ops[tafdb_->ShardIndexFor(dst_parent_row_key->kid)].puts.push_back(image);
  }
  Status commit_st = CommitWriteSets(std::move(ops), txn);
  unlock_all();
  CacheErase(from);
  CacheErase(to);
  if (commit_st.ok() && dst_exists &&
      dst_row->type != InodeType::kDirectory) {
    filestore_->DeleteAttrAsync(dst_row->id);
  }
  return commit_st;
}

StatusOr<std::string> HopsFsEngine::ReadLink(const std::string& path) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.status();
  auto row = ReadRow(InodeKey::IdRecord(parent->parent, parent->name));
  if (!row.ok()) return row.status();
  if (row->type != InodeType::kSymlink) {
    return Status::InvalidArgument("not a symlink");
  }
  return row->symlink_target;
}

Status HopsFsEngine::Link(const std::string&, const std::string&) {
  // HopsFS implements HDFS semantics: no hard links (§5.8).
  return Status::Unimplemented("HopsFS/HDFS has no hard links");
}

Status HopsFsEngine::Write(const std::string& path, uint64_t offset,
                           const std::string& data) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  if (resolved->type == InodeType::kDirectory) return Status::IsADirectory(path);
  uint64_t ts = NowTs();
  FileStoreNode* node = filestore_->NodeFor(resolved->id);
  size_t block_size = filestore_->block_size();
  Status st = net_->Call(self_, node->ServiceNetId(), [&] {
    return node->WriteBlock(resolved->id, offset / block_size, data, ts);
  });
  if (!st.ok()) return st;
  // Size bookkeeping on the inline row via a short locked transaction.
  SetAttrSpec spec;
  spec.mtime = ts;
  return SetAttr(path, spec);
}

StatusOr<std::string> HopsFsEngine::Read(const std::string& path,
                                         uint64_t offset, size_t length) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  if (resolved->type == InodeType::kDirectory) return Status::IsADirectory(path);
  FileStoreNode* node = filestore_->NodeFor(resolved->id);
  size_t block_size = filestore_->block_size();
  auto block = net_->Call(self_, node->ServiceNetId(), [&] {
    return node->ReadBlock(resolved->id, offset / block_size);
  });
  if (!block.ok()) return block.status();
  size_t start = offset % block_size;
  if (start >= block->size()) return std::string();
  return block->substr(start, length);
}

}  // namespace cfs
