#include "src/baselines/infinifs/infinifs.h"

#include <algorithm>

namespace cfs {
namespace {

InodeRecord MakeInlineRow(const std::string& name, InodeId parent, InodeId id,
                          InodeType type, uint32_t mode, uint64_t ts) {
  InodeRecord row = InodeRecord::MakeDirAttr(id, ts, mode, 0, 0, parent);
  row.key = InodeKey::IdRecord(parent, name);
  row.type = type;
  if (type != InodeType::kDirectory) {
    row.links = 1;
  }
  // The access part never carries the children count; that lives in the
  // content record.
  row.present &= ~static_cast<uint32_t>(InodeRecord::kFieldChildren);
  return row;
}

}  // namespace

Status InfiniFsEngine::ServerSideTxn(
    InodeId group, const std::function<Status(TafDbShard*)>& body) {
  TafDbShard* shard = tafdb_->ShardFor(group);
  return net_->Call(self_, shard->ServiceNetId(),
                    [&] { return body(shard); });
}

Status InfiniFsEngine::InsertInode(const std::string& path, InodeRecord row) {
  auto split = SplitParent(path);
  if (!split.ok()) return split.status();
  auto& [parent_path, name] = *split;
  auto parent = Resolve(parent_path);
  if (!parent.ok()) return parent.status();
  if (parent->type != InodeType::kDirectory) {
    return Status::NotADirectory(parent_path);
  }
  InodeId P = parent->id;
  row.key = InodeKey::IdRecord(P, name);
  row.parent = P;
  uint64_t ts = NowTs();
  TxnId txn = NextTxn();
  InodeKey content_key = ContentKey(P);
  bool is_dir = row.type == InodeType::kDirectory;
  InodeId new_id = row.id;

  Status commit_st;
  if (!is_dir) {
    // Single-group create: the whole critical section executes at the
    // MDS co-located with the group's shard — one RPC, short lock span.
    commit_st = ServerSideTxn(P, [&](TafDbShard* shard) -> Status {
      Status lst = shard->locks()->LockAll(
          txn, {row.key.Encode(), content_key.Encode()},
          LockMode::kExclusive, lock_timeout_us_);
      if (!lst.ok()) return lst;
      auto content = shard->Get(content_key);
      Status st;
      if (!content.ok()) {
        st = content.status();
      } else if (shard->Get(row.key).ok()) {
        st = Status::AlreadyExists(path);
      } else {
        PrimitiveOp op;
        op.puts.push_back(row);
        InodeRecord content_image = std::move(content).value();
        content_image.children += 1;
        content_image.mtime = ts;
        op.puts.push_back(content_image);
        st = shard->CommitLocal(op).status;
      }
      shard->locks()->UnlockAll(txn);
      return st;
    });
    if (commit_st.ok()) {
      CachePut(path, new_id, row.type);
    }
    return commit_st;
  }

  // Directory creation spans the parent's group and the new directory's
  // own group: coordinator-held locks plus 2PC.
  CFS_RETURN_IF_ERROR(LockOnShard(
      txn, P, {row.key.Encode(), content_key.Encode()}));
  auto unlock = [&] { UnlockOnShard(txn, P); };

  auto content = ReadRow(content_key);
  if (!content.ok()) {
    unlock();
    return content.status();
  }
  if (ReadRow(row.key).ok()) {
    unlock();
    return Status::AlreadyExists(path);
  }

  std::map<size_t, PrimitiveOp> ops;
  PrimitiveOp& parent_op = ops[tafdb_->ShardIndexFor(P)];
  parent_op.puts.push_back(row);
  InodeRecord content_image = std::move(content).value();
  content_image.children += 1;
  content_image.links += 1;
  content_image.mtime = ts;
  parent_op.puts.push_back(content_image);
  InodeRecord new_content = InodeRecord::MakeDirAttr(new_id, ts, row.mode,
                                                     row.uid, row.gid, P);
  ops[tafdb_->ShardIndexFor(new_id)].puts.push_back(new_content);
  commit_st = CommitWriteSets(std::move(ops), txn);
  unlock();
  if (commit_st.ok()) {
    CachePut(path, new_id, row.type);
  }
  return commit_st;
}

Status InfiniFsEngine::Create(const std::string& path, uint32_t mode) {
  auto split = SplitParent(path);
  if (!split.ok()) return split.status();
  return InsertInode(path, MakeInlineRow(split->second, 0, AllocId(),
                                         InodeType::kFile, mode, NowTs()));
}

Status InfiniFsEngine::Mkdir(const std::string& path, uint32_t mode) {
  auto split = SplitParent(path);
  if (!split.ok()) return split.status();
  return InsertInode(path, MakeInlineRow(split->second, 0, AllocId(),
                                         InodeType::kDirectory, mode, NowTs()));
}

Status InfiniFsEngine::Symlink(const std::string& target,
                               const std::string& link_path) {
  auto split = SplitParent(link_path);
  if (!split.ok()) return split.status();
  InodeRecord row = MakeInlineRow(split->second, 0, AllocId(),
                                  InodeType::kSymlink, 0777, NowTs());
  row.symlink_target = target;
  row.Set(InodeRecord::kFieldSymlink);
  return InsertInode(link_path, row);
}

Status InfiniFsEngine::Unlink(const std::string& path) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  if (resolved->type == InodeType::kDirectory) {
    return Status::IsADirectory(path);
  }
  InodeId P = resolved->parent;
  InodeKey entry_key = InodeKey::IdRecord(P, resolved->name);
  InodeKey content_key = ContentKey(P);
  uint64_t ts = NowTs();
  TxnId txn = NextTxn();

  InodeId victim_id = kInvalidInode;
  Status commit_st = ServerSideTxn(P, [&](TafDbShard* shard) -> Status {
    Status lst = shard->locks()->LockAll(
        txn, {entry_key.Encode(), content_key.Encode()},
        LockMode::kExclusive, lock_timeout_us_);
    if (!lst.ok()) return lst;
    Status st;
    auto entry = shard->Get(entry_key);
    if (!entry.ok()) {
      st = entry.status();
    } else if (entry->type == InodeType::kDirectory) {
      st = Status::IsADirectory(path);
    } else {
      auto content = shard->Get(content_key);
      if (!content.ok()) {
        st = content.status();
      } else {
        victim_id = entry->id;
        PrimitiveOp op;
        DeleteSpec del;
        del.key = entry_key;
        op.deletes.push_back(del);
        InodeRecord content_image = std::move(content).value();
        content_image.children -= 1;
        content_image.mtime = ts;
        op.puts.push_back(content_image);
        st = shard->CommitLocal(op).status;
      }
    }
    shard->locks()->UnlockAll(txn);
    return st;
  });
  CacheErase(path);
  if (commit_st.ok() && victim_id != kInvalidInode) {
    filestore_->DeleteAttrAsync(victim_id);  // data blocks
  }
  return commit_st;
}

Status InfiniFsEngine::Rmdir(const std::string& path) {
  auto resolved = Resolve(path);
  if (!resolved.ok()) return resolved.status();
  if (resolved->type != InodeType::kDirectory) {
    return Status::NotADirectory(path);
  }
  if (resolved->id == kRootInode) {
    return Status::InvalidArgument("cannot remove /");
  }
  InodeId P = resolved->parent;
  InodeId D = resolved->id;
  InodeKey entry_key = InodeKey::IdRecord(P, resolved->name);
  InodeKey parent_content = ContentKey(P);
  InodeKey dir_content = ContentKey(D);
  uint64_t ts = NowTs();
  TxnId txn = NextTxn();

  // Lock the parent-side keys and the directory's content record, in
  // global shard order (2PC spans hash(P) and hash(D)).
  struct Plan {
    InodeId kid;
    std::vector<std::string> keys;
  };
  std::vector<Plan> plans;
  plans.push_back({P, {entry_key.Encode(), parent_content.Encode()}});
  if (tafdb_->ShardIndexFor(D) == tafdb_->ShardIndexFor(P)) {
    plans[0].keys.push_back(dir_content.Encode());
  } else {
    plans.push_back({D, {dir_content.Encode()}});
  }
  std::sort(plans.begin(), plans.end(), [&](const Plan& a, const Plan& b) {
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

  auto dir_row = ReadRow(dir_content);
  if (!dir_row.ok()) {
    unlock_all();
    CacheErase(path);
    return dir_row.status();
  }
  if (dir_row->children != 0) {
    unlock_all();
    return Status::NotEmpty(path);
  }
  auto content = ReadRow(parent_content);
  if (!content.ok()) {
    unlock_all();
    return content.status();
  }

  std::map<size_t, PrimitiveOp> ops;
  {
    PrimitiveOp& op = ops[tafdb_->ShardIndexFor(P)];
    DeleteSpec del;
    del.key = entry_key;
    op.deletes.push_back(del);
    InodeRecord image = std::move(content).value();
    image.children -= 1;
    image.links -= 1;
    image.mtime = ts;
    op.puts.push_back(image);
  }
  {
    PrimitiveOp& op = ops[tafdb_->ShardIndexFor(D)];
    DeleteSpec del;
    del.key = dir_content;
    op.deletes.push_back(del);
  }
  Status commit_st = CommitWriteSets(std::move(ops), txn);
  unlock_all();
  CacheErase(path);
  return commit_st;
}

StatusOr<FileInfo> InfiniFsEngine::Lookup(const std::string& path) {
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

StatusOr<FileInfo> InfiniFsEngine::GetAttr(const std::string& path) {
  if (path == "/") {
    auto row = ReadRow(ContentKey(kRootInode));
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
  FileInfo info = FileInfo::FromRecord(*row);
  if (row->type == InodeType::kDirectory) {
    // Children count lives in the content part.
    auto content = ReadRow(ContentKey(row->id));
    if (content.ok()) {
      info.children = content->children;
      info.links = content->links;
    }
  }
  return info;
}

Status InfiniFsEngine::SetAttr(const std::string& path,
                               const SetAttrSpec& spec) {
  InodeKey row_key = ContentKey(kRootInode);
  if (path != "/") {
    auto parent = ResolveParent(path);
    if (!parent.ok()) return parent.status();
    row_key = InodeKey::IdRecord(parent->parent, parent->name);
  }
  uint64_t ts = NowTs();
  TxnId txn = NextTxn();
  return ServerSideTxn(row_key.kid, [&](TafDbShard* shard) -> Status {
    Status lst = shard->locks()->Lock(txn, row_key.Encode(),
                                      LockMode::kExclusive, lock_timeout_us_);
    if (!lst.ok()) return lst;
    auto row = shard->Get(row_key);
    Status st = row.status();
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
      PrimitiveOp op;
      op.puts.push_back(image);
      st = shard->CommitLocal(op).status;
    }
    shard->locks()->UnlockAll(txn);
    return st;
  });
}

StatusOr<std::vector<DirEntry>> InfiniFsEngine::ReadDir(
    const std::string& path) {
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

Status InfiniFsEngine::Rename(const std::string& from, const std::string& to) {
  if (from == to) return Status::Ok();
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
  bool is_dir = src->type == InodeType::kDirectory;

  if (!is_dir && src->parent == dst_parent->parent) {
    // Intra-directory file rename: single-group, executed server-side at
    // the co-located MDS (still a lock-based read-modify-write, which is
    // what CFS's fast-path primitive beats in §5.6).
    InodeId P = src->parent;
    InodeKey src_key_local = InodeKey::IdRecord(P, src->name);
    InodeKey dst_key_local = InodeKey::IdRecord(P, dst_parent->name);
    InodeKey content_local = ContentKey(P);
    InodeId replaced = kInvalidInode;
    Status st = ServerSideTxn(P, [&](TafDbShard* shard) -> Status {
      Status lst = shard->locks()->LockAll(
          txn,
          {src_key_local.Encode(), dst_key_local.Encode(),
           content_local.Encode()},
          LockMode::kExclusive, lock_timeout_us_);
      if (!lst.ok()) return lst;
      Status body_st;
      auto src_row = shard->Get(src_key_local);
      if (!src_row.ok()) {
        body_st = src_row.status();
      } else {
        auto dst_row = shard->Get(dst_key_local);
        bool dst_exists = dst_row.ok();
        if (dst_exists && dst_row->type == InodeType::kDirectory) {
          body_st = Status::IsADirectory(to);
        } else {
          auto content = shard->Get(content_local);
          if (!content.ok()) {
            body_st = content.status();
          } else {
            if (dst_exists) replaced = dst_row->id;
            PrimitiveOp op;
            DeleteSpec del;
            del.key = src_key_local;
            op.deletes.push_back(del);
            InodeRecord moved = std::move(src_row).value();
            moved.key = dst_key_local;
            op.puts.push_back(moved);
            InodeRecord image = std::move(content).value();
            if (dst_exists) image.children -= 1;
            image.mtime = ts;
            op.puts.push_back(image);
            body_st = shard->CommitLocal(op).status;
          }
        }
      }
      shard->locks()->UnlockAll(txn);
      return body_st;
    });
    CacheErase(from);
    CacheErase(to);
    if (st.ok() && replaced != kInvalidInode) {
      filestore_->DeleteAttrAsync(replaced);
    }
    return st;
  }

  // Directory renames are serialized through a coordinator-wide lock so the
  // subtree-loop check above stays sound under concurrency.
  bool have_global = false;
  if (is_dir) {
    CFS_RETURN_IF_ERROR(LockOnShard(txn, kRootInode, {"ifs-rename-dir"}));
    have_global = true;
  }

  InodeKey src_key = InodeKey::IdRecord(src->parent, src->name);
  InodeKey dst_key = InodeKey::IdRecord(dst_parent->parent, dst_parent->name);
  InodeKey src_content = ContentKey(src->parent);
  InodeKey dst_content = ContentKey(dst_parent->parent);

  std::map<size_t, std::pair<InodeId, std::vector<std::string>>> lock_plan;
  auto add_lock = [&](const InodeKey& key) {
    auto& slot = lock_plan[tafdb_->ShardIndexFor(key.kid)];
    slot.first = key.kid;
    slot.second.push_back(key.Encode());
  };
  add_lock(src_key);
  add_lock(dst_key);
  add_lock(src_content);
  add_lock(dst_content);
  std::vector<InodeId> locked;
  auto unlock_all = [&] {
    for (InodeId kid : locked) UnlockOnShard(txn, kid);
    if (have_global) UnlockOnShard(txn, kRootInode);
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
      auto dst_dir_content = ReadRow(ContentKey(dst_row->id));
      if (dst_dir_content.ok() && dst_dir_content->children != 0) {
        unlock_all();
        return Status::NotEmpty(to);
      }
    } else if (dst_row->type == InodeType::kDirectory) {
      unlock_all();
      return Status::IsADirectory(to);
    }
  }
  auto src_content_row = ReadRow(src_content);
  auto dst_content_row = ReadRow(dst_content);
  if (!src_content_row.ok() || !dst_content_row.ok()) {
    unlock_all();
    return src_content_row.ok() ? dst_content_row.status()
                                : src_content_row.status();
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
    if (dst_exists && dst_row->type == InodeType::kDirectory) {
      DeleteSpec del;
      del.key = ContentKey(dst_row->id);
      del.ifexist = true;
      ops[tafdb_->ShardIndexFor(dst_row->id)].deletes.push_back(del);
    }
  }
  bool same_parent = src->parent == dst_parent->parent;
  {
    InodeRecord image = std::move(src_content_row).value();
    image.children -= 1;
    if (same_parent && !dst_exists) image.children += 1;
    image.mtime = ts;
    ops[tafdb_->ShardIndexFor(src_content.kid)].puts.push_back(image);
  }
  if (!same_parent) {
    InodeRecord image = std::move(dst_content_row).value();
    if (!dst_exists) image.children += 1;
    image.mtime = ts;
    ops[tafdb_->ShardIndexFor(dst_content.kid)].puts.push_back(image);
  }
  if (is_dir) {
    // Reparent the moved directory's content record.
    auto moved_content = ReadRow(ContentKey(src->id));
    if (moved_content.ok()) {
      InodeRecord image = std::move(moved_content).value();
      image.parent = dst_parent->parent;
      image.Set(InodeRecord::kFieldParent);
      ops[tafdb_->ShardIndexFor(src->id)].puts.push_back(image);
    }
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

StatusOr<std::string> InfiniFsEngine::ReadLink(const std::string& path) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.status();
  auto row = ReadRow(InodeKey::IdRecord(parent->parent, parent->name));
  if (!row.ok()) return row.status();
  if (row->type != InodeType::kSymlink) {
    return Status::InvalidArgument("not a symlink");
  }
  return row->symlink_target;
}

Status InfiniFsEngine::Link(const std::string&, const std::string&) {
  // Inline-attribute grouping cannot represent multi-parent inodes.
  return Status::Unimplemented("InfiniFS baseline has no hard links");
}

Status InfiniFsEngine::Write(const std::string& path, uint64_t offset,
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
  SetAttrSpec spec;
  spec.mtime = ts;
  return SetAttr(path, spec);
}

StatusOr<std::string> InfiniFsEngine::Read(const std::string& path,
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
