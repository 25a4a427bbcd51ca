#include "src/filestore/filestore.h"

#include "src/common/encoding.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace cfs {
namespace {

struct FileStoreMetrics {
  Counter* mutations;
  Counter* attr_reads;
  Counter* block_reads;
};

FileStoreMetrics& Metrics() {
  static FileStoreMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return FileStoreMetrics{r.GetCounter("filestore.mutations"),
                            r.GetCounter("filestore.attr_reads"),
                            r.GetCounter("filestore.block_reads")};
  }();
  return m;
}

void PutBigEndian64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 7; i >= 0; i--) {
    buf[i] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
  dst->append(buf, 8);
}

}  // namespace

std::string FileStoreSm::AttrKey(InodeId id) {
  std::string key(1, 'A');
  PutBigEndian64(&key, id);
  return key;
}

std::string FileStoreSm::BlockKey(InodeId id, uint64_t index) {
  std::string key(1, 'B');
  PutBigEndian64(&key, id);
  PutBigEndian64(&key, index);
  return key;
}

std::string FileStoreSm::BlockPrefix(InodeId id) {
  std::string key(1, 'B');
  PutBigEndian64(&key, id);
  return key;
}

std::string FileStoreCommand::Encode() const {
  std::string out;
  out.push_back(static_cast<char>(kind));
  PutVarint64(&out, txn);
  PutVarint64(&out, request_id);
  PutVarint64(&out, id);
  PutVarint64(&out, block_index);
  PutLengthPrefixed(&out, data);
  PutLengthPrefixed(&out, attr.EncodeValue());
  PrimitiveOp update_carrier;
  update_carrier.updates.push_back(update);
  PutLengthPrefixed(&out, update_carrier.Encode());
  return out;
}

StatusOr<FileStoreCommand> FileStoreCommand::Decode(std::string_view raw) {
  if (raw.empty()) return Status::Corruption("empty filestore command");
  FileStoreCommand cmd;
  cmd.kind = static_cast<Kind>(raw[0]);
  Decoder dec(raw.substr(1));
  std::string_view attr_raw, update_raw;
  if (!dec.GetVarint64(&cmd.txn) || !dec.GetVarint64(&cmd.request_id) ||
      !dec.GetVarint64(&cmd.id) ||
      !dec.GetVarint64(&cmd.block_index) ||
      !dec.GetLengthPrefixed(&cmd.data) ||
      !dec.GetLengthPrefixed(&attr_raw) ||
      !dec.GetLengthPrefixed(&update_raw)) {
    return Status::Corruption("filestore command truncated");
  }
  auto attr = InodeRecord::DecodeValue(InodeKey::AttrRecord(cmd.id), attr_raw);
  if (!attr.ok()) return attr.status();
  cmd.attr = std::move(attr).value();
  auto carrier = PrimitiveOp::Decode(update_raw);
  if (!carrier.ok()) return carrier.status();
  if (!carrier->updates.empty()) cmd.update = carrier->updates[0];
  return cmd;
}

PrimitiveResult FileStoreSm::ApplyCommand(const FileStoreCommand& cmd) {
  PrimitiveResult result;
  switch (cmd.kind) {
    case FileStoreCommand::Kind::kPutAttr: {
      WriteBatch batch;
      batch.Put(AttrKey(cmd.id), cmd.attr.EncodeValue());
      if (!cmd.data.empty()) {
        batch.Put(BlockKey(cmd.id, 0), cmd.data);  // piggybacked first block
      }
      result.status = kv_.Write(batch);
      break;
    }
    case FileStoreCommand::Kind::kDeleteAttr:
      result.status = kv_.Delete(AttrKey(cmd.id));
      break;
    case FileStoreCommand::Kind::kSetAttr: {
      auto value = kv_.Get(AttrKey(cmd.id));
      if (!value.ok()) {
        result.status = value.status();
        break;
      }
      auto rec = InodeRecord::DecodeValue(InodeKey::AttrRecord(cmd.id), *value);
      if (!rec.ok()) {
        result.status = rec.status();
        break;
      }
      ApplyUpdateToRecord(cmd.update, 0, &rec.value());
      result.status = kv_.Put(AttrKey(cmd.id), rec->EncodeValue());
      break;
    }
    case FileStoreCommand::Kind::kWriteBlock: {
      WriteBatch batch;
      batch.Put(BlockKey(cmd.id, cmd.block_index), cmd.data);
      // Merge size/mtime into the co-located attribute record when present;
      // in non-tiered configurations the attribute lives in TafDB and the
      // caller updates it there instead.
      auto value = kv_.Get(AttrKey(cmd.id));
      if (value.ok()) {
        auto rec =
            InodeRecord::DecodeValue(InodeKey::AttrRecord(cmd.id), *value);
        if (!rec.ok()) {
          result.status = rec.status();
          break;
        }
        ApplyUpdateToRecord(cmd.update, 0, &rec.value());
        batch.Put(AttrKey(cmd.id), rec->EncodeValue());
      }
      result.status = kv_.Write(batch);
      break;
    }
    case FileStoreCommand::Kind::kUnref: {
      auto value = kv_.Get(AttrKey(cmd.id));
      if (!value.ok()) {
        result.status = Status::Ok();  // already gone: idempotent
        break;
      }
      auto rec = InodeRecord::DecodeValue(InodeKey::AttrRecord(cmd.id), *value);
      if (!rec.ok()) {
        result.status = rec.status();
        break;
      }
      rec->links -= 1;
      if (rec->links > 0) {
        result.status = kv_.Put(AttrKey(cmd.id), rec->EncodeValue());
        break;
      }
      // Last link gone: reclaim the attribute and all blocks.
      WriteBatch batch;
      batch.Delete(AttrKey(cmd.id));
      std::string prefix = BlockPrefix(cmd.id);
      std::string upper = prefix;
      upper.back() = static_cast<char>(upper.back() + 1);
      for (const auto& [key, v] : kv_.Scan(prefix, upper)) {
        batch.Delete(key);
        result.deleted++;
      }
      result.status = kv_.Write(batch);
      break;
    }
    case FileStoreCommand::Kind::kDeleteFile: {
      WriteBatch batch;
      batch.Delete(AttrKey(cmd.id));
      std::string prefix = BlockPrefix(cmd.id);
      std::string upper = prefix;
      upper.back() = static_cast<char>(upper.back() + 1);
      for (const auto& [key, v] : kv_.Scan(prefix, upper)) {
        batch.Delete(key);
        result.deleted++;
      }
      result.status = kv_.Write(batch);
      break;
    }
    default:
      result.status = Status::Internal("transactional kind in ApplyCommand");
      break;
  }
  return result;
}

std::string FileStoreSm::Apply(LogIndex, std::string_view command) {
  PrimitiveResult result;
  auto decoded = FileStoreCommand::Decode(command);
  if (!decoded.ok()) {
    result.status = decoded.status();
    return result.Encode();
  }
  FileStoreCommand& cmd = *decoded;
  if (cmd.request_id != 0) {
    auto it = applied_requests_.find(cmd.request_id);
    if (it != applied_requests_.end()) {
      return it->second;  // exactly-once: replay the original result
    }
  }
  switch (cmd.kind) {
    case FileStoreCommand::Kind::kPrepare: {
      auto inner = FileStoreCommand::Decode(cmd.data);
      if (!inner.ok()) {
        result.status = inner.status();
      } else {
        staged_[cmd.txn] = std::move(inner).value();
        result.status = Status::Ok();
      }
      break;
    }
    case FileStoreCommand::Kind::kCommitTxn: {
      auto it = staged_.find(cmd.txn);
      if (it == staged_.end()) {
        result.status = Status::NotFound("no staged filestore txn");
      } else {
        result = ApplyCommand(it->second);
        staged_.erase(it);
      }
      break;
    }
    case FileStoreCommand::Kind::kAbortTxn:
      staged_.erase(cmd.txn);
      result.status = Status::Ok();
      break;
    default:
      result = ApplyCommand(cmd);
      break;
  }
  std::string encoded = result.Encode();
  if (cmd.request_id != 0) {
    applied_requests_.emplace(cmd.request_id, encoded);
    applied_order_.push_back(cmd.request_id);
    while (applied_order_.size() > (1u << 16)) {
      applied_requests_.erase(applied_order_.front());
      applied_order_.pop_front();
    }
  }
  return encoded;
}

std::string FileStoreSm::Snapshot() {
  std::string out;
  auto rows = kv_.Scan("", "");
  PutVarint64(&out, rows.size());
  for (const auto& [key, value] : rows) {
    PutLengthPrefixed(&out, key);
    PutLengthPrefixed(&out, value);
  }
  PutVarint64(&out, staged_.size());
  for (const auto& [txn, cmd] : staged_) {
    PutVarint64(&out, txn);
    PutLengthPrefixed(&out, cmd.Encode());
  }
  PutVarint64(&out, applied_order_.size());
  for (uint64_t id : applied_order_) {
    PutVarint64(&out, id);
    PutLengthPrefixed(&out, applied_requests_[id]);
  }
  return out;
}

Status FileStoreSm::Restore(std::string_view state) {
  Decoder dec(state);
  uint64_t rows, staged, dedup;
  if (!dec.GetVarint64(&rows)) return Status::Corruption("snapshot rows");
  kv_.Clear();
  WriteBatch batch;
  for (uint64_t i = 0; i < rows; i++) {
    std::string key, value;
    if (!dec.GetLengthPrefixed(&key) || !dec.GetLengthPrefixed(&value)) {
      return Status::Corruption("snapshot row truncated");
    }
    batch.Put(key, value);
  }
  CFS_RETURN_IF_ERROR(kv_.Write(batch));
  staged_.clear();
  if (!dec.GetVarint64(&staged)) return Status::Corruption("snapshot staged");
  for (uint64_t i = 0; i < staged; i++) {
    uint64_t txn;
    std::string_view cmd_raw;
    if (!dec.GetVarint64(&txn) || !dec.GetLengthPrefixed(&cmd_raw)) {
      return Status::Corruption("snapshot staged truncated");
    }
    auto cmd = FileStoreCommand::Decode(cmd_raw);
    if (!cmd.ok()) return cmd.status();
    staged_[txn] = std::move(cmd).value();
  }
  applied_requests_.clear();
  applied_order_.clear();
  if (!dec.GetVarint64(&dedup)) return Status::Corruption("snapshot dedup");
  for (uint64_t i = 0; i < dedup; i++) {
    uint64_t id;
    std::string result;
    if (!dec.GetVarint64(&id) || !dec.GetLengthPrefixed(&result)) {
      return Status::Corruption("snapshot dedup truncated");
    }
    applied_requests_.emplace(id, std::move(result));
    applied_order_.push_back(id);
  }
  return Status::Ok();
}

FileStoreNode::FileStoreNode(SimNet* net, std::string name,
                             std::vector<uint32_t> servers,
                             const FileStoreOptions& options)
    : net_(net),
      name_(std::move(name)),
      options_(options),
      read_gate_(options.read_concurrency, options.read_processing_us) {
  group_ = std::make_unique<RaftGroup>(
      net_, name_, std::move(servers),
      [](ReplicaId) { return std::make_unique<FileStoreSm>(); },
      options_.raft);
}

Status FileStoreNode::Start() { return group_->Start(); }
void FileStoreNode::Stop() { group_->Stop(); }

NodeId FileStoreNode::ServiceNetId() const {
  RaftNode* leader = group_->Leader();
  return leader != nullptr ? leader->net_id() : group_->replica(0)->net_id();
}

const FileStoreSm* FileStoreNode::LeaderSm() const {
  RaftNode* leader = group_->Leader();
  if (leader != nullptr) {
    // Same linearizable-read rule as TafDB shards (see TafDbShard).
    (void)leader->ReadBarrier();
    return static_cast<const FileStoreSm*>(
        const_cast<FileStoreNode*>(this)->group_->state_machine(leader->id()));
  }
  return static_cast<const FileStoreSm*>(
      const_cast<FileStoreNode*>(this)->group_->state_machine(0));
}

void FileStoreNode::ReadProcessingGate() const {
  if (net_->options().mode != LatencyMode::kZero) {
    read_gate_.Charge();
  }
}

Status FileStoreNode::Propose(const FileStoreCommand& cmd) {
  Metrics().mutations->Add();
  FileStoreCommand stamped = cmd;
  stamped.request_id =
      (static_cast<uint64_t>(group_->replica(0)->net_id()) << 40) |
      request_seq_.fetch_add(1);
  auto result = group_->Propose(stamped.Encode());
  if (!result.ok()) return result.status();
  return PrimitiveResult::Decode(*result).status;
}

Status FileStoreNode::PutAttr(const InodeRecord& attr,
                              std::string piggyback_block) {
  FileStoreCommand cmd;
  cmd.kind = FileStoreCommand::Kind::kPutAttr;
  cmd.id = attr.id;
  cmd.attr = attr;
  cmd.data = std::move(piggyback_block);
  return Propose(cmd);
}

Status FileStoreNode::DeleteAttr(InodeId id) {
  FileStoreCommand cmd;
  cmd.kind = FileStoreCommand::Kind::kDeleteAttr;
  cmd.id = id;
  return Propose(cmd);
}

Status FileStoreNode::SetAttr(InodeId id, const UpdateSpec& update) {
  FileStoreCommand cmd;
  cmd.kind = FileStoreCommand::Kind::kSetAttr;
  cmd.id = id;
  cmd.update = update;
  return Propose(cmd);
}

StatusOr<InodeRecord> FileStoreNode::GetAttr(InodeId id) const {
  Metrics().attr_reads->Add();
  ReadProcessingGate();
  auto value = LeaderSm()->kv().Get(FileStoreSm::AttrKey(id));
  if (!value.ok()) return value.status();
  return InodeRecord::DecodeValue(InodeKey::AttrRecord(id), *value);
}

Status FileStoreNode::WriteBlock(InodeId id, uint64_t index, std::string data,
                                 uint64_t mtime_ts) {
  FileStoreCommand cmd;
  cmd.kind = FileStoreCommand::Kind::kWriteBlock;
  cmd.id = id;
  cmd.block_index = index;
  cmd.update.key = InodeKey::AttrRecord(id);
  cmd.update.size_delta = static_cast<int64_t>(data.size());
  cmd.update.lww.mtime = mtime_ts;
  cmd.data = std::move(data);
  return Propose(cmd);
}

StatusOr<std::string> FileStoreNode::ReadBlock(InodeId id,
                                               uint64_t index) const {
  Metrics().block_reads->Add();
  ReadProcessingGate();
  return LeaderSm()->kv().Get(FileStoreSm::BlockKey(id, index));
}

Status FileStoreNode::Unref(InodeId id) {
  FileStoreCommand cmd;
  cmd.kind = FileStoreCommand::Kind::kUnref;
  cmd.id = id;
  return Propose(cmd);
}

Status FileStoreNode::DeleteFile(InodeId id) {
  FileStoreCommand cmd;
  cmd.kind = FileStoreCommand::Kind::kDeleteFile;
  cmd.id = id;
  return Propose(cmd);
}

Status FileStoreNode::Stage(TxnId txn, FileStoreCommand cmd) {
  MutexLock lock(staged_mu_);
  staged_[txn] = std::move(cmd);
  return Status::Ok();
}

Status FileStoreNode::Prepare(TxnId txn) {
  FileStoreCommand inner;
  {
    MutexLock lock(staged_mu_);
    auto it = staged_.find(txn);
    if (it == staged_.end()) return Status::NotFound("nothing staged");
    inner = it->second;
  }
  FileStoreCommand cmd;
  cmd.kind = FileStoreCommand::Kind::kPrepare;
  cmd.txn = txn;
  cmd.data = inner.Encode();
  return Propose(cmd);
}

Status FileStoreNode::Commit(TxnId txn) {
  {
    MutexLock lock(staged_mu_);
    staged_.erase(txn);
  }
  FileStoreCommand cmd;
  cmd.kind = FileStoreCommand::Kind::kCommitTxn;
  cmd.txn = txn;
  return Propose(cmd);
}

Status FileStoreNode::Abort(TxnId txn) {
  {
    MutexLock lock(staged_mu_);
    staged_.erase(txn);
  }
  FileStoreCommand cmd;
  cmd.kind = FileStoreCommand::Kind::kAbortTxn;
  cmd.txn = txn;
  (void)Propose(cmd);
  return Status::Ok();
}

std::vector<std::pair<LogIndex, FileStoreCommand>>
FileStoreNode::ReadCommittedSince(LogIndex from, size_t max) const {
  RaftNode* leader = group_->Leader();
  RaftNode* source =
      leader != nullptr ? leader
                        : const_cast<FileStoreNode*>(this)->group_->replica(0);
  std::vector<std::pair<LogIndex, FileStoreCommand>> out;
  for (auto& [index, raw] : source->ReadCommittedSince(from, max)) {
    auto cmd = FileStoreCommand::Decode(raw);
    if (cmd.ok()) {
      out.emplace_back(index, std::move(cmd).value());
    }
  }
  return out;
}

FileStoreCluster::FileStoreCluster(SimNet* net, std::vector<uint32_t> servers,
                                   FileStoreOptions options)
    : net_(net), options_(std::move(options)) {
  size_t server_cursor = 0;
  auto next_server = [&]() {
    uint32_t s = servers.empty() ? 0 : servers[server_cursor % servers.size()];
    server_cursor++;
    return s;
  };
  for (size_t i = 0; i < options_.num_nodes; i++) {
    std::vector<uint32_t> replica_servers;
    for (size_t r = 0; r < options_.replicas; r++) {
      replica_servers.push_back(next_server());
    }
    nodes_.push_back(std::make_unique<FileStoreNode>(
        net_, "filestore-n" + std::to_string(i), std::move(replica_servers),
        options_));
  }
  async_pool_ = std::make_unique<ThreadPool>(8, "fs-async");
}

Status FileStoreCluster::Start() {
  for (auto& node : nodes_) {
    CFS_RETURN_IF_ERROR(node->Start());
  }
  for (auto& node : nodes_) {
    auto leader = node->raft_group()->WaitForLeader();
    if (!leader.ok()) return leader.status();
  }
  CFS_LOG(kInfo) << "filestore started: " << nodes_.size() << " nodes";
  return Status::Ok();
}

void FileStoreCluster::Stop() {
  async_pool_->Shutdown();
  for (auto& node : nodes_) {
    node->Stop();
  }
}

void FileStoreCluster::DeleteAttrAsync(InodeId id) {
  FileStoreNode* node = NodeFor(id);
  async_pool_->Submit([node, id] { (void)node->DeleteFile(id); });
}

void FileStoreCluster::UnrefAsync(InodeId id) {
  FileStoreNode* node = NodeFor(id);
  async_pool_->Submit([node, id] { (void)node->Unref(id); });
}

void FileStoreCluster::DrainAsync() { async_pool_->Wait(); }

}  // namespace cfs
