#include "src/tafdb/shard.h"

#include <algorithm>

#include "src/common/encoding.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/race_detector.h"

namespace cfs {
namespace {

// Counts the primitive (single-shard atomic) path vs. the lock-based txn
// path — the split the paper's §3.2 argument is about.
struct TafDbMetrics {
  Counter* primitives;
  Counter* txn_commits;
  Counter* prepares;
  Counter* aborts;
  Counter* reads;
};

TafDbMetrics& Metrics() {
  static TafDbMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return TafDbMetrics{r.GetCounter("tafdb.primitives"),
                        r.GetCounter("tafdb.txn_commits"),
                        r.GetCounter("tafdb.prepares"),
                        r.GetCounter("tafdb.aborts"),
                        r.GetCounter("tafdb.reads")};
  }();
  return m;
}

}  // namespace

std::string ShardCommand::Encode() const {
  std::string out;
  out.push_back(static_cast<char>(kind));
  PutVarint64(&out, txn);
  PutVarint64(&out, request_id);
  PutLengthPrefixed(&out, op.Encode());
  return out;
}

StatusOr<ShardCommand> ShardCommand::Decode(std::string_view data) {
  if (data.empty()) return Status::Corruption("empty shard command");
  ShardCommand cmd;
  cmd.kind = static_cast<Kind>(data[0]);
  Decoder dec(data.substr(1));
  std::string_view op_raw;
  if (!dec.GetVarint64(&cmd.txn) || !dec.GetVarint64(&cmd.request_id) ||
      !dec.GetLengthPrefixed(&op_raw)) {
    return Status::Corruption("shard command truncated");
  }
  auto op = PrimitiveOp::Decode(op_raw);
  if (!op.ok()) return op.status();
  cmd.op = std::move(op).value();
  return cmd;
}

std::string TafDbShardSm::Apply(LogIndex, std::string_view command) {
  auto decoded = ShardCommand::Decode(command);
  if (!decoded.ok()) {
    PrimitiveResult r;
    r.status = decoded.status();
    return r.Encode();
  }
  ShardCommand& cmd = *decoded;
  // Exactly-once: a retried proposal that already applied replays its
  // original result instead of re-executing.
  if (cmd.request_id != 0) {
    auto it = applied_requests_.find(cmd.request_id);
    if (it != applied_requests_.end()) {
      return it->second;
    }
  }
  PrimitiveResult result;
  switch (cmd.kind) {
    case ShardCommand::Kind::kPrimitive:
      result = ApplyOp(cmd.op);
      break;
    case ShardCommand::Kind::kPrepare:
      staged_[cmd.txn] = std::move(cmd.op);
      result.status = Status::Ok();
      break;
    case ShardCommand::Kind::kCommitTxn: {
      auto it = staged_.find(cmd.txn);
      if (it == staged_.end()) {
        result.status = Status::NotFound("no staged txn");
      } else {
        result = ApplyOp(it->second);
        staged_.erase(it);
      }
      break;
    }
    case ShardCommand::Kind::kAbortTxn:
      staged_.erase(cmd.txn);
      result.status = Status::Ok();
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

PrimitiveResult TafDbShardSm::ApplyOp(const PrimitiveOp& op) {
  PrimitiveResult result = ExecutePrimitive(op, &kv_);
  if (!result.status.ok() || op.epoch_dir == kInvalidInode) return result;
  // The names this bump touched: the op's own dentries under epoch_dir.
  std::vector<std::string> names;
  auto touch = [&](const InodeKey& key) {
    if (key.kid != op.epoch_dir || key.IsAttr()) return;
    if (std::find(names.begin(), names.end(), key.kstr) == names.end()) {
      names.push_back(key.kstr);
    }
  };
  for (const auto& del : op.deletes) touch(del.key);
  for (const auto& ins : op.inserts) touch(ins.key);
  for (const auto& put : op.puts) touch(put.key);

  WriterMutexLock lock(epoch_mu_);
  CFS_SHARED_WRITE(dirs_, epoch_mu_);
  DirJournal& journal = dirs_[op.epoch_dir];
  journal.epoch++;
  if (names.empty()) {
    // A bump that names no dentry (directory setattr) could have changed
    // anything cached under the directory: nothing before it is covered.
    journal.bumps.clear();
    journal.floor = journal.epoch;
  } else {
    journal.bumps.emplace_back(journal.epoch, std::move(names));
    if (journal.bumps.size() > kJournalDepth) {
      journal.floor = journal.bumps.front().first;
      journal.bumps.pop_front();
    }
  }
  result.changes = ChangesSinceLocked(journal, op.epoch_since);
  return result;
}

DirChanges TafDbShardSm::ChangesSinceLocked(const DirJournal& journal,
                                            uint64_t since) const {
  DirChanges out;
  out.since = since;
  out.epoch = journal.epoch;
  out.covered = since >= journal.floor && since <= journal.epoch;
  if (!out.covered) return out;
  for (auto it = journal.bumps.rbegin();
       it != journal.bumps.rend() && it->first > since; ++it) {
    for (const std::string& name : it->second) {
      if (std::find(out.names.begin(), out.names.end(), name) ==
          out.names.end()) {
        out.names.push_back(name);
      }
    }
  }
  return out;
}

DirChanges TafDbShardSm::DirChangesSince(InodeId dir, uint64_t since) const {
  ReaderMutexLock lock(epoch_mu_);
  CFS_SHARED_READ(dirs_, epoch_mu_);
  auto it = dirs_.find(dir);
  return ChangesSinceLocked(it == dirs_.end() ? DirJournal() : it->second,
                            since);
}

std::string TafDbShardSm::Snapshot() {
  std::string out;
  auto rows = kv_.Scan("", "");
  PutVarint64(&out, rows.size());
  for (const auto& [key, value] : rows) {
    PutLengthPrefixed(&out, key);
    PutLengthPrefixed(&out, value);
  }
  PutVarint64(&out, staged_.size());
  for (const auto& [txn, op] : staged_) {
    PutVarint64(&out, txn);
    PutLengthPrefixed(&out, op.Encode());
  }
  PutVarint64(&out, applied_order_.size());
  for (uint64_t id : applied_order_) {
    PutVarint64(&out, id);
    PutLengthPrefixed(&out, applied_requests_[id]);
  }
  ReaderMutexLock lock(epoch_mu_);
  CFS_SHARED_READ(dirs_, epoch_mu_);
  PutVarint64(&out, dirs_.size());
  for (const auto& [dir, journal] : dirs_) {
    PutVarint64(&out, dir);
    PutVarint64(&out, journal.epoch);
  }
  return out;
}

Status TafDbShardSm::Restore(std::string_view state) {
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
    std::string_view op_raw;
    if (!dec.GetVarint64(&txn) || !dec.GetLengthPrefixed(&op_raw)) {
      return Status::Corruption("snapshot staged truncated");
    }
    auto op = PrimitiveOp::Decode(op_raw);
    if (!op.ok()) return op.status();
    staged_[txn] = std::move(op).value();
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
  uint64_t epochs;
  if (!dec.GetVarint64(&epochs)) return Status::Corruption("snapshot epochs");
  WriterMutexLock lock(epoch_mu_);
  CFS_SHARED_WRITE(dirs_, epoch_mu_);
  dirs_.clear();
  for (uint64_t i = 0; i < epochs; i++) {
    uint64_t dir, epoch;
    if (!dec.GetVarint64(&dir) || !dec.GetVarint64(&epoch)) {
      return Status::Corruption("snapshot epochs truncated");
    }
    DirJournal& journal = dirs_[dir];
    journal.epoch = epoch;
    journal.floor = epoch;
  }
  return Status::Ok();
}

TafDbShard::TafDbShard(SimNet* net, std::string name,
                       std::vector<uint32_t> servers,
                       TafDbShardOptions options)
    : net_(net),
      name_(std::move(name)),
      read_gate_(options.read_concurrency, options.read_processing_us),
      txn_write_gate_(options.txn_write_concurrency,
                      options.txn_write_processing_us) {
  group_ = std::make_unique<RaftGroup>(
      net_, name_, std::move(servers),
      [](ReplicaId) { return std::make_unique<TafDbShardSm>(); },
      options.raft);
}

Status TafDbShard::Start() { return group_->Start(); }
void TafDbShard::Stop() { group_->Stop(); }

NodeId TafDbShard::ServiceNetId() const {
  RaftNode* leader = group_->Leader();
  return leader != nullptr ? leader->net_id() : group_->replica(0)->net_id();
}

const TafDbShardSm* TafDbShard::LeaderSm() const {
  RaftNode* leader = group_->Leader();
  if (leader != nullptr) {
    // Linearizable leader reads: a freshly elected leader must apply its
    // term-start no-op (and with it everything previously committed)
    // before its state machine may be read.
    (void)leader->ReadBarrier();
    return static_cast<const TafDbShardSm*>(
        const_cast<TafDbShard*>(this)->group_->state_machine(leader->id()));
  }
  return static_cast<const TafDbShardSm*>(
      const_cast<TafDbShard*>(this)->group_->state_machine(0));
}

PrimitiveResult TafDbShard::ExecutePrimitive(const PrimitiveOp& op) {
  Metrics().primitives->Add();
  return ProposePrimitive(op);
}

PrimitiveResult TafDbShard::ProposePrimitive(const PrimitiveOp& op) {
  ShardCommand cmd;
  cmd.kind = ShardCommand::Kind::kPrimitive;
  cmd.request_id =
      (static_cast<uint64_t>(group_->replica(0)->net_id()) << 40) |
      request_seq_.fetch_add(1);
  cmd.op = op;
  auto result = group_->Propose(cmd.Encode());
  if (!result.ok()) {
    PrimitiveResult r;
    r.status = result.status();
    return r;
  }
  return PrimitiveResult::Decode(*result);
}

void TafDbShard::ReadProcessingGate() const {
  if (net_->options().mode != LatencyMode::kZero) {
    read_gate_.Charge();
  }
}

void TafDbShard::TxnWriteProcessingGate() const {
  if (net_->options().mode != LatencyMode::kZero) {
    txn_write_gate_.Charge();
  }
}

StatusOr<InodeRecord> TafDbShard::Get(const InodeKey& key) const {
  Metrics().reads->Add();
  ReadProcessingGate();
  return ReadRecord(LeaderSm()->kv(), key);
}

StatusOr<std::vector<InodeRecord>> TafDbShard::ScanDir(
    InodeId kid, const std::string& after, size_t limit) const {
  Metrics().reads->Add();
  ReadProcessingGate();
  std::string lower = DirLowerBound(kid);
  if (!after.empty()) {
    lower = InodeKey::IdRecord(kid, after).Encode() + '\0';
  }
  auto raw = LeaderSm()->kv().Scan(lower, DirUpperBound(kid),
                                   limit == 0 ? 0 : limit + 1);
  std::vector<InodeRecord> out;
  for (const auto& [k, v] : raw) {
    auto key = InodeKey::Decode(k);
    if (!key.ok()) continue;
    if (key->IsAttr()) continue;
    auto rec = InodeRecord::DecodeValue(*key, v);
    if (!rec.ok()) return rec.status();
    out.push_back(std::move(rec).value());
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

DirChanges TafDbShard::DirChangesSince(InodeId dir, uint64_t since) const {
  return LeaderSm()->DirChangesSince(dir, since);
}

PrimitiveResult TafDbShard::CommitLocal(const PrimitiveOp& write_set) {
  Metrics().txn_commits->Add();
  TxnWriteProcessingGate();
  return ProposePrimitive(write_set);
}

Status TafDbShard::Stage(TxnId txn, PrimitiveOp write_set) {
  MutexLock lock(staged_mu_);
  CFS_SHARED_WRITE(staged_, staged_mu_);
  staged_[txn] = std::move(write_set);
  return Status::Ok();
}

Status TafDbShard::Prepare(TxnId txn) {
  Metrics().prepares->Add();
  PrimitiveOp op;
  {
    MutexLock lock(staged_mu_);
    CFS_SHARED_READ(staged_, staged_mu_);
    auto it = staged_.find(txn);
    if (it == staged_.end()) return Status::NotFound("nothing staged");
    op = it->second;
  }
  TxnWriteProcessingGate();
  ShardCommand cmd;
  cmd.kind = ShardCommand::Kind::kPrepare;
  cmd.txn = txn;
  cmd.request_id =
      (static_cast<uint64_t>(group_->replica(0)->net_id()) << 40) |
      request_seq_.fetch_add(1);
  cmd.op = std::move(op);
  auto result = group_->Propose(cmd.Encode());
  if (!result.ok()) return result.status();
  return PrimitiveResult::Decode(*result).status;
}

Status TafDbShard::Commit(TxnId txn) {
  Metrics().txn_commits->Add();
  {
    MutexLock lock(staged_mu_);
    CFS_SHARED_WRITE(staged_, staged_mu_);
    staged_.erase(txn);
  }
  TxnWriteProcessingGate();
  ShardCommand cmd;
  cmd.kind = ShardCommand::Kind::kCommitTxn;
  cmd.txn = txn;
  cmd.request_id =
      (static_cast<uint64_t>(group_->replica(0)->net_id()) << 40) |
      request_seq_.fetch_add(1);
  auto result = group_->Propose(cmd.Encode());
  if (!result.ok()) return result.status();
  return PrimitiveResult::Decode(*result).status;
}

Status TafDbShard::Abort(TxnId txn) {
  Metrics().aborts->Add();
  bool had_staged;
  {
    MutexLock lock(staged_mu_);
    CFS_SHARED_WRITE(staged_, staged_mu_);
    had_staged = staged_.erase(txn) > 0;
  }
  ShardCommand cmd;
  cmd.kind = ShardCommand::Kind::kAbortTxn;
  cmd.txn = txn;
  auto result = group_->Propose(cmd.Encode());
  if (!result.ok() && had_staged) return result.status();
  return Status::Ok();
}

std::vector<std::pair<LogIndex, ShardCommand>> TafDbShard::ReadCommittedSince(
    LogIndex from, size_t max) const {
  RaftNode* leader = group_->Leader();
  RaftNode* source =
      leader != nullptr ? leader
                        : const_cast<TafDbShard*>(this)->group_->replica(0);
  std::vector<std::pair<LogIndex, ShardCommand>> out;
  for (auto& [index, raw] : source->ReadCommittedSince(from, max)) {
    auto cmd = ShardCommand::Decode(raw);
    if (cmd.ok()) {
      out.emplace_back(index, std::move(cmd).value());
    }
  }
  return out;
}

}  // namespace cfs
