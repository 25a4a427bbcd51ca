#include "src/raft/raft.h"

#include <algorithm>
#include <chrono>

#include "src/common/encoding.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace cfs {
namespace {

// WAL record tags.
constexpr char kWalVote = 0;
constexpr char kWalEntry = 1;
constexpr char kWalTruncate = 2;
constexpr char kWalSnapshot = 3;

std::string EncodeVote(Term term, ReplicaId voted_for) {
  std::string out(1, kWalVote);
  PutVarint64(&out, term);
  PutVarint64(&out, voted_for);
  return out;
}

std::string EncodeEntry(LogIndex index, const LogEntry& e) {
  std::string out(1, kWalEntry);
  PutVarint64(&out, index);
  PutVarint64(&out, e.term);
  PutLengthPrefixed(&out, e.command);
  return out;
}

std::string EncodeTruncate(LogIndex from) {
  std::string out(1, kWalTruncate);
  PutVarint64(&out, from);
  return out;
}

std::string EncodeSnapshot(LogIndex index, Term term,
                           const std::string& state) {
  std::string out(1, kWalSnapshot);
  PutVarint64(&out, index);
  PutVarint64(&out, term);
  PutLengthPrefixed(&out, state);
  return out;
}

}  // namespace

RaftNode::RaftNode(ReplicaId id, NodeId net_id, SimNet* net, StateMachine* sm,
                   RaftOptions options, const Clock* clock)
    : id_(id),
      net_id_(net_id),
      net_(net),
      sm_(sm),
      options_(std::move(options)),
      clock_(clock),
      wal_(options_.wal),
      rng_(0x1234abcd ^ (static_cast<uint64_t>(id) << 17)) {}

RaftNode::~RaftNode() { Stop(); }

void RaftNode::SetStateMachine(StateMachine* sm) {
  MutexLock lock(mu_);
  sm_ = sm;
}

void RaftNode::SetPeers(std::vector<RaftPeer> peers) {
  MutexLock lock(mu_);
  peers_ = std::move(peers);
  next_index_.assign(peers_.size(), 1);
  match_index_.assign(peers_.size(), 0);
  last_send_.assign(peers_.size(), 0);
  carrying_.assign(peers_.size(), false);
}

Status RaftNode::Start() {
  MutexLock lock(mu_);
  if (running_.load()) return Status::Ok();
  CFS_RETURN_IF_ERROR(wal_.Open());
  // Recover persistent state.
  log_.clear();
  term_ = 0;
  voted_for_ = UINT32_MAX;
  snapshot_index_ = 0;
  snapshot_term_ = 0;
  std::string snapshot_state;
  Status replay = wal_.Replay([&](uint64_t, std::string_view record) {
    if (record.empty()) return;
    Decoder dec(record.substr(1));
    switch (record[0]) {
      case kWalVote: {
        uint64_t term, voted;
        if (dec.GetVarint64(&term) && dec.GetVarint64(&voted)) {
          term_ = term;
          voted_for_ = static_cast<ReplicaId>(voted);
        }
        break;
      }
      case kWalEntry: {
        uint64_t index, term;
        std::string command;
        if (dec.GetVarint64(&index) && dec.GetVarint64(&term) &&
            dec.GetLengthPrefixed(&command)) {
          if (index <= snapshot_index_) break;  // already in the snapshot
          if (index <= LastIndexLocked()) {
            log_.resize(index - snapshot_index_ - 1);
          }
          // Gaps cannot occur in a well-formed WAL; ignore if they do.
          if (index == LastIndexLocked() + 1) {
            log_.push_back(LogEntry{term, std::move(command)});
          }
        }
        break;
      }
      case kWalTruncate: {
        uint64_t from;
        if (dec.GetVarint64(&from) && from > snapshot_index_ &&
            from <= LastIndexLocked()) {
          log_.resize(from - snapshot_index_ - 1);
        }
        break;
      }
      case kWalSnapshot: {
        uint64_t index, term;
        std::string state;
        if (dec.GetVarint64(&index) && dec.GetVarint64(&term) &&
            dec.GetLengthPrefixed(&state)) {
          // Drop entries the snapshot covers; keep any newer suffix.
          if (index > snapshot_index_) {
            size_t covered = static_cast<size_t>(
                std::min<LogIndex>(index - snapshot_index_, log_.size()));
            log_.erase(log_.begin(), log_.begin() + covered);
            snapshot_index_ = index;
            snapshot_term_ = term;
            snapshot_state = std::move(state);
          }
        }
        break;
      }
      default:
        break;
    }
  });
  CFS_RETURN_IF_ERROR(replay);
  if (snapshot_index_ > 0) {
    Status restored = sm_->Restore(snapshot_state);
    if (!restored.ok()) return restored;
    last_snapshot_state_ = std::move(snapshot_state);
  }
  durable_index_ = LastIndexLocked();
  claimed_index_ = durable_index_;
  commit_index_ = snapshot_index_;
  applied_index_ = snapshot_index_;
  SetRoleLocked(RaftRole::kFollower);
  leader_hint_ = UINT32_MAX;
  ResetElectionDeadlineLocked();
  running_.store(true);
  if (!options_.inline_replication) {
    replicators_should_run_ = true;
    StartReplicatorsLocked();
  }
  CFS_LOG(kDebug) << "raft " << id_ << " started, term=" << term_
                  << " log=" << log_.size();
  return Status::Ok();
}

void RaftNode::Stop() {
  {
    MutexLock lock(mu_);
    if (!running_.load()) return;
    running_.store(false);
    replicators_should_run_ = false;
    SetRoleLocked(RaftRole::kFollower);
    FailPendingLocked(Status::Unavailable("raft node stopped"));
    // A carried call in flight still uses this node when it returns.
    while (std::find(carrying_.begin(), carrying_.end(), true) !=
           carrying_.end()) {
      carry_cv_.Wait(mu_);
    }
  }
  repl_cv_.NotifyAll();
  apply_cv_.NotifyAll();
  StopReplicators();
}

Status RaftNode::Restart() {
  Stop();
  return Start();
}

void RaftNode::StartReplicatorsLocked() {
  if (!replicators_.empty()) return;
  for (size_t i = 0; i < peers_.size(); i++) {
    replicators_.emplace_back([this, i] { ReplicatorLoop(i); });
  }
}

void RaftNode::StopReplicators() {
  for (auto& t : replicators_) {
    if (t.joinable()) t.join();
  }
  replicators_.clear();
}

void RaftNode::SetRoleLocked(RaftRole role) {
  role_ = role;
  is_leader_.store(role == RaftRole::kLeader, std::memory_order_release);
}

void RaftNode::ResetElectionDeadlineLocked() {
  int64_t span =
      options_.election_timeout_max_ms - options_.election_timeout_min_ms;
  int64_t timeout_ms =
      options_.election_timeout_min_ms +
      (span > 0 ? static_cast<int64_t>(rng_.Uniform(static_cast<uint64_t>(span))) : 0);
  election_deadline_ = clock_->NowNanos() + timeout_ms * 1000000;
}

Term RaftNode::LastLogTermLocked() const {
  return log_.empty() ? snapshot_term_ : log_.back().term;
}

void RaftNode::PersistVoteLocked() {
  (void)wal_.Append(EncodeVote(term_, voted_for_), /*sync=*/true);
}

void RaftNode::BecomeFollowerLocked(Term term, bool persist) {
  bool was_leader = role_ == RaftRole::kLeader;
  SetRoleLocked(RaftRole::kFollower);
  if (term > term_) {
    term_ = term;
    voted_for_ = UINT32_MAX;
    if (persist) PersistVoteLocked();
  }
  if (was_leader) {
    FailPendingLocked(Status::NotLeader("leadership lost"));
  }
  ResetElectionDeadlineLocked();
}

void RaftNode::BecomeLeaderLocked() {
  SetRoleLocked(RaftRole::kLeader);
  leader_hint_ = id_;
  for (size_t i = 0; i < peers_.size(); i++) {
    next_index_[i] = LastIndexLocked() + 1;
    match_index_[i] = 0;
    last_send_[i] = 0;
  }
  // Commit-previous-term barrier: append a no-op in the new term.
  log_.push_back(LogEntry{term_, ""});
  term_start_index_ = LastIndexLocked();
  CFS_LOG(kDebug) << "raft " << id_ << " became leader term=" << term_;
  repl_cv_.NotifyAll();
}

void RaftNode::FailPendingLocked(const Status& status) {
  for (auto& [index, pending] : pending_) {
    pending.promise.set_value(status);
  }
  pending_.clear();
}

std::future<StatusOr<std::string>> RaftNode::Propose(std::string command) {
  std::promise<StatusOr<std::string>> promise;
  auto future = promise.get_future();
  size_t lane = kNoLane;
  RaftPeer peer;
  AppendRequest carried;
  {
    MutexLock lock(mu_);
    if (!running_.load() || role_ != RaftRole::kLeader) {
      promise.set_value(Status::NotLeader());
      return future;
    }
    log_.push_back(LogEntry{term_, std::move(command)});
    LogIndex index = LastIndexLocked();
    pending_[index].promise = std::move(promise);
    if (!options_.inline_replication) {
      lane = TakeCarryLaneLocked(&carried);
      if (lane != kNoLane) peer = peers_[lane];
    }
  }
  // The woken replicators write the leader's WAL append while the carried
  // call is in flight.
  repl_cv_.NotifyAll();
  if (lane != kNoLane) CarryAppend(lane, peer, carried);
  return future;
}

size_t RaftNode::TakeCarryLaneLocked(AppendRequest* req) {
  size_t lane = kNoLane;
  for (size_t i = 0; i < peers_.size(); i++) {
    // Never carry past a compacted prefix: that peer needs the snapshot
    // its replicator ships.
    if (carrying_[i] || next_index_[i] <= snapshot_index_) continue;
    if (lane == kNoLane || match_index_[i] > match_index_[lane]) lane = i;
  }
  if (lane == kNoLane) return lane;
  carrying_[lane] = true;
  BuildAppendLocked(lane, req);
  return lane;
}

void RaftNode::CarryAppend(size_t lane, const RaftPeer& peer,
                           const AppendRequest& req) {
  // A down or partitioned peer fails the call at once; its replicator and
  // the election timer take over as they would without the lane.
  StatusOr<AppendReply> reply = net_->CallDetached(
      net_id_, peer.net, [&]() -> StatusOr<AppendReply> {
        return peer.node->HandleAppendEntries(req);
      });
  MutexLock lock(mu_);
  carrying_[lane] = false;
  if (running_.load() && reply.ok()) OnAppendReplyLocked(lane, req, *reply);
  carry_cv_.NotifyAll();
}

StatusOr<std::string> RaftNode::ProposeInline(std::string command) {
  std::promise<StatusOr<std::string>> promise;
  auto future = promise.get_future();
  LogIndex index = 0;
  {
    MutexLock lock(mu_);
    if (!running_.load() || role_ != RaftRole::kLeader) {
      return Status::NotLeader();
    }
    log_.push_back(LogEntry{term_, std::move(command)});
    index = LastIndexLocked();
    pending_[index].promise = std::move(promise);
  }
  // A round sends everything outstanding, so one round normally commits
  // and applies our entry; under concurrent proposers another thread's
  // round may do it for us (group commit), or ours may carry theirs. The
  // retry bound only matters when a quorum is unreachable.
  for (int round = 0; round < 8; round++) {
    {
      MutexLock lock(mu_);
      if (pending_.count(index) == 0) break;  // applied (or failed) already
    }
    ReplicateRoundInline();
  }
  {
    MutexLock lock(mu_);
    auto it = pending_.find(index);
    if (it != pending_.end()) {
      it->second.promise.set_value(
          Status::Unavailable("inline replication: no quorum"));
      pending_.erase(it);
    }
  }
  return future.get();
}

void RaftNode::ReplicateRoundInline() {
  std::vector<RaftPeer> peers;
  std::vector<size_t> slots;  // peer index per fan-out slot
  std::vector<NodeId> dests;
  std::vector<AppendRequest> reqs;
  LogIndex sending_up_to = 0;
  {
    MutexLock lock(mu_);
    if (!running_.load() || role_ != RaftRole::kLeader) return;
    peers = peers_;
    for (size_t i = 0; i < peers.size(); i++) {
      // Peers lagging behind a compacted prefix need snapshot shipping,
      // which stays a replicator-thread feature; unreachable here because
      // inline mode never runs with compaction-lagged peers (no faults).
      if (next_index_[i] <= snapshot_index_) continue;
      reqs.emplace_back();
      sending_up_to =
          std::max(sending_up_to, BuildAppendLocked(i, &reqs.back()));
      slots.push_back(i);
      dests.push_back(peers[i].net);
    }
  }
  // Leader durability before the entries can count toward a majority.
  // mu_ is released around the persist and the round, exactly like
  // ReplicatorLoop (raft.node must never be held across an RPC edge).
  if (sending_up_to > 0) {
    PersistEntriesUpTo(sending_up_to);
  }
  std::vector<StatusOr<AppendReply>> replies =
      net_->FanOut(net_id_, dests, [&](size_t k) -> StatusOr<AppendReply> {
        return peers[slots[k]].node->HandleAppendEntries(reqs[k]);
      });
  MutexLock lock(mu_);
  if (!running_.load()) return;
  for (size_t k = 0; k < slots.size(); k++) {
    if (replies[k].ok()) OnAppendReplyLocked(slots[k], reqs[k], *replies[k]);
  }
}

std::vector<std::pair<LogIndex, std::string>> RaftNode::ReadCommittedSince(
    LogIndex from, size_t max) const {
  MutexLock lock(mu_);
  std::vector<std::pair<LogIndex, std::string>> out;
  // Entries covered by a snapshot are gone; a consumer whose cursor is
  // older than the snapshot resumes at the snapshot boundary (deployments
  // enabling compaction must scan more often than they compact).
  for (LogIndex i = std::max(from, snapshot_index_) + 1;
       i <= commit_index_ && out.size() < max; i++) {
    if (!EntryAtLocked(i).command.empty()) {
      out.emplace_back(i, EntryAtLocked(i).command);
    }
  }
  return out;
}

Status RaftNode::ReadBarrier(int64_t timeout_ms) {
  MutexLock lock(mu_);
  if (role_ != RaftRole::kLeader) return Status::NotLeader();
  LogIndex target = std::max(commit_index_, term_start_index_);
  Term barrier_term = term_;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (running_.load() && term_ == barrier_term &&
         role_ == RaftRole::kLeader && applied_index_ < target) {
    if (!apply_cv_.WaitUntil(mu_, deadline)) break;  // timed out
  }
  if (!running_.load()) return Status::Unavailable("stopped");
  if (term_ != barrier_term || role_ != RaftRole::kLeader) {
    return Status::NotLeader("demoted during read barrier");
  }
  return applied_index_ >= target ? Status::Ok()
                                  : Status::Timeout("read barrier");
}

void RaftNode::PersistEntriesUpTo(LogIndex index) {
  // Group commit: batch-append all entries that are not yet claimed and pay
  // a single synced write. The fsync cost is paid outside mu_ so concurrent
  // handlers are not blocked. A caller whose entries another persister has
  // already claimed returns at once and may ship them to its peer: they
  // only count toward a majority once durable_index_ covers them.
  {
    MutexLock lock(mu_);
    if (index <= claimed_index_) return;
  }
  // Appends land in log order.
  MutexLock persist(persist_mu_);
  std::vector<std::pair<LogIndex, LogEntry>> to_persist;
  {
    MutexLock lock(mu_);
    for (LogIndex i = std::max(claimed_index_, snapshot_index_) + 1;
         i <= index && i <= LastIndexLocked(); i++) {
      to_persist.emplace_back(i, EntryAtLocked(i));
    }
    if (to_persist.empty()) return;
    claimed_index_ = to_persist.back().first;
  }
  for (size_t i = 0; i < to_persist.size(); i++) {
    bool last = i + 1 == to_persist.size();
    (void)wal_.Append(EncodeEntry(to_persist[i].first, to_persist[i].second),
                      /*sync=*/last);
  }
  MutexLock lock(mu_);
  // A truncation while the append ran pulled claimed_index_ back; entries
  // past it were overwritten and are not this append's to publish.
  durable_index_ = std::max(
      durable_index_, std::min(to_persist.back().first, claimed_index_));
  if (role_ == RaftRole::kLeader) AdvanceCommitLocked();
}

void RaftNode::ReplicatorLoop(size_t peer_index) {
  RaftPeer peer;
  {
    MutexLock lock(mu_);
    peer = peers_[peer_index];
  }
  for (;;) {
    AppendRequest req;
    LogIndex sending_up_to = 0;
    {
      MutexLock lock(mu_);
      auto heartbeat_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options_.heartbeat_interval_ms);
      while (replicators_should_run_ &&
             !(role_ == RaftRole::kLeader &&
               LastIndexLocked() >= next_index_[peer_index])) {
        if (!repl_cv_.WaitUntil(mu_, heartbeat_deadline)) break;  // heartbeat
      }
      if (!replicators_should_run_) return;
      if (role_ != RaftRole::kLeader) continue;

      MonoNanos now = clock_->NowNanos();
      bool have_entries = LastIndexLocked() >= next_index_[peer_index];
      bool heartbeat_due =
          now - last_send_[peer_index] >=
          options_.heartbeat_interval_ms * 1000000;
      if (!have_entries && !heartbeat_due) continue;
      last_send_[peer_index] = now;

      if (next_index_[peer_index] <= snapshot_index_) {
        // The entries this peer needs were compacted away: ship the
        // snapshot instead of AppendEntries.
        SnapshotRequest snap;
        snap.term = term_;
        snap.leader = id_;
        snap.last_included_index = snapshot_index_;
        snap.last_included_term = snapshot_term_;
        snap.state = last_snapshot_state_;
        lock.Unlock();
        StatusOr<SnapshotReply> snap_reply = net_->Call(
            net_id_, peer.net, [&]() -> StatusOr<SnapshotReply> {
              return peer.node->HandleInstallSnapshot(snap);
            });
        if (!snap_reply.ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        lock.Lock();
        if (!replicators_should_run_ || role_ != RaftRole::kLeader ||
            term_ != snap.term) {
          continue;
        }
        if (snap_reply->term > term_) {
          BecomeFollowerLocked(snap_reply->term, /*persist=*/true);
          continue;
        }
        if (snap_reply->success) {
          match_index_[peer_index] =
              std::max(match_index_[peer_index], snap.last_included_index);
          next_index_[peer_index] = match_index_[peer_index] + 1;
          AdvanceCommitLocked();
        }
        continue;
      }

      sending_up_to = BuildAppendLocked(peer_index, &req);
    }

    // Leader durability before the entries can count toward a majority.
    if (sending_up_to > 0) {
      PersistEntriesUpTo(sending_up_to);
    }

    StatusOr<AppendReply> reply =
        net_->Call(net_id_, peer.net, [&]() -> StatusOr<AppendReply> {
          return peer.node->HandleAppendEntries(req);
        });
    if (!reply.ok()) {
      // Peer unreachable; back off briefly so a downed peer does not spin
      // this replicator hot.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }

    MutexLock lock(mu_);
    if (replicators_should_run_) OnAppendReplyLocked(peer_index, req, *reply);
  }
}

LogIndex RaftNode::BuildAppendLocked(size_t peer_index, AppendRequest* req) {
  req->term = term_;
  req->leader = id_;
  req->prev_log_index = next_index_[peer_index] - 1;
  req->prev_log_term =
      req->prev_log_index == 0 ? 0 : TermAtLocked(req->prev_log_index);
  LogIndex last = std::min<LogIndex>(
      LastIndexLocked(), req->prev_log_index + options_.max_batch_entries);
  for (LogIndex i = next_index_[peer_index]; i <= last; i++) {
    req->entries.push_back(EntryAtLocked(i));
  }
  req->leader_commit = commit_index_;
  return last;
}

void RaftNode::OnAppendReplyLocked(size_t peer_index, const AppendRequest& req,
                                   const AppendReply& reply) {
  if (role_ != RaftRole::kLeader || term_ != req.term) return;
  if (reply.term > term_) {
    BecomeFollowerLocked(reply.term, /*persist=*/true);
    return;
  }
  if (reply.success) {
    match_index_[peer_index] =
        std::max(match_index_[peer_index], reply.match_index);
    next_index_[peer_index] = match_index_[peer_index] + 1;
    AdvanceCommitLocked();
  } else {
    // The hint is a log index, not an offset into log_. A carried lane and
    // the replicator may both have a request out to this peer, so a stale
    // rejection must not back up past what the peer has acknowledged.
    next_index_[peer_index] = std::max<LogIndex>(
        match_index_[peer_index] + 1,
        std::min<LogIndex>(reply.conflict_hint, LastIndexLocked() + 1));
  }
}

void RaftNode::AdvanceCommitLocked() {
  // Majority match over {self (durable), peers}.
  std::vector<LogIndex> matches;
  matches.push_back(durable_index_);
  for (LogIndex m : match_index_) matches.push_back(m);
  std::sort(matches.begin(), matches.end(), std::greater<LogIndex>());
  LogIndex majority_index = matches[matches.size() / 2];
  if (majority_index > commit_index_ && majority_index <= LastIndexLocked() &&
      majority_index > snapshot_index_ &&
      TermAtLocked(majority_index) == term_) {
    commit_index_ = majority_index;
    ApplyCommittedLocked();
  }
}

void RaftNode::ApplyCommittedLocked() {
  while (applied_index_ < commit_index_) {
    applied_index_++;
    const LogEntry& entry = EntryAtLocked(applied_index_);
    std::string result;
    if (!entry.command.empty()) {
      result = sm_->Apply(applied_index_, entry.command);
    }
    auto it = pending_.find(applied_index_);
    if (it != pending_.end()) {
      it->second.promise.set_value(std::move(result));
      pending_.erase(it);
    }
  }
  apply_cv_.NotifyAll();
  MaybeSnapshotLocked();
}

void RaftNode::MaybeSnapshotLocked() {
  if (options_.snapshot_threshold == SIZE_MAX) return;
  if (applied_index_ - snapshot_index_ < options_.snapshot_threshold) return;
  std::string state = sm_->Snapshot();
  if (state.empty()) return;  // machine does not support compaction
  Term snap_term = TermAtLocked(applied_index_);
  (void)wal_.Append(EncodeSnapshot(applied_index_, snap_term, state),
                    /*sync=*/true);
  size_t covered = static_cast<size_t>(applied_index_ - snapshot_index_);
  log_.erase(log_.begin(), log_.begin() + covered);
  snapshot_index_ = applied_index_;
  snapshot_term_ = snap_term;
  last_snapshot_state_ = std::move(state);
  if (durable_index_ < snapshot_index_) durable_index_ = snapshot_index_;
  if (claimed_index_ < snapshot_index_) claimed_index_ = snapshot_index_;
  CFS_LOG(kDebug) << "raft " << id_ << " snapshot at " << snapshot_index_;
}

VoteReply RaftNode::HandleRequestVote(const VoteRequest& req) {
  MutexLock lock(mu_);
  VoteReply reply;
  if (!running_.load()) {
    reply.term = term_;
    return reply;
  }
  if (req.term > term_) {
    BecomeFollowerLocked(req.term, /*persist=*/true);
  }
  reply.term = term_;
  if (req.term < term_) return reply;

  bool log_ok = req.last_log_term > LastLogTermLocked() ||
                (req.last_log_term == LastLogTermLocked() &&
                 req.last_log_index >= LastIndexLocked());
  if (log_ok && (voted_for_ == UINT32_MAX || voted_for_ == req.candidate)) {
    voted_for_ = req.candidate;
    PersistVoteLocked();
    reply.granted = true;
    ResetElectionDeadlineLocked();
  }
  return reply;
}

AppendReply RaftNode::HandleAppendEntries(const AppendRequest& req) {
  MutexLock lock(mu_);
  AppendReply reply;
  reply.term = term_;
  if (!running_.load()) return reply;
  if (req.term < term_) return reply;

  if (req.term > term_ || role_ != RaftRole::kFollower) {
    BecomeFollowerLocked(req.term, /*persist=*/true);
  }
  reply.term = term_;
  leader_hint_ = req.leader;
  ResetElectionDeadlineLocked();

  // Consistency check. Anything at or below our snapshot index is known
  // committed and applied; the check only concerns the live suffix.
  if (req.prev_log_index > LastIndexLocked()) {
    reply.conflict_hint = LastIndexLocked() + 1;
    return reply;
  }
  if (req.prev_log_index > snapshot_index_ &&
      TermAtLocked(req.prev_log_index) != req.prev_log_term) {
    // Back up to the start of the conflicting term.
    Term bad_term = TermAtLocked(req.prev_log_index);
    LogIndex hint = req.prev_log_index;
    while (hint > snapshot_index_ + 1 && TermAtLocked(hint - 1) == bad_term) {
      hint--;
    }
    reply.conflict_hint = hint;
    return reply;
  }

  // Append / overwrite entries (skipping anything the snapshot covers).
  LogIndex first_new = 0;
  for (size_t k = 0; k < req.entries.size(); k++) {
    LogIndex index = req.prev_log_index + 1 + k;
    if (index <= snapshot_index_) continue;
    if (index <= LastIndexLocked()) {
      if (TermAtLocked(index) != req.entries[k].term) {
        TruncateFromLocked(index);
      } else {
        continue;  // already have it
      }
    }
    log_.push_back(req.entries[k]);
    if (first_new == 0) first_new = index;
  }
  // Persist the newly appended suffix with one synced write.
  if (first_new != 0) {
    LogIndex last = req.prev_log_index + req.entries.size();
    for (LogIndex i = std::max(first_new, durable_index_ + 1); i <= last; i++) {
      (void)wal_.Append(EncodeEntry(i, EntryAtLocked(i)), /*sync=*/i == last);
    }
    durable_index_ = std::max(durable_index_, last);
    claimed_index_ = std::max(claimed_index_, last);
  }

  LogIndex last_index = req.prev_log_index + req.entries.size();
  reply.success = true;
  reply.match_index = std::max<LogIndex>(last_index, req.prev_log_index);

  if (req.leader_commit > commit_index_) {
    commit_index_ = std::min<LogIndex>(req.leader_commit, LastIndexLocked());
    ApplyCommittedLocked();
  }
  return reply;
}

SnapshotReply RaftNode::HandleInstallSnapshot(const SnapshotRequest& req) {
  MutexLock lock(mu_);
  SnapshotReply reply;
  reply.term = term_;
  if (!running_.load() || req.term < term_) return reply;
  if (req.term > term_ || role_ != RaftRole::kFollower) {
    BecomeFollowerLocked(req.term, /*persist=*/true);
  }
  reply.term = term_;
  leader_hint_ = req.leader;
  ResetElectionDeadlineLocked();

  if (req.last_included_index <= snapshot_index_) {
    reply.success = true;  // we already have at least this much
    return reply;
  }
  Status restored = sm_->Restore(req.state);
  if (!restored.ok()) {
    CFS_LOG(kWarn) << "raft " << id_
                   << " snapshot restore failed: " << restored;
    return reply;
  }
  // The received image replaces everything; drop the log (a newer suffix
  // will be re-replicated by the leader).
  FailPendingLocked(Status::Aborted("snapshot installed"));
  log_.clear();
  snapshot_index_ = req.last_included_index;
  snapshot_term_ = req.last_included_term;
  last_snapshot_state_ = req.state;
  commit_index_ = snapshot_index_;
  applied_index_ = snapshot_index_;
  durable_index_ = snapshot_index_;
  claimed_index_ = snapshot_index_;
  (void)wal_.Append(
      EncodeSnapshot(snapshot_index_, snapshot_term_, req.state),
      /*sync=*/true);
  apply_cv_.NotifyAll();
  reply.success = true;
  return reply;
}

void RaftNode::TruncateFromLocked(LogIndex from) {
  (void)wal_.Append(EncodeTruncate(from), /*sync=*/true);
  log_.resize(from - snapshot_index_ - 1);
  if (durable_index_ >= from) durable_index_ = from - 1;
  if (claimed_index_ >= from) claimed_index_ = from - 1;
  // Any pending proposals in the truncated range are lost.
  for (auto it = pending_.lower_bound(from); it != pending_.end();) {
    it->second.promise.set_value(Status::Aborted("entry overwritten"));
    it = pending_.erase(it);
  }
}

void RaftNode::Tick() {
  bool should_elect = false;
  {
    MutexLock lock(mu_);
    if (!running_.load() || role_ == RaftRole::kLeader) return;
    if (clock_->NowNanos() >= election_deadline_) {
      should_elect = true;
    }
  }
  if (should_elect) StartElection();
}

void RaftNode::StartElection() {
  VoteRequest req;
  std::vector<RaftPeer> peers;
  {
    MutexLock lock(mu_);
    if (!running_.load() || role_ == RaftRole::kLeader) return;
    SetRoleLocked(RaftRole::kCandidate);
    term_++;
    voted_for_ = id_;
    PersistVoteLocked();
    ResetElectionDeadlineLocked();
    req.term = term_;
    req.candidate = id_;
    req.last_log_index = LastIndexLocked();
    req.last_log_term = LastLogTermLocked();
    peers = peers_;
  }
  CFS_LOG(kDebug) << "raft " << id_ << " starting election term=" << req.term;

  size_t votes = 1;  // self
  for (const auto& peer : peers) {
    StatusOr<VoteReply> reply =
        net_->Call(net_id_, peer.net, [&]() -> StatusOr<VoteReply> {
          return peer.node->HandleRequestVote(req);
        });
    if (!reply.ok()) continue;
    MutexLock lock(mu_);
    if (reply->term > term_) {
      BecomeFollowerLocked(reply->term, /*persist=*/true);
      return;
    }
    if (role_ != RaftRole::kCandidate || term_ != req.term) return;
    if (reply->granted) votes++;
    if (votes * 2 > peers.size() + 1) {
      BecomeLeaderLocked();
      return;
    }
  }
}

bool RaftNode::IsLeader() const {
  return running_.load() && is_leader_.load(std::memory_order_acquire);
}

RaftRole RaftNode::role() const {
  MutexLock lock(mu_);
  return role_;
}

Term RaftNode::CurrentTerm() const {
  MutexLock lock(mu_);
  return term_;
}

LogIndex RaftNode::CommitIndex() const {
  MutexLock lock(mu_);
  return commit_index_;
}

LogIndex RaftNode::LastLogIndex() const {
  MutexLock lock(mu_);
  return LastIndexLocked();
}

LogIndex RaftNode::SnapshotIndex() const {
  MutexLock lock(mu_);
  return snapshot_index_;
}

ReplicaId RaftNode::LeaderHint() const {
  MutexLock lock(mu_);
  return leader_hint_;
}

// ---------------------------------------------------------------------------
// RaftGroup

RaftGroup::RaftGroup(SimNet* net, std::string name,
                     std::vector<uint32_t> servers, StateMachineFactory factory,
                     RaftOptions options, const Clock* clock)
    : net_(net),
      name_(std::move(name)),
      factory_(std::move(factory)),
      inline_(options.inline_replication) {
  for (size_t i = 0; i < servers.size(); i++) {
    machines_.push_back(factory_(static_cast<ReplicaId>(i)));
    NodeId nid = net_->AddNode(name_ + "-r" + std::to_string(i), servers[i]);
    RaftOptions opts = options;
    if (!opts.wal.path.empty()) {
      opts.wal.path += "." + name_ + ".r" + std::to_string(i);
    }
    nodes_.push_back(std::make_unique<RaftNode>(static_cast<ReplicaId>(i), nid,
                                                net_, machines_.back().get(),
                                                opts, clock));
  }
  for (size_t i = 0; i < nodes_.size(); i++) {
    std::vector<RaftPeer> peers;
    for (size_t j = 0; j < nodes_.size(); j++) {
      if (j == i) continue;
      peers.push_back(RaftPeer{static_cast<ReplicaId>(j),
                               nodes_[j]->net_id(), nodes_[j].get()});
    }
    nodes_[i]->SetPeers(std::move(peers));
  }
}

RaftGroup::~RaftGroup() { Stop(); }

Status RaftGroup::Start() {
  bool fresh = true;
  for (auto& node : nodes_) {
    CFS_RETURN_IF_ERROR(node->Start());
    fresh = fresh && node->CurrentTerm() == 0 && node->LastLogIndex() == 0;
  }
  // A fresh group has no history to elect over: replica 0 campaigns at
  // once (with every peer up it wins) instead of idling through an
  // election timeout. A recovered group elects on timeouts; inline mode
  // has no timers and always bootstraps replica 0.
  if (fresh || inline_) nodes_[0]->StartElection();
  if (inline_) {
    // One synchronous round commits and applies the term-start no-op so
    // ReadBarrier passes from the first operation on.
    nodes_[0]->ReplicateRoundInline();
    return Status::Ok();
  }
  ticker_run_.store(true);
  ticker_ = std::thread([this] { TickerLoop(); });
  return Status::Ok();
}

void RaftGroup::Stop() {
  if (ticker_run_.exchange(false)) {
    if (ticker_.joinable()) ticker_.join();
  }
  for (auto& node : nodes_) {
    node->Stop();
  }
}

void RaftGroup::TickerLoop() {
  while (ticker_run_.load()) {
    for (auto& node : nodes_) {
      if (node->running()) node->Tick();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

StatusOr<ReplicaId> RaftGroup::WaitForLeader(int64_t timeout_ms) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    for (auto& node : nodes_) {
      if (node->IsLeader()) return node->id();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::Timeout("no leader elected");
}

RaftNode* RaftGroup::Leader() {
  for (auto& node : nodes_) {
    if (node->IsLeader()) return node.get();
  }
  return nullptr;
}

StatusOr<std::string> RaftGroup::Propose(std::string command,
                                         int64_t timeout_ms) {
  // Spans the caller's full replication wait: leader discovery, append,
  // quorum ack, apply. Runs on the proposing thread, so it lands in the
  // thread's OpTrace.
  TraceSpan span(Phase::kRaftAppend);
  static Counter* const proposals =
      MetricsRegistry::Global().GetCounter("raft.proposals");
  proposals->Add();
  if (inline_) {
    RaftNode* leader = Leader();
    if (leader == nullptr) {
      return Status::NotLeader("no leader (inline replication)");
    }
    return leader->ProposeInline(std::move(command));
  }
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    RaftNode* leader = Leader();
    if (leader == nullptr) {
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::Timeout("no leader");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    auto future = leader->Propose(command);
    if (future.wait_until(deadline) != std::future_status::ready) {
      return Status::Timeout("proposal timed out");
    }
    StatusOr<std::string> result = future.get();
    if (result.ok()) return result;
    // kAborted (entry overwritten after leadership churn) means the
    // command definitively did NOT apply: safe and necessary to retry.
    if (!result.status().IsRetryable() &&
        result.status().code() != ErrorCode::kAborted) {
      return result;
    }
    if (std::chrono::steady_clock::now() >= deadline) return result;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void RaftGroup::CrashReplica(size_t i) {
  nodes_[i]->Stop();
  net_->SetNodeDown(nodes_[i]->net_id(), true);
}

Status RaftGroup::RestartReplica(size_t i) {
  net_->SetNodeDown(nodes_[i]->net_id(), false);
  // Rebuild the state machine from scratch; the recovered raft log is
  // re-applied into it as the commit index advances again.
  machines_[i] = factory_(static_cast<ReplicaId>(i));
  nodes_[i]->SetStateMachine(machines_[i].get());
  return nodes_[i]->Restart();
}

}  // namespace cfs
