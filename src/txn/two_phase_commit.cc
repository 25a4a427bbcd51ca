#include "src/txn/two_phase_commit.h"

#include <algorithm>

#include "src/common/metrics.h"
#include "src/common/race_detector.h"

namespace cfs {
namespace {

struct TwoPcMetrics {
  Counter* runs;
  Counter* committed;
  Counter* aborted;
  Counter* prepare_rpcs;
};

TwoPcMetrics& Metrics() {
  static TwoPcMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return TwoPcMetrics{r.GetCounter("2pc.runs"), r.GetCounter("2pc.committed"),
                        r.GetCounter("2pc.aborted"),
                        r.GetCounter("2pc.prepare_rpcs")};
  }();
  return m;
}

}  // namespace

Status TwoPhaseCommit::Run(NodeId coordinator,
                           const std::vector<TxnParticipant*>& participants,
                           TxnId txn) {
  // Deduplicate participants (a txn may buffer writes on one shard through
  // several logical tables), then order them by net id: on a
  // simtime::Scheduler the fan-out below runs its slots in this order, so
  // it must not depend on where the allocator put each participant.
  std::vector<TxnParticipant*> unique = participants;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  std::stable_sort(unique.begin(), unique.end(),
                   [](const TxnParticipant* a, const TxnParticipant* b) {
                     return a->ParticipantNetId() < b->ParticipantNetId();
                   });
  std::vector<NodeId> dests;
  dests.reserve(unique.size());
  for (TxnParticipant* p : unique) dests.push_back(p->ParticipantNetId());

  // Each phase is one concurrent round to every participant (the latency
  // of a phase is one RPC + one replicated write, not their sum).
  auto fan_out = [&](Status (TxnParticipant::*phase)(TxnId)) {
    return net_->FanOut(coordinator, dests, [&](size_t i) {
      return (unique[i]->*phase)(txn);
    });
  };

  // Phase 1: prepare. The spans run on the coordinator thread and so time
  // each phase's full fan-out wall clock, even when participants execute on
  // SimNet's fan-out workers.
  Metrics().runs->Add();
  Status failure = Status::Ok();
  std::vector<Status> votes;
  {
    TraceSpan span(Phase::kTwoPcPrepare, "2pc_prepare");
    votes = fan_out(&TxnParticipant::Prepare);
  }
  {
    MutexLock lock(mu_);
    CFS_SHARED_WRITE(stats_, mu_);
    stats_.prepare_rpcs += unique.size();
  }
  Metrics().prepare_rpcs->Add(unique.size());
  for (const Status& vote : votes) {
    if (!vote.ok()) failure = vote;
  }

  // Phase 2: decision.
  if (failure.ok()) {
    {
      TraceSpan span(Phase::kTwoPcDecision, "2pc_commit");
      (void)fan_out(&TxnParticipant::Commit);
    }
    Metrics().committed->Add();
    MutexLock lock(mu_);
    CFS_SHARED_WRITE(stats_, mu_);
    stats_.decision_rpcs += unique.size();
    stats_.committed++;
    return Status::Ok();
  }
  {
    TraceSpan span(Phase::kTwoPcDecision, "2pc_abort");
    (void)fan_out(&TxnParticipant::Abort);
  }
  Metrics().aborted->Add();
  {
    MutexLock lock(mu_);
    CFS_SHARED_WRITE(stats_, mu_);
    stats_.decision_rpcs += unique.size();
    stats_.aborted++;
  }
  return failure;
}

TwoPcStats TwoPhaseCommit::stats() const {
  MutexLock lock(mu_);
  CFS_SHARED_READ(stats_, mu_);
  return stats_;
}

}  // namespace cfs
