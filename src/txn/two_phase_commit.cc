#include "src/txn/two_phase_commit.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "src/common/metrics.h"
#include "src/common/race_detector.h"
#include "src/common/simtime.h"

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
  // several logical tables), then order them by net id: the sim-serial
  // fan-out below draws jitter per call in this order, so it must not
  // depend on where the allocator put each participant.
  std::vector<TxnParticipant*> unique = participants;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  std::stable_sort(unique.begin(), unique.end(),
                   [](const TxnParticipant* a, const TxnParticipant* b) {
                     return a->ParticipantNetId() < b->ParticipantNetId();
                   });

  // Each phase fans out to every participant in parallel (the round-trip
  // latency of a phase is one RPC + one replicated write, not their sum).
  auto fan_out = [&](const std::function<Status(TxnParticipant*)>& phase)
      -> std::vector<Status> {
    std::vector<Status> results(unique.size());
    if (unique.size() == 1) {
      results[0] = net_->Call(coordinator, unique[0]->ParticipantNetId(),
                              [&] { return phase(unique[0]); });
      return results;
    }
    // On a simtime::Scheduler thread, run the fan-out serially in
    // deterministic participant order: helper threads would escape the
    // virtual clock and scramble replay. The round trip is charged once
    // (first call), like the parallel fan-out it models; participant
    // processing serializes, a documented sim-mode over-charge for
    // cross-shard phases (DESIGN.md §11).
    if (simtime::Current() != nullptr) {
      bool latency_charged = false;
      for (size_t i = 0; i < unique.size(); i++) {
        results[i] = net_->Call(
            coordinator, unique[i]->ParticipantNetId(),
            [&] { return phase(unique[i]); },
            /*inject_latency=*/!latency_charged);
        latency_charged = true;
      }
      return results;
    }
    std::vector<std::thread> threads;
    threads.reserve(unique.size());
    for (size_t i = 0; i < unique.size(); i++) {
      threads.emplace_back([&, i] {
        results[i] = net_->Call(coordinator, unique[i]->ParticipantNetId(),
                                [&] { return phase(unique[i]); });
      });
    }
    for (auto& t : threads) t.join();
    return results;
  };

  // Phase 1: prepare. The spans run on the coordinator thread and so time
  // each phase's full fan-out wall clock, even when participants execute on
  // helper threads.
  Metrics().runs->Add();
  Status failure = Status::Ok();
  std::vector<Status> votes;
  {
    TraceSpan span(Phase::kTwoPcPrepare, "2pc_prepare");
    votes = fan_out([txn](TxnParticipant* p) { return p->Prepare(txn); });
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
      (void)fan_out([txn](TxnParticipant* p) { return p->Commit(txn); });
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
    (void)fan_out([txn](TxnParticipant* p) { return p->Abort(txn); });
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
