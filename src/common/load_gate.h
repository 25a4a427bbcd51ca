// LoadGate — models finite server-side processing capacity for read paths.
//
// Raft serializes writes through the log, so write-side queueing emerges
// naturally; reads against a leader have no such queue in a passive-object
// simulation. A LoadGate charges each read a processing cost and bounds
// concurrent readers per node, so a hot shard (e.g. every client stat-ing
// files of one huge directory, Fig 12) saturates and queues while a
// hash-partitioned attribute service spreads the same load across nodes.
//
// Disabled (zero cost) when processing_us == 0; callers also skip it in
// zero-latency test mode.

#ifndef CFS_COMMON_LOAD_GATE_H_
#define CFS_COMMON_LOAD_GATE_H_

#include <cstdint>
#include <semaphore>

#include "src/common/simtime.h"

namespace cfs {

class LoadGate {
 public:
  LoadGate(size_t concurrency, int64_t processing_us)
      : sem_(static_cast<std::ptrdiff_t>(
            concurrency == 0 ? 1 : concurrency)),
        processing_us_(processing_us) {}

  LoadGate(const LoadGate&) = delete;
  LoadGate& operator=(const LoadGate&) = delete;

  // Charges one request's processing: waits for a slot, holds it for the
  // processing duration, releases. Under a driving simtime::Scheduler the
  // cost accrues onto the virtual clock instead; the concurrency bound is
  // not modelled there (a single scheduler thread never contends the
  // semaphore — queueing-at-capacity is a real-thread-mode effect,
  // DESIGN.md §11).
  void Charge() const {
    if (processing_us_ <= 0) return;
    if (simtime::Current() != nullptr) {
      simtime::AdvanceOrSleepUs(processing_us_);
      return;
    }
    sem_.acquire();
    simtime::SleepUs(processing_us_);
    sem_.release();
  }

 private:
  mutable std::counting_semaphore<4096> sem_;
  int64_t processing_us_;
};

}  // namespace cfs

#endif  // CFS_COMMON_LOAD_GATE_H_
