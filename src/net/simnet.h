// SimNet — the in-process cluster fabric.
//
// Every CFS/baseline service instance is registered as a node. A remote
// procedure call between two services goes through SimNet::Call, which
//   1. checks fault state (node down, pairwise partition) and fails the call
//      with kUnavailable without invoking the handler,
//   2. injects the configured network round-trip latency on the caller
//      thread, per LatencyMode: kZero charges nothing (unit tests), kSleep
//      blocks the OS thread for the jittered RTT (wall-clock benchmarks),
//      kVirtual accrues the jittered RTT onto the driving
//      simtime::Scheduler's virtual clock — no thread ever sleeps, jitter
//      draws from the scheduler's seeded PRNG, and a thread not driven by
//      a scheduler (background setup) charges nothing (DESIGN.md §11),
//   3. counts the hop, globally, per destination node, per (from,to) edge
//      (with cumulative injected latency), in a thread-local counter so
//      tests can assert exact RPC counts per operation, and as a kRpc stamp
//      on the calling thread's OpTrace.
//
// The handler then runs synchronously on the caller's thread; services are
// passive, internally synchronized objects. SimNet::FanOut issues several
// calls as one concurrent round: steps 1 and 3 run per destination on the
// caller's thread (so the scope auditor charges every edge to the caller's
// held locks), step 2 once per round, and the handlers run concurrently on
// a small SimNet-owned worker pool — or serially, in order, on a
// simtime::Scheduler, where helper threads would escape the virtual clock.
// SimNet itself models no server queueing. The services do: lock queues
// and raft-log serialization, the effects the paper studies, plus
// LoadGates (src/common/load_gate.h) that bound concurrent processing per
// TafDB shard and FileStore node, so a hot node queues in wall-clock mode
// (DESIGN.md §5). In kVirtual mode a gate only charges its processing time
// (DESIGN.md §11).
//
// Each SimNet registers a dump-time probe ("simnet#<n>") with the global
// MetricsRegistry exposing total/per-edge call counts and injected latency.

#ifndef CFS_NET_SIMNET_H_
#define CFS_NET_SIMNET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/common/trace_event.h"

namespace cfs {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

enum class LatencyMode {
  kZero,     // no injected latency: fast deterministic unit tests
  kSleep,    // real sleep for the round-trip time: wall-clock benchmarks
  kVirtual,  // advance the driving simtime::Scheduler: simulated benchmarks
};

struct NetOptions {
  LatencyMode mode = LatencyMode::kZero;
  int64_t same_node_rtt_us = 5;     // loopback / same physical server
  int64_t cross_node_rtt_us = 150;  // datacenter network round trip
  int64_t jitter_pct = 10;          // uniform +/- jitter on each call
  // kVirtual jitter draws from the driving scheduler's seeded stream, so
  // replay determinism needs the Scheduler seed, not this one; kSleep
  // jitter uses a per-thread stream this seeds only notionally.
  uint64_t seed = 42;
};

class SimNet {
 public:
  // Per-(from,to) directed-edge traffic accounting.
  struct EdgeStat {
    uint64_t calls = 0;
    int64_t injected_us = 0;  // cumulative injected round-trip latency
  };

  explicit SimNet(NetOptions options = {});
  ~SimNet();

  SimNet(const SimNet&) = delete;
  SimNet& operator=(const SimNet&) = delete;

  // Registers a node (a service instance placement). `server` identifies the
  // physical server the node lives on; nodes sharing a server communicate at
  // same-node latency (the paper co-deploys metadata and data services).
  NodeId AddNode(std::string name, uint32_t server);

  uint32_t ServerOf(NodeId node) const;
  const std::string& NameOf(NodeId node) const;
  size_t NumNodes() const;

  // Fault injection.
  void SetNodeDown(NodeId node, bool down);
  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  void HealAll();

  // Invokes `fn` on the destination as one RPC round trip. If delivery
  // fails, returns the delivery error (fn's return type must be
  // constructible from Status: Status or StatusOr<T>). The handler runs on
  // the caller's thread under a trace::NodeScope for the destination, so
  // spans it emits are attributed to the destination node — that is how a
  // causal trace "propagates" across SimNet (cf. src/common/trace_event.h).
  template <typename Fn>
  auto Call(NodeId from, NodeId to, Fn&& fn) -> decltype(fn()) {
    Status delivery = BeginCall(from, to);
    if (!delivery.ok()) return delivery;
    trace::NodeScope scope(TraceNodeOf(to));
    return std::forward<Fn>(fn)();
  }

  // Call for background work the calling thread carries out inline (raft's
  // carried AppendEntries). SimNet's totals, per-node and per-edge stats
  // count it like any call, but nothing of the calling thread's does: not
  // its ThreadHops, not its OpTrace (kRpc, or any phase or span the handler
  // records), not the RPC-under-lock audit of the locks it holds. The
  // calling thread's accounts read as if a background thread had made the
  // call.
  template <typename Fn>
  auto CallDetached(NodeId from, NodeId to, Fn&& fn) -> decltype(fn()) {
    Detached detached;
    return Call(from, to, std::forward<Fn>(fn));
  }

  // One concurrent round: invokes `fn(i)` as an RPC to `dests[i]` for every
  // slot, and returns each slot's result (fn returns Status or StatusOr<T>).
  // Every destination gets its own fault check and hop/edge accounting on
  // the caller's thread, but the round trip is injected once — the sender
  // issues all calls in parallel and joins the slowest. An undeliverable
  // slot gets its delivery error while the others still run. Off a
  // simtime::Scheduler the handlers run concurrently on the SimNet's
  // worker pool and the caller, which runs every slot no worker has
  // started before it waits (so a round nested in a handler never waits on
  // a saturated pool). On a scheduler they run serially in slot order.
  // Handlers on pool workers record their OpTrace phases, trace events and
  // thread hops on the worker, not the caller (DESIGN.md §11).
  template <typename Fn>
  auto FanOut(NodeId from, const std::vector<NodeId>& dests, Fn&& fn)
      -> std::vector<decltype(fn(size_t{0}))> {
    using Result = decltype(fn(size_t{0}));
    std::vector<std::optional<Result>> ran(dests.size());
    std::vector<Status> delivery =
        RunRound(from, dests, [&](size_t i) { ran[i].emplace(fn(i)); });
    std::vector<Result> out;
    out.reserve(dests.size());
    for (size_t i = 0; i < dests.size(); i++) {
      out.push_back(ran[i].has_value() ? std::move(*ran[i])
                                       : Result(std::move(delivery[i])));
    }
    return out;
  }

  // Stats.
  uint64_t TotalCalls() const { return total_calls_.load(); }
  uint64_t CallsTo(NodeId node) const;
  uint64_t CallsBetween(NodeId from, NodeId to) const;
  int64_t TotalInjectedLatencyUs() const;
  std::map<std::pair<NodeId, NodeId>, EdgeStat> EdgeStats() const;
  void ResetStats();

  // Thread-local hop counter: reset before an op, read after, to assert how
  // many RPCs the op issued.
  static void ResetThreadHops();
  static uint64_t ThreadHops();

  // The destination's interned trace-node id (TraceCollector::InternNode),
  // the node Call and FanOut attribute a handler's spans to.
  uint32_t TraceNodeOf(NodeId node) const;

  const NetOptions& options() const { return options_; }
  void set_mode(LatencyMode mode) { options_.mode = mode; }

 private:
  // One source node's outgoing edges. Each table has its own lock, so hops
  // from different sources never contend; the readers (EdgeStats,
  // CallsBetween, ProbeSamples) merge the tables one at a time.
  struct EdgeTable {
    // A leaf: never held across anything but the map update or copy.
    mutable Mutex mu{"simnet.edge", 81};
    std::map<NodeId, EdgeStat> to GUARDED_BY(mu);
  };

  struct Node {
    std::string name;
    uint32_t server = 0;
    // Interned trace identity (stable across SimNet instances: keyed by
    // name, so "tafdb.shard1" is the same trace node in every run).
    uint32_t trace_node = UINT32_MAX;
    std::unique_ptr<std::atomic<uint64_t>> calls;
    std::unique_ptr<EdgeTable> edges;  // calls from this node, by destination
  };

  // CallDetached's scope: sets the calling thread's hop count and OpTrace
  // aside and turns off its RPC-under-lock audit; restores all three.
  class Detached {
   public:
    Detached();
    ~Detached();

    Detached(const Detached&) = delete;
    Detached& operator=(const Detached&) = delete;

   private:
    uint64_t saved_hops_;
    DetachedOpScope op_;
  };

  // One round trip: CheckDelivery, then CountHop with the injected latency.
  Status BeginCall(NodeId from, NodeId to);
  // Fault checks (node down, partition), then the scope audit and the
  // schedule-fuzz preemption point for the edge.
  Status CheckDelivery(NodeId from, NodeId to);
  // Hop/edge accounting for a delivered call charged `injected_us`.
  void CountHop(NodeId from, NodeId to, int64_t injected_us);

  // FanOut's untyped core: delivers and counts every slot, charges the
  // round trip once, runs `run(i)` for each delivered slot, and returns the
  // per-slot delivery statuses.
  std::vector<Status> RunRound(NodeId from, const std::vector<NodeId>& dests,
                               const std::function<void(size_t)>& run);

  // Returns the injected round-trip latency in microseconds (0 in kZero,
  // and 0 in kVirtual off the scheduler thread).
  int64_t InjectLatency(NodeId from, NodeId to);
  std::vector<std::pair<std::string, int64_t>> ProbeSamples() const;

  // Node table capacity. Fixed so the hot path (BeginCall) can index nodes_
  // without a lock: slots never move, a slot is fully initialized before
  // num_nodes_ publishes it (release/acquire), and published slots are
  // immutable apart from their atomic call counter and their edge table,
  // which has its own lock. Sized for the
  // simulated-client benches: every simulated client registers a node, and
  // the Fig 10 sim sweep runs tens of thousands of them.
  static constexpr size_t kMaxNodes = 65536;

  NetOptions options_;  // tsa-coverage: allow(immutable after construction)
  // Serializes AddNode and guards the fault sets. RPC handlers run with no
  // SimNet lock held, so any service lock may be acquired "across" a call.
  mutable Mutex mu_{"simnet.node", 80};
  // Fixed array; slots at index < num_nodes_ are published immutable by
  // AddNode's release store (see comment there), so readers need no lock.
  // tsa-coverage: allow(publish-then-immutable via num_nodes_ acq/rel)
  std::unique_ptr<Node[]> nodes_;
  std::atomic<size_t> num_nodes_{0};
  std::set<NodeId> down_nodes_ GUARDED_BY(mu_);
  std::set<std::pair<NodeId, NodeId>> partitions_ GUARDED_BY(mu_);
  std::atomic<bool> has_faults_{false};
  std::atomic<uint64_t> total_calls_{0};
  std::atomic<int64_t> total_injected_us_{0};
  uint64_t probe_handle_ = 0;
  // Fan-out workers, a constant: a round wider than the pool runs its
  // remaining slots on the caller.
  static constexpr size_t kFanOutWorkers = 4;
  // Round completion: the slot that finishes a round notifies under it and
  // the round's caller waits on it; the slot counts themselves are atomics.
  Mutex fanout_mu_{"simnet.fanout", 89};
  CondVar fanout_cv_;
  // Declared last so it is destroyed (its workers joined) first.
  // tsa-coverage: allow(internally synchronized)
  ThreadPool fanout_pool_{kFanOutWorkers, "simnet-fanout"};
};

}  // namespace cfs

#endif  // CFS_NET_SIMNET_H_
