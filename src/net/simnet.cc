#include "src/net/simnet.h"

#include <algorithm>

#include "src/common/metrics.h"
#include "src/common/race_detector.h"
#include "src/common/simtime.h"

namespace cfs {
namespace {

thread_local uint64_t t_hops = 0;
// Nonzero inside SimNet::CallDetached: the thread's held locks are not
// charged with the call.
thread_local int t_detached = 0;

thread_local uint64_t t_rng_state =
    0x9e3779b97f4a7c15ULL ^
    std::hash<std::thread::id>{}(std::this_thread::get_id());

int64_t Jitter(int64_t base_us, int64_t jitter_pct, uint64_t r) {
  if (jitter_pct <= 0) return base_us;
  int64_t span = base_us * jitter_pct / 100;
  if (span <= 0) return base_us;
  return base_us - span + static_cast<int64_t>(r % (2 * static_cast<uint64_t>(span) + 1));
}

}  // namespace

SimNet::SimNet(NetOptions options)
    : options_(options), nodes_(new Node[kMaxNodes]) {
  static std::atomic<uint64_t> instance{0};
  std::string name = "simnet#" + std::to_string(instance.fetch_add(1));
  probe_handle_ = MetricsRegistry::Global().RegisterProbe(
      std::move(name), [this] { return ProbeSamples(); });
}

SimNet::~SimNet() {
  MetricsRegistry::Global().UnregisterProbe(probe_handle_);
}

NodeId SimNet::AddNode(std::string name, uint32_t server) {
  MutexLock lock(mu_);
  size_t id = num_nodes_.load(std::memory_order_relaxed);
  CFS_CHECK(id < kMaxNodes);
  nodes_[id].name = std::move(name);
  nodes_[id].server = server;
  nodes_[id].trace_node =
      trace::TraceCollector::Global().InternNode(nodes_[id].name);
  nodes_[id].calls = std::make_unique<std::atomic<uint64_t>>(0);
  nodes_[id].edges = std::make_unique<EdgeTable>();
  // Publish: concurrent readers (raft replicators mid-call while a client
  // node registers) only dereference slots below num_nodes_.
  num_nodes_.store(id + 1, std::memory_order_release);
  return static_cast<NodeId>(id);
}

uint32_t SimNet::ServerOf(NodeId node) const {
  CFS_CHECK(node < num_nodes_.load(std::memory_order_acquire));
  return nodes_[node].server;
}

const std::string& SimNet::NameOf(NodeId node) const {
  CFS_CHECK(node < num_nodes_.load(std::memory_order_acquire));
  return nodes_[node].name;
}

size_t SimNet::NumNodes() const {
  return num_nodes_.load(std::memory_order_acquire);
}

void SimNet::SetNodeDown(NodeId node, bool down) {
  MutexLock lock(mu_);
  CFS_SHARED_WRITE(down_nodes_, mu_);
  if (down) {
    down_nodes_.insert(node);
  } else {
    down_nodes_.erase(node);
  }
  has_faults_.store(!down_nodes_.empty() || !partitions_.empty());
}

void SimNet::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  auto key = std::minmax(a, b);
  MutexLock lock(mu_);
  if (partitioned) {
    partitions_.insert(key);
  } else {
    partitions_.erase(key);
  }
  has_faults_.store(!down_nodes_.empty() || !partitions_.empty());
}

void SimNet::HealAll() {
  MutexLock lock(mu_);
  down_nodes_.clear();
  partitions_.clear();
  has_faults_.store(false);
}

Status SimNet::BeginCall(NodeId from, NodeId to) {
  Status delivery = CheckDelivery(from, to);
  if (delivery.ok()) CountHop(from, to, InjectLatency(from, to));
  return delivery;
}

Status SimNet::CheckDelivery(NodeId from, NodeId to) {
  if (has_faults_.load(std::memory_order_acquire)) {
    MutexLock lock(mu_);
    CFS_SHARED_READ(down_nodes_, mu_);
    if (down_nodes_.count(to) != 0) {
      return Status::Unavailable("node down: " + nodes_[to].name);
    }
    if (down_nodes_.count(from) != 0) {
      return Status::Unavailable("caller down: " + nodes_[from].name);
    }
    if (partitions_.count(std::minmax(from, to)) != 0) {
      return Status::Unavailable("network partition");
    }
  }
  // Critical-section scope audit: charge this round trip to every lock the
  // calling thread holds (and report if any is kNeverAcrossRpc). Must run
  // with the fault-check lock above already released — simnet.node itself
  // is a never-across-rpc class.
  if constexpr (lock_order::kTracking) {
    if (t_detached == 0) {
      lock_order::OnRpcEdge(nodes_[from].name.c_str(),
                            nodes_[to].name.c_str());
    }
  }
  // Preemption point for schedule fuzzing: an RPC edge is where a task's
  // timing slides against its peers (DESIGN.md §12).
  simtime::FuzzPoint(simtime::FuzzKind::kRpcEdge);
  return Status::Ok();
}

void SimNet::CountHop(NodeId from, NodeId to, int64_t injected_us) {
  total_calls_.fetch_add(1, std::memory_order_relaxed);
  if (injected_us > 0) {
    total_injected_us_.fetch_add(injected_us, std::memory_order_relaxed);
  }
  t_hops++;
  OpTrace::AddPhase(Phase::kRpc, injected_us);
  if (trace::Active()) {
    trace::RpcEvent(nodes_[from].name.c_str(), nodes_[to].name.c_str(),
                    nodes_[to].trace_node, injected_us);
  }
  nodes_[to].calls->fetch_add(1, std::memory_order_relaxed);
  EdgeTable& table = *nodes_[from].edges;
  MutexLock lock(table.mu);
  CFS_SHARED_WRITE(table.to, table.mu);
  EdgeStat& edge = table.to[to];
  edge.calls++;
  edge.injected_us += injected_us;
}

SimNet::Detached::Detached() : saved_hops_(t_hops) { t_detached++; }

SimNet::Detached::~Detached() {
  t_detached--;
  t_hops = saved_hops_;
}

namespace {

// One round's slots, shared with the pool workers that help run them. A
// worker that dequeues its help task after the round finished claims
// nothing, so it never calls `run`, whose captures live on the caller's
// stack.
struct FanOutRound {
  std::function<void(size_t)> run;
  std::vector<size_t> slots;  // the delivered slot indices
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
};

}  // namespace

std::vector<Status> SimNet::RunRound(NodeId from,
                                     const std::vector<NodeId>& dests,
                                     const std::function<void(size_t)>& run) {
  auto round = std::make_shared<FanOutRound>();
  std::vector<Status> delivery;
  delivery.reserve(dests.size());
  for (size_t i = 0; i < dests.size(); i++) {
    delivery.push_back(CheckDelivery(from, dests[i]));
    if (!delivery.back().ok()) continue;
    // The round completes when its slowest call does: only the first
    // delivered call charges the round trip.
    CountHop(from, dests[i],
             round->slots.empty() ? InjectLatency(from, dests[i]) : 0);
    round->slots.push_back(i);
  }
  round->run = [this, &dests, &run](size_t i) {
    trace::NodeScope scope(nodes_[dests[i]].trace_node);
    run(i);
  };
  const size_t n = round->slots.size();
  if (n <= 1 || simtime::Current() != nullptr) {
    for (size_t i : round->slots) round->run(i);
    return delivery;
  }
  auto work = [this](FanOutRound& r) {
    for (size_t k = r.next.fetch_add(1); k < r.slots.size();
         k = r.next.fetch_add(1)) {
      r.run(r.slots[k]);
      if (r.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          r.slots.size()) {
        MutexLock lock(fanout_mu_);
        fanout_cv_.NotifyAll();
      }
    }
  };
  for (size_t h = 0; h < std::min(n - 1, kFanOutWorkers); h++) {
    (void)fanout_pool_.Submit([round, work] { work(*round); });
  }
  work(*round);
  MutexLock lock(fanout_mu_);
  while (round->done.load(std::memory_order_acquire) < n) {
    fanout_cv_.Wait(fanout_mu_);
  }
  return delivery;
}

int64_t SimNet::InjectLatency(NodeId from, NodeId to) {
  if (options_.mode == LatencyMode::kZero) return 0;
  int64_t base = (nodes_[from].server == nodes_[to].server)
                     ? options_.same_node_rtt_us
                     : options_.cross_node_rtt_us;
  if (options_.mode == LatencyMode::kVirtual) {
    simtime::Scheduler* sched = simtime::Current();
    // Off the scheduler thread (setup/population, stray background work)
    // there is no virtual clock to charge; the call is free, like kZero.
    if (sched == nullptr) return 0;
    int64_t us = Jitter(base, options_.jitter_pct, sched->NextRand());
    sched->AdvanceUs(us);
    return us > 0 ? us : 0;
  }
  int64_t us = Jitter(base, options_.jitter_pct, SplitMix64(t_rng_state));
  simtime::SleepUs(us);
  return us > 0 ? us : 0;
}

uint64_t SimNet::CallsTo(NodeId node) const {
  CFS_CHECK(node < num_nodes_.load(std::memory_order_acquire));
  return nodes_[node].calls->load();
}

uint64_t SimNet::CallsBetween(NodeId from, NodeId to) const {
  CFS_CHECK(from < num_nodes_.load(std::memory_order_acquire));
  const EdgeTable& table = *nodes_[from].edges;
  MutexLock lock(table.mu);
  CFS_SHARED_READ(table.to, table.mu);
  auto it = table.to.find(to);
  return it == table.to.end() ? 0 : it->second.calls;
}

int64_t SimNet::TotalInjectedLatencyUs() const {
  return total_injected_us_.load(std::memory_order_relaxed);
}

std::map<std::pair<NodeId, NodeId>, SimNet::EdgeStat> SimNet::EdgeStats()
    const {
  std::map<std::pair<NodeId, NodeId>, EdgeStat> out;
  size_t n = num_nodes_.load(std::memory_order_acquire);
  for (size_t from = 0; from < n; from++) {
    const EdgeTable& table = *nodes_[from].edges;
    MutexLock lock(table.mu);
    CFS_SHARED_READ(table.to, table.mu);
    for (const auto& [to, stat] : table.to) {
      out[{static_cast<NodeId>(from), to}] = stat;
    }
  }
  return out;
}

std::vector<std::pair<std::string, int64_t>> SimNet::ProbeSamples() const {
  std::vector<std::pair<std::string, int64_t>> samples;
  samples.emplace_back("total_calls", static_cast<int64_t>(TotalCalls()));
  samples.emplace_back("total_injected_us", TotalInjectedLatencyUs());
  auto edges = EdgeStats();
  // Published slots are immutable; snapshot the names without any lock.
  size_t n = num_nodes_.load(std::memory_order_acquire);
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; i++) names.push_back(nodes_[i].name);
  for (const auto& [edge, stat] : edges) {
    const std::string& from = names[edge.first];
    const std::string& to = names[edge.second];
    samples.emplace_back("calls." + from + "->" + to,
                         static_cast<int64_t>(stat.calls));
    if (stat.injected_us > 0) {
      samples.emplace_back("injected_us." + from + "->" + to,
                           stat.injected_us);
    }
  }
  return samples;
}

void SimNet::ResetStats() {
  total_calls_.store(0);
  total_injected_us_.store(0);
  size_t n = num_nodes_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; i++) {
    nodes_[i].calls->store(0);
    EdgeTable& table = *nodes_[i].edges;
    MutexLock lock(table.mu);
    CFS_SHARED_WRITE(table.to, table.mu);
    table.to.clear();
  }
}

uint32_t SimNet::TraceNodeOf(NodeId node) const {
  CFS_CHECK(node < num_nodes_.load(std::memory_order_acquire));
  return nodes_[node].trace_node;
}

void SimNet::ResetThreadHops() { t_hops = 0; }
uint64_t SimNet::ThreadHops() { return t_hops; }

}  // namespace cfs
