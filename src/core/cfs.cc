#include "src/core/cfs.h"

#include "src/common/logging.h"
#include "src/core/gc.h"

namespace cfs {

CfsOptions CfsBaseOptions() {
  CfsOptions options;
  options.tiered_attrs = false;
  options.primitives = false;
  options.client_resolving = false;
  return options;
}

CfsOptions CfsNewOrgOptions() {
  CfsOptions options = CfsBaseOptions();
  options.tiered_attrs = true;
  return options;
}

CfsOptions CfsPrimitivesOptions() {
  CfsOptions options = CfsNewOrgOptions();
  options.primitives = true;
  return options;
}

CfsOptions CfsFullOptions() {
  CfsOptions options = CfsPrimitivesOptions();
  options.client_resolving = true;
  return options;
}

Cfs::Cfs(CfsOptions options) : options_(std::move(options)), net_(options_.net) {
  std::vector<uint32_t> servers;
  for (uint32_t s = 0; s < options_.num_servers; s++) {
    servers.push_back(s);
  }
  tafdb_ = std::make_unique<TafDbCluster>(&net_, servers, options_.tafdb);
  filestore_ =
      std::make_unique<FileStoreCluster>(&net_, servers, options_.filestore);
  RenamerOptions renamer_options = options_.renamer;
  renamer_options.tiered_attrs = options_.tiered_attrs;
  renamer_options.use_shard_row_locks = !options_.primitives;
  std::vector<uint32_t> renamer_servers;
  for (size_t i = 0; i < renamer_options.replicas; i++) {
    renamer_servers.push_back(servers[i % servers.size()]);
  }
  renamer_ = std::make_unique<Renamer>(
      &net_, renamer_servers, tafdb_.get(),
      options_.tiered_attrs ? filestore_.get() : nullptr, renamer_options);
  renamer_->set_invalidation_broadcast(
      [this](const CacheInvalidation& inv) { BroadcastInvalidation(inv); });
  gc_ = std::make_unique<GarbageCollector>(this);

  if (!options_.client_resolving) {
    for (size_t i = 0; i < options_.num_proxies; i++) {
      NodeId node = net_.AddNode("proxy-" + std::to_string(i),
                                 static_cast<uint32_t>(i % servers.size()));
      proxy_nodes_.push_back(node);
      proxy_engines_.push_back(std::make_unique<CfsEngine>(this, node));
    }
  }
}

Cfs::~Cfs() { Stop(); }

Status Cfs::Start() {
  if (started_) return Status::Ok();
  CFS_RETURN_IF_ERROR(tafdb_->Start());
  CFS_RETURN_IF_ERROR(filestore_->Start());
  CFS_RETURN_IF_ERROR(renamer_->Start());
  if (options_.start_gc) {
    gc_->Start();
  }
  started_ = true;
  CFS_LOG(kInfo) << "cfs started (tiered=" << options_.tiered_attrs
                 << " primitives=" << options_.primitives
                 << " client_resolving=" << options_.client_resolving << ")";
  return Status::Ok();
}

void Cfs::Stop() {
  if (!started_) return;
  started_ = false;
  gc_->Stop();
  renamer_->Stop();
  filestore_->Stop();
  tafdb_->Stop();
}

void Cfs::RegisterEngine(CfsEngine* engine) {
  MutexLock lock(engines_mu_);
  engines_.push_back(engine);
}

void Cfs::UnregisterEngine(CfsEngine* engine) {
  MutexLock lock(engines_mu_);
  // A broadcast in flight fans out over a snapshot taken under this mutex
  // that may include `engine`; wait for every such broadcast to finish
  // before letting the engine's destructor proceed.
  while (active_broadcasts_ > 0) {
    engines_cv_.Wait(engines_mu_);
  }
  for (auto it = engines_.begin(); it != engines_.end(); ++it) {
    if (*it == engine) {
      engines_.erase(it);
      return;
    }
  }
}

void Cfs::BroadcastInvalidation(const CacheInvalidation& inv) {
  // Snapshot the registry, then fan out with engines_mu_ *released* —
  // cfs.engines is a never-across-rpc class and the fan-out is a network
  // round trip. The snapshot's pointers stay alive because a concurrent
  // ~CfsEngine blocks in UnregisterEngine until active_broadcasts_ drains
  // back to zero. An engine registered after the snapshot misses this
  // invalidation, which is safe: it was just constructed and its cache is
  // empty.
  std::vector<CfsEngine*> engines;
  {
    MutexLock lock(engines_mu_);
    if (engines_.empty()) return;
    engines = engines_;
    active_broadcasts_++;
  }
  std::vector<NodeId> dests;
  dests.reserve(engines.size());
  for (CfsEngine* engine : engines) dests.push_back(engine->self());
  // Best effort: an unreachable engine restarts cold.
  (void)net_.FanOut(renamer_->CoordinatorNetId(), dests, [&](size_t i) {
    engines[i]->ApplyInvalidation(inv);
    return Status::Ok();
  });
  {
    MutexLock lock(engines_mu_);
    active_broadcasts_--;
    if (active_broadcasts_ == 0) engines_cv_.NotifyAll();
  }
}

std::unique_ptr<MetadataClient> Cfs::NewClient() {
  // Clients run on dedicated client servers (the paper separates the 10
  // client machines from the 40 DFS servers); model them as servers beyond
  // the DFS range so every client->service call is cross-node.
  uint32_t client_server =
      static_cast<uint32_t>(options_.num_servers) +
      (next_client_server_.fetch_add(1) % 8);
  NodeId node = net_.AddNode("client", client_server);
  if (options_.client_resolving) {
    return std::make_unique<CfsEngine>(this, node);
  }
  size_t proxy = next_proxy_.fetch_add(1) % proxy_engines_.size();
  return std::make_unique<ForwardingClient>(&net_, node, proxy_nodes_[proxy],
                                            proxy_engines_[proxy].get());
}

}  // namespace cfs
