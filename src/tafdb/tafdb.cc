#include "src/tafdb/tafdb.h"

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace cfs {

TafDbCluster::TafDbCluster(SimNet* net, std::vector<uint32_t> servers,
                           TafDbOptions options)
    : net_(net), options_(std::move(options)) {
  ts_net_ = net_->AddNode("tafdb-ts", servers.empty() ? 0 : servers[0]);
  ts_oracle_.set_net_id(ts_net_);
  id_alloc_.set_net_id(ts_net_);
  id_alloc_.AdvanceTo(kRootInode);  // ids start after the root

  size_t server_cursor = 0;
  auto next_server = [&]() {
    uint32_t s = servers.empty() ? 0 : servers[server_cursor % servers.size()];
    server_cursor++;
    return s;
  };
  for (size_t i = 0; i < options_.num_shards; i++) {
    std::vector<uint32_t> replica_servers;
    for (size_t r = 0; r < options_.replicas; r++) {
      replica_servers.push_back(next_server());
    }
    TafDbShardOptions shard_options;
    shard_options.raft = options_.raft;
    shard_options.replicas = options_.replicas;
    shard_options.read_processing_us = options_.read_processing_us;
    shard_options.read_concurrency = options_.read_concurrency;
    shards_.push_back(std::make_unique<TafDbShard>(
        net_, "tafdb-s" + std::to_string(i), std::move(replica_servers),
        shard_options));
  }
}

Status TafDbCluster::Start() {
  for (auto& shard : shards_) {
    CFS_RETURN_IF_ERROR(shard->Start());
  }
  for (auto& shard : shards_) {
    auto leader = shard->raft_group()->WaitForLeader();
    if (!leader.ok()) return leader.status();
  }
  // Bootstrap the root directory's attribute record (idempotent: a second
  // Start on warm state hits kAlreadyExists on the insert).
  PrimitiveOp op;
  op.inserts.push_back(
      InodeRecord::MakeDirAttr(kRootInode, /*now_ts=*/1, /*mode=*/0755,
                               /*uid=*/0, /*gid=*/0));
  PrimitiveResult result = ShardFor(kRootInode)->ExecutePrimitive(op);
  if (!result.status.ok() && !result.status.IsAlreadyExists()) {
    return result.status;
  }
  ts_oracle_.AdvanceTo(2);
  CFS_LOG(kInfo) << "tafdb started: " << shards_.size() << " shards";
  return Status::Ok();
}

void TafDbCluster::Stop() {
  for (auto& shard : shards_) {
    shard->Stop();
  }
}

size_t TafDbCluster::ShardIndexFor(InodeId kid) const {
  if (options_.partition == PartitionScheme::kHashKid) {
    return static_cast<size_t>(HashU64(kid) % shards_.size());
  }
  uint64_t stripe = kid / options_.range_stripe_width;
  return static_cast<size_t>(stripe % shards_.size());
}

TafDbShard* TafDbCluster::ShardFor(InodeId kid) {
  return shards_[ShardIndexFor(kid)].get();
}

}  // namespace cfs
