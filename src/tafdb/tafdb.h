// TafDB — the namespace store layer (paper §3.2): a set of range-
// partitioned metadata shards plus the timestamp service, fronted by a thin
// routing API.
//
// Partitioning (§4.1): inode_table is split by kID range. Because inode ids
// are allocated sequentially, the id space is pre-split into fixed-width
// stripes assigned round-robin to shards — contiguous kID ranges (range
// partitioning, preserving the directory-locality property: a directory's
// attribute record and all its children's id records share one kID and
// therefore one shard) while still spreading distinct directories across
// the cluster.

#ifndef CFS_TAFDB_TAFDB_H_
#define CFS_TAFDB_TAFDB_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/simnet.h"
#include "src/tafdb/shard.h"
#include "src/txn/timestamp_oracle.h"

namespace cfs {

// How inode_table keys map to shards.
enum class PartitionScheme {
  // CFS: contiguous kID ranges (striped) — directory locality preserved.
  kRangeStripe,
  // Baselines: hash of kID — a directory's rows still share a shard (same
  // kID) but adjacent directories scatter; used with inline-attribute row
  // models where cross-shard transactions arise between parent and child
  // directories.
  kHashKid,
};

struct TafDbOptions {
  size_t num_shards = 4;
  size_t replicas = 3;
  PartitionScheme partition = PartitionScheme::kRangeStripe;
  // Width of each contiguous kID range stripe.
  uint64_t range_stripe_width = 64;
  RaftOptions raft;
  // Forwarded to each shard (see TafDbShardOptions).
  int64_t read_processing_us = 150;
  size_t read_concurrency = 2;
};

class TafDbCluster {
 public:
  // `servers` are the physical server ids metadata replicas may occupy;
  // shard replicas are placed round-robin.
  TafDbCluster(SimNet* net, std::vector<uint32_t> servers,
               TafDbOptions options);

  // Starts every shard group, waits for leaders, creates the root inode.
  Status Start();
  void Stop();

  size_t ShardIndexFor(InodeId kid) const;
  TafDbShard* ShardFor(InodeId kid);
  TafDbShard* shard(size_t i) { return shards_[i].get(); }
  size_t num_shards() const { return shards_.size(); }

  // Timestamp service (LWW ordering) and inode id allocation; both live on
  // a dedicated time-server node and are fetched in batches by clients.
  TimestampOracle* ts_oracle() { return &ts_oracle_; }
  TimestampOracle* id_allocator() { return &id_alloc_; }
  NodeId ts_net_id() const { return ts_net_; }

  const TafDbOptions& options() const { return options_; }

 private:
  SimNet* net_;
  TafDbOptions options_;
  std::vector<std::unique_ptr<TafDbShard>> shards_;
  NodeId ts_net_ = kInvalidNode;
  TimestampOracle ts_oracle_;
  TimestampOracle id_alloc_;
};

}  // namespace cfs

#endif  // CFS_TAFDB_TAFDB_H_
