// Production trace synthesis and replay (paper §5.8).
//
// The paper replays three traces (tr-0, tr-1, tr-2) sampled from nine
// production workloads. The traces themselves are proprietary; this module
// synthesizes statistically equivalent streams from the published
// statistics: the file-system-op compositions of Table 3 and the file/IO
// size distributions of Figure 14. The replayer executes the stream with
// data access enabled and reports both file-system-op and metadata-op
// throughput plus tail latency — the quantities Fig 15 compares.

#ifndef CFS_WORKLOAD_TRACES_H_
#define CFS_WORKLOAD_TRACES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/metadata_client.h"
#include "src/workload/workload.h"

namespace cfs {

enum class FsOp {
  kRead,
  kWrite,
  kOpen,
  kOpenCreat,
  kStat,
  kOpendir,
  kUnlink,
  kRename,
  kMkdir,
  kChmod,
};

std::string_view FsOpName(FsOp op);

// Piecewise CDF over sizes in bytes: (upper_bound, cumulative_fraction),
// fractions ending at 1.0.
using SizeCdf = std::vector<std::pair<uint64_t, double>>;

struct TraceSpec {
  std::string name;
  std::vector<std::pair<FsOp, double>> mix;  // Table 3 percentages
  SizeCdf file_size_cdf;                     // Fig 14 (a)
  SizeCdf io_size_cdf;                       // Fig 14 (b)
};

TraceSpec TraceTr0();
TraceSpec TraceTr1();
TraceSpec TraceTr2();
std::vector<TraceSpec> AllTraces();

// Draws a size from a CDF (log-uniform within the matched bucket).
uint64_t SampleSize(const SizeCdf& cdf, Rng& rng);

// Fraction of samples at or below `bound` (for reporting Fig 14 rows).
double CdfAt(const SizeCdf& cdf, uint64_t bound);

struct TraceReplayResult {
  uint64_t fs_ops = 0;
  uint64_t meta_ops = 0;  // metadata operations triggered (stat = 2, ...)
  uint64_t errors = 0;
  double seconds = 0;
  Histogram fs_latency;
  Histogram meta_latency;

  double fs_ops_per_sec() const { return seconds > 0 ? fs_ops / seconds : 0; }
  double meta_ops_per_sec() const {
    return seconds > 0 ? meta_ops / seconds : 0;
  }
};

struct TraceReplayConfig {
  size_t num_dirs = 8;        // namespace breadth
  size_t files_per_dir = 64;  // pre-populated working set
  size_t io_cap_bytes = 4096; // cap on actual payload bytes moved
  int64_t duration_ms = 3000;
  int64_t warmup_ms = 300;
};

// Pre-populates the namespace (directories plus files with sizes drawn from
// the trace's file-size CDF) using `setup_client` and `populate_clients`,
// then replays the op mix from `clients` in a closed loop. Both run on the
// shared closed-loop client body (src/workload/workload.h).
class TraceReplayer {
 public:
  TraceReplayer(TraceSpec spec, TraceReplayConfig config)
      : spec_(std::move(spec)), config_(config) {}

  Status Prepare(Executor& exec, MetadataClient* setup_client,
                 const std::vector<MetadataClient*>& populate_clients);
  TraceReplayResult Replay(Executor& exec,
                           const std::vector<MetadataClient*>& clients);

  const TraceSpec& spec() const { return spec_; }

 private:
  std::string DirPath(size_t d) const;
  std::string FilePath(size_t d, size_t f) const;

  TraceSpec spec_;
  TraceReplayConfig config_;
};

// Aggregated metadata-op shares (Table 1): derived by decomposing the nine
// production workloads' file-system calls into metadata ops the way §3.2
// describes (stat -> lookup+getattr, open -> lookup, read -> getattr, ...).
struct MetaOpShare {
  std::string op;
  double ratio;
};
std::vector<MetaOpShare> Table1OpShares();

}  // namespace cfs

#endif  // CFS_WORKLOAD_TRACES_H_
