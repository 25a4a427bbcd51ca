#include "src/workload/traces.h"

#include <algorithm>
#include <cmath>

namespace cfs {

std::string_view FsOpName(FsOp op) {
  switch (op) {
    case FsOp::kRead: return "read";
    case FsOp::kWrite: return "write";
    case FsOp::kOpen: return "open";
    case FsOp::kOpenCreat: return "open(O_CREAT)";
    case FsOp::kStat: return "stat";
    case FsOp::kOpendir: return "opendir";
    case FsOp::kUnlink: return "unlink";
    case FsOp::kRename: return "rename";
    case FsOp::kMkdir: return "mkdir";
    case FsOp::kChmod: return "chmod/chown";
  }
  return "?";
}

// Table 3 compositions, and size CDFs anchored on the Fig 14 figures
// (75.27% / 91.34% / 87.51% of files <= 32KB; up to 96.37% of IOs <= 32KB
// with 45.20-70.70% <= 1KB).

TraceSpec TraceTr0() {
  TraceSpec spec;
  spec.name = "tr-0";
  spec.mix = {
      {FsOp::kRead, 17.8},
      {FsOp::kOpendir, 6.0},
      {FsOp::kStat, 51.8},
      {FsOp::kOpen, 24.4},
  };
  spec.file_size_cdf = {{1 << 10, 0.30}, {4 << 10, 0.52},
                        {32 << 10, 0.7527}, {256 << 10, 0.93},
                        {1 << 20, 1.0}};
  spec.io_size_cdf = {{1 << 10, 0.452}, {4 << 10, 0.71},
                      {32 << 10, 0.9637}, {256 << 10, 1.0}};
  return spec;
}

TraceSpec TraceTr1() {
  TraceSpec spec;
  spec.name = "tr-1";
  spec.mix = {
      {FsOp::kRead, 11.6},   {FsOp::kWrite, 8.2},
      {FsOp::kOpen, 3.1},    {FsOp::kOpenCreat, 8.4},
      {FsOp::kStat, 47.2},   {FsOp::kOpendir, 13.1},
      {FsOp::kUnlink, 8.0},  {FsOp::kRename, 0.3},
  };
  spec.file_size_cdf = {{1 << 10, 0.46}, {4 << 10, 0.72},
                        {32 << 10, 0.9134}, {256 << 10, 0.98},
                        {1 << 20, 1.0}};
  spec.io_size_cdf = {{1 << 10, 0.707}, {4 << 10, 0.85},
                      {32 << 10, 0.955}, {256 << 10, 1.0}};
  return spec;
}

TraceSpec TraceTr2() {
  TraceSpec spec;
  spec.name = "tr-2";
  spec.mix = {
      {FsOp::kWrite, 6.3},  {FsOp::kRead, 1.0},
      {FsOp::kOpen, 5.6},   {FsOp::kOpenCreat, 6.2},
      {FsOp::kStat, 49.3},  {FsOp::kChmod, 6.2},
      {FsOp::kUnlink, 5.1}, {FsOp::kOpendir, 19.0},
      {FsOp::kMkdir, 1.3},
  };
  spec.file_size_cdf = {{1 << 10, 0.38}, {4 << 10, 0.66},
                        {32 << 10, 0.8751}, {256 << 10, 0.97},
                        {1 << 20, 1.0}};
  spec.io_size_cdf = {{1 << 10, 0.60}, {4 << 10, 0.80},
                      {32 << 10, 0.94}, {256 << 10, 1.0}};
  return spec;
}

std::vector<TraceSpec> AllTraces() {
  return {TraceTr0(), TraceTr1(), TraceTr2()};
}

uint64_t SampleSize(const SizeCdf& cdf, Rng& rng) {
  double u = rng.NextDouble();
  uint64_t lower = 1;
  double prev = 0;
  for (const auto& [bound, frac] : cdf) {
    if (u <= frac) {
      // Log-uniform within the bucket [lower, bound].
      double lo = std::log2(static_cast<double>(lower));
      double hi = std::log2(static_cast<double>(bound));
      double pos = prev < frac ? (u - prev) / (frac - prev) : 0.5;
      return static_cast<uint64_t>(std::exp2(lo + pos * (hi - lo)));
    }
    lower = bound;
    prev = frac;
  }
  return cdf.empty() ? 1 : cdf.back().first;
}

double CdfAt(const SizeCdf& cdf, uint64_t bound) {
  double last = 0;
  for (const auto& [b, frac] : cdf) {
    if (b > bound) break;
    last = frac;
  }
  return last;
}

std::vector<MetaOpShare> Table1OpShares() {
  // Table 1 of the paper: aggregated metadata-op ratios across the nine
  // production workloads.
  return {
      {"create", 1.44},  {"lookup", 17.80}, {"unlink", 1.14},
      {"getattr", 75.25}, {"mkdir", 0.08},   {"setattr", 3.21},
      {"rmdir", 0.04},   {"readdir", 0.92}, {"rename", 0.12},
  };
}

std::string TraceReplayer::DirPath(size_t d) const {
  return "/" + spec_.name + "-d" + std::to_string(d);
}

std::string TraceReplayer::FilePath(size_t d, size_t f) const {
  return DirPath(d) + "/f" + std::to_string(f);
}

Status TraceReplayer::Prepare(
    Executor& exec, MetadataClient* setup_client,
    const std::vector<MetadataClient*>& populate_clients) {
  for (size_t d = 0; d < config_.num_dirs; d++) {
    Status st = setup_client->Mkdir(DirPath(d), 0755);
    if (!st.ok() && !st.IsAlreadyExists()) return st;
  }
  // Populate files (with initial content drawn from the file-size CDF,
  // capped so single-machine replay stays bounded).
  Status st = RunPartitioned(
      exec, populate_clients, config_.num_dirs * config_.files_per_dir,
      [&](MetadataClient* client, size_t i, Rng& rng) {
        std::string path =
            FilePath(i / config_.files_per_dir, i % config_.files_per_dir);
        Status created = client->Create(path, 0644);
        if (!created.ok() && !created.IsAlreadyExists()) return created;
        uint64_t size = SampleSize(spec_.file_size_cdf, rng);
        return client->Write(
            path, 0,
            std::string(std::min<uint64_t>(size, config_.io_cap_bytes), 'x'));
      });
  return st.ok() ? st
                 : Status(st.code(), "trace populate failed: " + st.ToString());
}

TraceReplayResult TraceReplayer::Replay(
    Executor& exec, const std::vector<MetadataClient*>& clients) {
  std::vector<double> weights;
  std::vector<FsOp> ops;
  for (const auto& [op, pct] : spec_.mix) {
    ops.push_back(op);
    weights.push_back(pct);
  }
  WeightedChoice choice(weights);

  // Metadata ops the client's current op triggered (§5.8 decomposes each
  // file-system op), read back by the record step.
  std::vector<uint64_t> meta_in_op(clients.size(), 1);
  std::vector<TraceReplayResult> per_client(clients.size());
  auto replay_op = [&](MetadataClient* client, size_t t, uint64_t seq,
                       Rng& rng) {
    FsOp op = ops[choice.Next(rng)];
    size_t d = rng.Uniform(config_.num_dirs);
    size_t f = rng.Uniform(config_.files_per_dir);
    std::string path = FilePath(d, f);
    auto fresh = [&](const char* kind) {
      return DirPath(d) + "/" + kind + std::to_string(t) + "_" +
             std::to_string(seq);
    };
    uint64_t& meta = meta_in_op[t];
    meta = 1;
    Status st;
    switch (op) {
      case FsOp::kStat:
        st = client->GetAttr(path).status();
        meta = 2;  // lookup + getattr
        break;
      case FsOp::kOpen:
        st = client->Lookup(path).status();
        break;
      case FsOp::kOpenCreat:
        st = client->Create(fresh("t"), 0644);
        meta = 2;  // lookup + create
        break;
      case FsOp::kRead: {
        // The freshness check is the op's one metadata op.
        st = client->GetAttr(path).status();
        if (st.ok()) {
          uint64_t len = std::min<uint64_t>(
              SampleSize(spec_.io_size_cdf, rng), config_.io_cap_bytes);
          st = client->Read(path, 0, len).status();
          if (st.IsNotFound()) st = Status::Ok();  // EOF/hole
        }
        break;
      }
      case FsOp::kWrite: {
        uint64_t len = std::min<uint64_t>(SampleSize(spec_.io_size_cdf, rng),
                                          config_.io_cap_bytes);
        st = client->Write(path, 0, std::string(len, 'w'));  // attr merge
        break;
      }
      case FsOp::kOpendir:
        st = client->ReadDir(DirPath(d)).status();
        break;
      case FsOp::kUnlink: {
        std::string victim = fresh("v");
        st = client->Create(victim, 0644);
        if (st.ok()) st = client->Unlink(victim);
        meta = 2;  // create + unlink
        break;
      }
      case FsOp::kRename: {
        std::string a = fresh("rn");
        st = client->Create(a, 0644);
        if (st.ok()) st = client->Rename(a, a + "_renamed");
        if (st.ok()) st = client->Unlink(a + "_renamed");
        meta = 3;
        break;
      }
      case FsOp::kMkdir:
        st = client->Mkdir(fresh("m"), 0755);
        break;
      case FsOp::kChmod: {
        SetAttrSpec spec;
        spec.mode = 0640;
        st = client->SetAttr(path, spec);
        break;
      }
    }
    return st;
  };

  TraceReplayResult result;
  result.seconds = RunClients(
      exec, clients, replay_op,
      Loop::Timed(config_.duration_ms, config_.warmup_ms), /*op_name=*/nullptr,
      [](size_t t) -> uint64_t { return 0x0ddba11 + t * 977; },
      [&](size_t t, const Status& st, const OpTraceData& trace) {
        TraceReplayResult& r = per_client[t];
        r.fs_latency.Record(trace.total_us);
        r.meta_latency.Record(trace.total_us /
                              static_cast<int64_t>(meta_in_op[t]));
        r.fs_ops++;
        r.meta_ops += meta_in_op[t];
        if (!st.ok()) r.errors++;
      });
  for (const TraceReplayResult& r : per_client) {
    result.fs_ops += r.fs_ops;
    result.meta_ops += r.meta_ops;
    result.errors += r.errors;
    result.fs_latency.Merge(r.fs_latency);
    result.meta_latency.Merge(r.meta_latency);
  }
  return result;
}

}  // namespace cfs
