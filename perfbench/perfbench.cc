#include "perfbench/perfbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>

#include "src/common/simtime.h"
#include "src/net/simnet.h"

namespace perfbench {

using cfs::Cfs;
using cfs::CfsEngine;
using cfs::MetadataClient;
using cfs::Status;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Parent(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == 0 ? "/" : path.substr(0, slash);
}

std::string Base(const std::string& path) {
  return path.substr(path.rfind('/') + 1);
}

std::string Full(const std::string& root, const std::string& rel) {
  return rel == "/" ? root : root + rel;
}

// Table 1 of the paper: aggregated metadata-op shares in production.
const cfs::WeightedChoice& ReadMixChoice() {
  static const cfs::WeightedChoice choice(
      {75.25, 17.80, 3.21, 1.44, 1.14, 0.92, 0.12, 0.08, 0.04});
  return choice;
}
constexpr Op kReadMixOps[] = {Op::kGetAttr, Op::kLookup, Op::kSetAttr,
                              Op::kCreate,  Op::kUnlink, Op::kReadDir,
                              Op::kRename,  Op::kMkdir,  Op::kRmdir};

// Fig 11 at 100% contention, every op on the one shared directory.
const cfs::WeightedChoice& SharedDirChoice() {
  static const cfs::WeightedChoice choice({40, 25, 15, 10, 10});
  return choice;
}
constexpr Op kSharedDirOps[] = {Op::kCreate, Op::kUnlink, Op::kMkdir,
                                Op::kRmdir, Op::kSetAttr};

// §5.6: 90% intra-directory file renames, 10% through the Renamer.
const cfs::WeightedChoice& RenameMixChoice() {
  static const cfs::WeightedChoice choice({90, 7, 3});
  return choice;
}
constexpr Op kRenameMixOps[] = {Op::kRename, Op::kRenameCross,
                                Op::kRenameDir};

std::string ClientDir(size_t client) { return "/c" + std::to_string(client); }

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kGetAttr: return "getattr";
    case Op::kLookup: return "lookup";
    case Op::kSetAttr: return "setattr";
    case Op::kCreate: return "create";
    case Op::kUnlink: return "unlink";
    case Op::kReadDir: return "readdir";
    case Op::kRename: return "rename";
    case Op::kRenameCross: return "rename_cross";
    case Op::kRenameDir: return "rename_dir";
    case Op::kMkdir: return "mkdir";
    case Op::kRmdir: return "rmdir";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kReadMix, Workload::kSharedDirWrites,
                     Workload::kRenameMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kReadMix: return "read-mix";
    case Workload::kSharedDirWrites: return "shared-dir-writes";
    case Workload::kRenameMix: return "rename-mix";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Namespace model

void NamespaceModel::AddDir(const std::string& path) {
  dirs_[path];
  if (path != "/") dirs_[Parent(path)].insert(Base(path));
}

void NamespaceModel::AddFile(const std::string& path) {
  dirs_[Parent(path)].insert(Base(path));
}

void NamespaceModel::Apply(const OpSpec& spec) {
  switch (spec.op) {
    case Op::kCreate:
      AddFile(spec.path);
      files_.insert(spec.path);
      break;
    case Op::kUnlink:
      dirs_[Parent(spec.path)].erase(Base(spec.path));
      files_.erase(spec.path);
      break;
    case Op::kMkdir:
      AddDir(spec.path);
      break;
    case Op::kRmdir:
      dirs_[Parent(spec.path)].erase(Base(spec.path));
      dirs_.erase(spec.path);
      break;
    case Op::kRename:
    case Op::kRenameCross:
      dirs_[Parent(spec.path)].erase(Base(spec.path));
      AddFile(spec.path2);
      files_.erase(spec.path);
      files_.insert(spec.path2);
      break;
    case Op::kRenameDir: {
      dirs_[Parent(spec.path)].erase(Base(spec.path));
      dirs_[Parent(spec.path2)].insert(Base(spec.path2));
      const std::string prefix = spec.path + "/";
      std::map<std::string, std::set<std::string>> moved;
      for (auto it = dirs_.begin(); it != dirs_.end();) {
        if (it->first == spec.path || it->first.starts_with(prefix)) {
          moved[spec.path2 + it->first.substr(spec.path.size())] =
              std::move(it->second);
          it = dirs_.erase(it);
        } else {
          ++it;
        }
      }
      dirs_.merge(moved);
      std::set<std::string> files;
      for (const std::string& f : files_) {
        files.insert(f.starts_with(prefix)
                         ? spec.path2 + f.substr(spec.path.size())
                         : f);
      }
      files_ = std::move(files);
      break;
    }
    case Op::kGetAttr:
    case Op::kLookup:
    case Op::kSetAttr:
    case Op::kReadDir:
      break;
  }
}

// ---------------------------------------------------------------------------
// Generators

namespace {

// Pre-run namespace for a layout: directories first (parents before
// children), then files. In rename-mix, client n's files and subdirectories
// are the ones ClientGen n starts out owning.
struct Population {
  std::vector<std::string> dirs;
  std::vector<std::string> files;
};

Population MakePopulation(const Layout& layout) {
  Population pop;
  switch (layout.workload) {
    case Workload::kReadMix:
      for (size_t i = 0; i < layout.top_dirs; i++) {
        pop.dirs.push_back("/d" + std::to_string(i));
      }
      for (size_t i = 0; i < layout.top_dirs; i++) {
        for (size_t j = 0; j < layout.sub_dirs; j++) {
          pop.dirs.push_back("/d" + std::to_string(i) + "/s" +
                             std::to_string(j));
        }
      }
      for (size_t k = 0; k < layout.ReadMixFiles(); k++) {
        size_t leaf = k / layout.files_per_leaf;
        pop.files.push_back("/d" + std::to_string(leaf / layout.sub_dirs) +
                            "/s" + std::to_string(leaf % layout.sub_dirs) +
                            "/f" + std::to_string(k % layout.files_per_leaf));
      }
      break;
    case Workload::kSharedDirWrites:
      pop.dirs.push_back("/shared");
      break;
    case Workload::kRenameMix:
      for (size_t c = 0; c < layout.clients; c++) {
        std::string dir = ClientDir(c);
        pop.dirs.push_back(dir);
        pop.dirs.push_back(dir + "/a");
        pop.dirs.push_back(dir + "/b");
        for (size_t s = 0; s < layout.rename_subdirs; s++) {
          pop.dirs.push_back(dir + "/a/g" + std::to_string(s));
        }
      }
      for (size_t c = 0; c < layout.clients; c++) {
        std::string dir = ClientDir(c);
        for (size_t f = 0; f < layout.rename_files; f++) {
          pop.files.push_back(dir + "/a/f" + std::to_string(f));
        }
        for (size_t s = 0; s < layout.rename_subdirs; s++) {
          for (int x = 0; x < 2; x++) {
            pop.files.push_back(dir + "/a/g" + std::to_string(s) + "/x" +
                                std::to_string(x));
          }
        }
      }
      break;
  }
  return pop;
}

}  // namespace

std::shared_ptr<HotSet> MakeHotSet(const Layout& layout, uint64_t seed) {
  const size_t n = layout.ReadMixFiles();
  auto hot = std::make_shared<HotSet>(
      HotSet{std::vector<uint32_t>(n), cfs::ZipfGenerator(n, layout.zipf_theta)});
  for (size_t i = 0; i < n; i++) hot->order[i] = static_cast<uint32_t>(i);
  cfs::Rng rng(seed ^ 0x407a11ce5eedULL);
  for (size_t i = n; i > 1; i--) {
    std::swap(hot->order[i - 1], hot->order[rng.Uniform(i)]);
  }
  return hot;
}

ClientGen::ClientGen(const Layout& layout, uint64_t seed, size_t client,
                     std::shared_ptr<HotSet> hot)
    : layout_(layout),
      client_(client),
      rng_(seed * 0x9e3779b97f4a7c15ULL + client * 0xbf58476d1ce4e5b9ULL + 1),
      hot_(std::move(hot)) {
  if (layout_.workload == Workload::kRenameMix) {
    dir_a_ = ClientDir(client) + "/a";
    dir_b_ = ClientDir(client) + "/b";
    for (size_t f = 0; f < layout_.rename_files; f++) {
      own_files_.push_back(dir_a_ + "/f" + std::to_string(f));
    }
    for (size_t s = 0; s < layout_.rename_subdirs; s++) {
      own_subdirs_.push_back(dir_a_ + "/g" + std::to_string(s));
    }
  }
}

std::string ClientGen::NewName(const char* prefix) {
  return prefix + std::to_string(client_) + "_" + std::to_string(seq_++);
}

std::string ClientGen::LeafOfFile(uint64_t file) const {
  size_t leaf = file / layout_.files_per_leaf;
  return "/d" + std::to_string(leaf / layout_.sub_dirs) + "/s" +
         std::to_string(leaf % layout_.sub_dirs);
}

uint64_t ClientGen::PickHotFile() {
  uint64_t rank = hot_->zipf.Next(rng_);
  return hot_->order[std::min<uint64_t>(rank, hot_->order.size() - 1)];
}

std::string ClientGen::TakeRandom(std::vector<std::string>* from,
                                  cfs::Rng& rng) {
  size_t i = rng.Uniform(from->size());
  std::string out = std::move((*from)[i]);
  (*from)[i] = std::move(from->back());
  from->pop_back();
  return out;
}

OpSpec ClientGen::Emit(OpSpec spec) {
  switch (spec.op) {
    case Op::kGetAttr:
    case Op::kLookup:
    case Op::kReadDir:
    case Op::kSetAttr:
      break;
    default:
      mutations_.push_back(spec);
  }
  return spec;
}

OpSpec ClientGen::Next() {
  switch (layout_.workload) {
    case Workload::kReadMix: return NextReadMix();
    case Workload::kSharedDirWrites: return NextSharedDir();
    case Workload::kRenameMix: return NextRenameMix();
  }
  return {};
}

OpSpec ClientGen::NextReadMix() {
  Op op = kReadMixOps[ReadMixChoice().Next(rng_)];
  // Mutations touch only what this client created; until it owns
  // something, a mutation becomes the op that creates it.
  if ((op == Op::kSetAttr || op == Op::kUnlink || op == Op::kRename) &&
      own_files_.empty()) {
    op = Op::kCreate;
    substitutions_++;
  } else if (op == Op::kRmdir && own_dirs_.empty()) {
    op = Op::kMkdir;
    substitutions_++;
  }
  uint64_t file = PickHotFile();
  std::string leaf = LeafOfFile(file);
  switch (op) {
    case Op::kGetAttr:
    case Op::kLookup:
      return Emit(
          {op, leaf + "/f" + std::to_string(file % layout_.files_per_leaf), ""});
    case Op::kReadDir:
      return Emit({op, leaf, ""});
    case Op::kSetAttr:
      return Emit({op, own_files_[rng_.Uniform(own_files_.size())], ""});
    case Op::kCreate: {
      std::string path = leaf + "/" + NewName("c");
      own_files_.push_back(path);
      return Emit({op, path, ""});
    }
    case Op::kUnlink:
      return Emit({op, TakeRandom(&own_files_, rng_), ""});
    case Op::kRename: {
      size_t i = rng_.Uniform(own_files_.size());
      std::string from = own_files_[i];
      own_files_[i] = Parent(from) + "/" + NewName("c");
      return Emit({op, from, own_files_[i]});
    }
    case Op::kMkdir: {
      std::string path = leaf + "/" + NewName("m");
      own_dirs_.push_back(path);
      return Emit({op, path, ""});
    }
    case Op::kRmdir:
      return Emit({op, TakeRandom(&own_dirs_, rng_), ""});
    default:
      break;
  }
  return {};
}

OpSpec ClientGen::NextSharedDir() {
  Op op = kSharedDirOps[SharedDirChoice().Next(rng_)];
  if ((op == Op::kUnlink || op == Op::kSetAttr) && own_files_.empty()) {
    op = Op::kCreate;
    substitutions_++;
  } else if (op == Op::kRmdir && own_dirs_.empty()) {
    op = Op::kMkdir;
    substitutions_++;
  }
  switch (op) {
    case Op::kCreate: {
      std::string path = "/shared/" + NewName("c");
      own_files_.push_back(path);
      return Emit({op, path, ""});
    }
    case Op::kUnlink:
      return Emit({op, TakeRandom(&own_files_, rng_), ""});
    case Op::kMkdir: {
      std::string path = "/shared/" + NewName("m");
      own_dirs_.push_back(path);
      return Emit({op, path, ""});
    }
    case Op::kRmdir:
      return Emit({op, TakeRandom(&own_dirs_, rng_), ""});
    case Op::kSetAttr:
      return Emit({op, own_files_[rng_.Uniform(own_files_.size())], ""});
    default:
      break;
  }
  return {};
}

OpSpec ClientGen::NextRenameMix() {
  Op op = kRenameMixOps[RenameMixChoice().Next(rng_)];
  if (op == Op::kRenameDir) {
    size_t i = rng_.Uniform(own_subdirs_.size());
    std::string from = own_subdirs_[i];
    const std::string& to_dir = Parent(from) == dir_a_ ? dir_b_ : dir_a_;
    own_subdirs_[i] = to_dir + "/" + NewName("g");
    return Emit({op, from, own_subdirs_[i]});
  }
  size_t i = rng_.Uniform(own_files_.size());
  std::string from = own_files_[i];
  std::string dir = Parent(from);
  if (op == Op::kRenameCross) dir = dir == dir_a_ ? dir_b_ : dir_a_;
  own_files_[i] = dir + "/" + NewName("r");
  return Emit({op, from, own_files_[i]});
}

// ---------------------------------------------------------------------------
// Execution

namespace {

// Executes one op against `client` under `root`; checks what a successful
// call returns (attribute type, listing non-empty where it must be).
Status Execute(MetadataClient* client, const std::string& root,
               const OpSpec& spec) {
  const std::string path = Full(root, spec.path);
  switch (spec.op) {
    case Op::kGetAttr:
    case Op::kLookup: {
      auto info = spec.op == Op::kGetAttr ? client->GetAttr(path)
                                          : client->Lookup(path);
      if (!info.ok()) return info.status();
      if (info->type != cfs::InodeType::kFile) {
        return Status::Internal("not a file: " + path);
      }
      return Status::Ok();
    }
    case Op::kSetAttr: {
      cfs::SetAttrSpec attr;
      attr.mtime = 4242;
      return client->SetAttr(path, attr);
    }
    case Op::kCreate:
      return client->Create(path, 0644);
    case Op::kUnlink:
      return client->Unlink(path);
    case Op::kReadDir: {
      auto listing = client->ReadDir(path);
      if (!listing.ok()) return listing.status();
      // Every listed directory holds population files that never leave.
      if (listing->empty()) return Status::Internal("empty listing: " + path);
      return Status::Ok();
    }
    case Op::kRename:
    case Op::kRenameCross:
    case Op::kRenameDir:
      return client->Rename(path, Full(root, spec.path2));
    case Op::kMkdir:
      return client->Mkdir(path, 0755);
    case Op::kRmdir:
      return client->Rmdir(path);
  }
  return Status::Internal("unknown op");
}

// ---------------------------------------------------------------------------
// Options

cfs::CfsOptions WallOptions(size_t dentry_cache_capacity) {
  // The fig benches' bench scale: 8 servers, 8 TafDB shards and 8
  // FileStore nodes, 150 µs cross-node RTT, 30 µs WAL fsync.
  cfs::CfsOptions o = cfs::CfsFullOptions();
  o.num_servers = 8;
  o.dentry_cache_capacity = dentry_cache_capacity;
  o.net.mode = cfs::LatencyMode::kSleep;
  o.net.cross_node_rtt_us = 150;
  o.net.same_node_rtt_us = 5;
  o.net.jitter_pct = 10;
  cfs::RaftOptions raft;
  raft.election_timeout_min_ms = 400;
  raft.election_timeout_max_ms = 800;
  raft.heartbeat_interval_ms = 100;
  raft.wal.fsync_delay_us = 30;
  o.tafdb.num_shards = 8;
  o.tafdb.range_stripe_width = 4;
  o.tafdb.raft = raft;
  o.filestore.num_nodes = 8;
  o.filestore.raft = raft;
  o.renamer.raft = raft;
  o.gc_interval_ms = 500;
  return o;
}

cfs::CfsOptions SimOptions(size_t dentry_cache_capacity, uint64_t seed) {
  cfs::CfsOptions o = WallOptions(dentry_cache_capacity);
  o.net.mode = cfs::LatencyMode::kVirtual;
  o.net.seed = seed;
  o.tafdb.raft.inline_replication = true;
  o.filestore.raft.inline_replication = true;
  o.renamer.raft.inline_replication = true;
  o.start_gc = false;
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// Read-outs

Counters Counters::Read() {
  static const std::vector<cfs::Counter*> counters = [] {
    std::vector<cfs::Counter*> out;
    for (const char* name : kNames) {
      out.push_back(cfs::MetricsRegistry::Global().GetCounter(name));
    }
    return out;
  }();
  Counters c;
  for (size_t i = 0; i < kCount; i++) c.v[i] = counters[i]->value();
  return c;
}

uint64_t Counters::Get(const char* name) const {
  for (size_t i = 0; i < kCount; i++) {
    if (std::string_view(kNames[i]) == name) return v[i];
  }
  std::fprintf(stderr, "perfbench: unknown counter %s\n", name);
  std::abort();
}

Counters Counters::Minus(const Counters& base) const {
  Counters out;
  for (size_t i = 0; i < kCount; i++) out.v[i] = v[i] - base.v[i];
  return out;
}

Snapshot Snapshot::Take(Cfs* fs) {
  Snapshot s;
  s.counters = Counters::Read();
  s.net_calls = fs->net()->TotalCalls();
  s.net_injected_us = fs->net()->TotalInjectedLatencyUs();
  for (size_t i = 0; i < fs->tafdb()->num_shards(); i++) {
    s.shard_calls.push_back(
        fs->net()->CallsTo(fs->tafdb()->shard(i)->ServiceNetId()));
  }
  for (size_t i = 0; i < fs->filestore()->num_nodes(); i++) {
    s.fs_calls.push_back(
        fs->net()->CallsTo(fs->filestore()->node(i)->ServiceNetId()));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.user_us = ru.ru_utime.tv_sec * 1000000LL + ru.ru_utime.tv_usec;
  s.sys_us = ru.ru_stime.tv_sec * 1000000LL + ru.ru_stime.tv_usec;
  s.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return s;
}

// ---------------------------------------------------------------------------
// Shared helpers

namespace {

// The run root for a leg: a nonce derived from the seed and the leg, so
// every created path is unique to its run yet replays from the seed.
// Names below it carry the creating client and its op sequence number.
std::string RunRoot(uint64_t seed, const char* leg) {
  uint64_t state = seed ^ std::hash<std::string_view>{}(leg);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/pb-%s-%016llx", leg,
                static_cast<unsigned long long>(cfs::SplitMix64(state)));
  return buf;
}

NamespaceModel ExpectedNamespace(const Layout& layout,
                                 const std::vector<ClientGen>& gens) {
  NamespaceModel model;
  model.AddDir("/");
  Population pop = MakePopulation(layout);
  for (const std::string& d : pop.dirs) model.AddDir(d);
  for (const std::string& f : pop.files) model.AddFile(f);
  for (const ClientGen& gen : gens) {
    for (const OpSpec& spec : gen.mutations()) model.Apply(spec);
  }
  return model;
}

// The checks WallLeg::Audit describes, split across `clients` (one thread
// each), or run on the calling thread with clients[0] when `serial` — the
// virtual leg runs them inside one scheduler task.
std::string AuditNamespace(const std::vector<MetadataClient*>& clients,
                           const std::string& root,
                           const NamespaceModel& model, bool serial) {
  struct Check {
    bool dir;
    const std::string* path;
    const std::set<std::string>* children;
  };
  std::vector<Check> checks;
  for (const auto& [path, children] : model.dirs()) {
    checks.push_back({true, &path, &children});
  }
  for (const std::string& f : model.files()) {
    checks.push_back({false, &f, nullptr});
  }

  std::mutex mu;
  std::string first;
  auto fail = [&](std::string msg) {
    std::lock_guard<std::mutex> lock(mu);
    if (first.empty()) first = std::move(msg);
  };
  auto run = [&](MetadataClient* client, size_t begin, size_t stride) {
    for (size_t i = begin; i < checks.size(); i += stride) {
      const Check& c = checks[i];
      const std::string path = Full(root, *c.path);
      auto attr = client->GetAttr(path);
      if (!attr.ok()) {
        fail("getattr " + path + ": " + attr.status().ToString());
        continue;
      }
      if (!c.dir) {
        if (attr->type != cfs::InodeType::kFile) fail("not a file: " + path);
        continue;
      }
      auto listing = client->ReadDir(path);
      if (!listing.ok()) {
        fail("readdir " + path + ": " + listing.status().ToString());
        continue;
      }
      if (attr->children != static_cast<int64_t>(listing->size())) {
        fail("children " + std::to_string(attr->children) + " != readdir " +
             std::to_string(listing->size()) + " at " + path);
        continue;
      }
      std::set<std::string> names;
      for (const cfs::DirEntry& e : *listing) names.insert(e.name);
      if (names != *c.children) {
        fail("listing of " + path + " has " + std::to_string(names.size()) +
             " names, expected " + std::to_string(c.children->size()));
      }
    }
  };
  if (serial) {
    run(clients[0], 0, 1);
  } else {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < clients.size(); t++) {
      threads.emplace_back(run, clients[t], t, clients.size());
    }
    for (auto& th : threads) th.join();
  }
  return first;
}

}  // namespace

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

std::vector<ClientGen> MakeGens(const Layout& layout, uint64_t seed) {
  std::shared_ptr<HotSet> hot;
  if (layout.workload == Workload::kReadMix) hot = MakeHotSet(layout, seed);
  std::vector<ClientGen> gens;
  gens.reserve(layout.clients);
  for (size_t c = 0; c < layout.clients; c++) {
    gens.emplace_back(layout, seed, c, hot);
  }
  return gens;
}

// Creates the population under `root` with `clients` (directories by the
// first client, in order; files split across all of them).
Status Populate(const std::vector<MetadataClient*>& clients,
                const std::string& root, const Population& pop,
                bool parallel) {
  Status st = clients[0]->Mkdir(root, 0755);
  if (!st.ok()) return st;
  for (const std::string& d : pop.dirs) {
    st = clients[0]->Mkdir(root + d, 0755);
    if (!st.ok()) return st;
  }
  std::mutex mu;
  Status first = Status::Ok();
  auto run = [&](MetadataClient* client, size_t begin, size_t stride) {
    for (size_t i = begin; i < pop.files.size(); i += stride) {
      Status s = client->Create(root + pop.files[i], 0644);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first.ok()) first = s;
        return;
      }
    }
  };
  if (!parallel) {
    run(clients[0], 0, 1);
    return first;
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients.size(); t++) {
    threads.emplace_back(run, clients[t], t, clients.size());
  }
  for (auto& th : threads) th.join();
  return first;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wall leg

WallLeg::WallLeg(const Layout& layout, uint64_t seed, size_t cache_capacity)
    : layout_(layout), seed_(seed), cache_capacity_(cache_capacity) {}

WallLeg::~WallLeg() {
  clients_.clear();
  if (fs_ != nullptr) fs_->Stop();
}

double WallLeg::Setup() {
  clients_.clear();
  if (fs_ != nullptr) fs_->Stop();
  fs_.reset();
  root_ = RunRoot(seed_, "wall");
  int64_t start = NowNs();
  fs_ = std::make_unique<Cfs>(WallOptions(cache_capacity_));
  Status st = fs_->Start();
  if (!st.ok()) Die("cluster start: " + st.ToString());
  const int64_t booted = NowNs();
  {
    // Separate clients, so the measured clients start with cold caches.
    std::vector<std::unique_ptr<MetadataClient>> setup;
    std::vector<MetadataClient*> raw;
    for (size_t i = 0; i < layout_.clients; i++) {
      setup.push_back(fs_->NewClient());
      raw.push_back(setup.back().get());
    }
    st = Populate(raw, root_, MakePopulation(layout_), /*parallel=*/true);
    if (!st.ok()) Die("populate: " + st.ToString());
  }
  const int64_t end = NowNs();
  std::fprintf(stderr, "perfbench: wall setup: boot %.3f s, populate %.3f s\n",
               static_cast<double>(booted - start) / 1e9,
               static_cast<double>(end - booted) / 1e9);
  for (size_t i = 0; i < layout_.clients; i++) {
    clients_.push_back(fs_->NewClient());
  }
  gens_ = MakeGens(layout_, seed_);
  return static_cast<double>(end - start) / 1e9;
}

Window WallLeg::Run(double warmup_s, double measure_s, bool traced) {
  // 0 = warm-up, 1 = measuring, 2 = stop. An op belongs to the phase it
  // started in.
  std::atomic<int> phase{0};
  std::atomic<uint64_t> done{0};  // successful measured ops
  struct PerThread {
    uint64_t attempted = 0, failed = 0;
    std::vector<Sample> samples;
    std::vector<TracedOp> traced;
    std::string first_error;
  };
  std::vector<PerThread> per(clients_.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients_.size(); t++) {
    threads.emplace_back([&, t] {
      PerThread& me = per[t];
      MetadataClient* client = clients_[t].get();
      ClientGen& gen = gens_[t];
      uint64_t local_seq = 0;
      for (;;) {
        int ph = phase.load(std::memory_order_relaxed);
        if (ph == 2) break;
        OpSpec spec = gen.Next();
        bool trace_op = traced && ph == 1;
        if (trace_op) {
          cfs::OpTrace::Begin(OpName(spec.op));
          cfs::SimNet::ResetThreadHops();
        }
        int64_t t0 = NowNs();
        Status st = Execute(client, root_, spec);
        int64_t t1 = NowNs();
        if (!st.ok() && me.first_error.empty()) {
          me.first_error = std::string(OpName(spec.op)) + " " + spec.path +
                           ": " + st.ToString();
        }
        if (trace_op) {
          TracedOp op;
          op.phases = cfs::OpTrace::Finish();
          op.hops = cfs::SimNet::ThreadHops();
          op.trace_id = (static_cast<uint64_t>(t) << 48) | local_seq++;
          op.op = spec.op;
          op.start_ns = t0;
          op.end_ns = t1;
          if (st.ok()) me.traced.push_back(op);
        }
        if (ph == 1) {
          me.attempted++;
          if (st.ok()) {
            done.fetch_add(1, std::memory_order_relaxed);
            me.samples.push_back({spec.op, t1 - t0});
          } else {
            me.failed++;
          }
        }
      }
    });
  }
  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep_s(warmup_s);
  Window w;
  w.before = Snapshot::Take(fs_.get());
  int64_t start = NowNs();
  phase.store(1);
  constexpr double kSliceS = 0.5;
  int64_t slice_cpu = w.before.user_us + w.before.sys_us;
  uint64_t slice_ops = 0;
  for (double left = measure_s; left > 0; left -= kSliceS) {
    sleep_s(std::min(left, kSliceS));
    Snapshot now = Snapshot::Take(fs_.get());
    uint64_t ops = done.load(std::memory_order_relaxed);
    if (ops > slice_ops) {
      w.cpu_us_per_op_slices.push_back(
          static_cast<double>(now.user_us + now.sys_us - slice_cpu) /
          static_cast<double>(ops - slice_ops));
    }
    slice_cpu = now.user_us + now.sys_us;
    slice_ops = ops;
  }
  phase.store(2);
  w.seconds = static_cast<double>(NowNs() - start) / 1e9;
  for (auto& th : threads) th.join();
  w.after = Snapshot::Take(fs_.get());
  for (PerThread& me : per) {
    w.attempted += me.attempted;
    w.failed += me.failed;
    w.samples.insert(w.samples.end(), me.samples.begin(), me.samples.end());
    w.traced.insert(w.traced.end(), me.traced.begin(), me.traced.end());
    if (w.first_error.empty()) w.first_error = me.first_error;
  }
  return w;
}

double WallLeg::SleepOvershoot(size_t calls) {
  std::vector<int64_t> measured(clients_.size()), injected(clients_.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients_.size(); t++) {
    threads.emplace_back([&, t] {
      auto* engine = dynamic_cast<CfsEngine*>(clients_[t].get());
      if (engine == nullptr) Die("client is not a CfsEngine");
      cfs::OpTrace::ClearPhase(cfs::Phase::kRpc);
      int64_t start = NowNs();
      for (size_t i = 0; i < calls; i++) {
        cfs::NodeId to =
            fs_->tafdb()->shard(i % fs_->tafdb()->num_shards())->ServiceNetId();
        (void)fs_->net()->Call(engine->self(), to,
                               [] { return Status::Ok(); });
      }
      measured[t] = NowNs() - start;
      injected[t] = cfs::OpTrace::PhaseUs(cfs::Phase::kRpc) * 1000;
    });
  }
  for (auto& th : threads) th.join();
  int64_t m = 0, i = 0;
  for (size_t t = 0; t < clients_.size(); t++) {
    m += measured[t];
    i += injected[t];
  }
  return i > 0 ? static_cast<double>(m) / static_cast<double>(i) : 0;
}

std::string WallLeg::Audit() {
  std::vector<std::unique_ptr<MetadataClient>> auditors;
  std::vector<MetadataClient*> raw;
  for (size_t i = 0; i < layout_.clients; i++) {
    auditors.push_back(fs_->NewClient());
    raw.push_back(auditors.back().get());
  }
  return AuditNamespace(raw, root_, ExpectedNamespace(layout_, gens_),
                        /*serial=*/false);
}

// ---------------------------------------------------------------------------
// Virtual-time leg

SimLeg::SimLeg(const Layout& layout, uint64_t seed, size_t cache_capacity)
    : layout_(layout), seed_(seed), cache_capacity_(cache_capacity) {}

SimLeg::~SimLeg() {
  if (sched_ != nullptr) (void)sched_->CancelPending();
  clients_.clear();
  if (fs_ != nullptr) fs_->Stop();
}

double SimLeg::Setup() {
  root_ = RunRoot(seed_, "sim");
  int64_t start = NowNs();
  fs_ = std::make_unique<Cfs>(SimOptions(cache_capacity_, seed_));
  Status st = fs_->Start();
  if (!st.ok()) Die("sim cluster start: " + st.ToString());
  sched_ = std::make_unique<cfs::simtime::Scheduler>(seed_);
  // Population runs as one scheduler task, so its modelled delays accrue
  // on the virtual clock instead of being slept.
  auto setup = fs_->NewClient();
  Population pop = MakePopulation(layout_);
  sched_->At(0, [&] {
    st = Populate({setup.get()}, root_, pop, /*parallel=*/false);
  });
  sched_->RunUntil(1);
  if (!st.ok()) Die("sim populate: " + st.ToString());
  for (size_t i = 0; i < layout_.clients; i++) {
    clients_.push_back(fs_->NewClient());
  }
  gens_ = MakeGens(layout_, seed_);
  return static_cast<double>(NowNs() - start) / 1e9;
}

SimLeg::Result SimLeg::Run(int64_t window_ms, double host_budget_s,
                           size_t min_windows, size_t max_windows,
                           bool record, std::vector<SimOpRecord>* records) {
  cfs::simtime::Scheduler& sched = *sched_;
  bool measuring = false;
  uint64_t dispatched = 0;
  Result result;
  Window& w = result.totals;

  std::function<void(size_t)> step = [&](size_t t) {
    OpSpec spec = gens_[t].Next();
    const int64_t start_us = sched.task_now_us();
    Counters before;
    if (record && measuring) {
      before = Counters::Read();
      cfs::SimNet::ResetThreadHops();
    }
    Status st = Execute(clients_[t].get(), root_, spec);
    // An unlink hands the attribute delete to FileStore's async pool, which
    // runs on real threads and would race the scheduler for the raft log
    // (its group commit changes how many fsyncs a later op pays). Waiting
    // for it keeps virtual time a function of the seed alone.
    if (spec.op == Op::kUnlink) fs_->filestore()->DrainAsync();
    const int64_t virtual_ns = (sched.task_now_us() - start_us) * 1000;
    if (!st.ok() && w.first_error.empty()) {
      w.first_error = std::string(OpName(spec.op)) + " " + spec.path + ": " +
                      st.ToString();
    }
    if (measuring) {
      dispatched++;
      w.attempted++;
      if (st.ok()) {
        w.samples.push_back({spec.op, virtual_ns});
      } else {
        w.failed++;
      }
      if (record) {
        Counters d = Counters::Read().Minus(before);
        records->push_back(SimOpRecord{
            spec.op, spec.path + (spec.path2.empty() ? "" : " " + spec.path2),
            virtual_ns, cfs::SimNet::ThreadHops(), d.Get("tafdb.primitives"),
            d.Get("tafdb.reads"), d.Get("dentry_cache.hit"),
            d.Get("lockmgr.acquisitions"), d.Get("renamer.renames")});
      }
    }
    sched.At(sched.task_now_us(), [&step, t] { step(t); });
  };
  const int64_t begin_us = sched.now_us();
  for (size_t t = 0; t < clients_.size(); t++) {
    sched.At(begin_us, [&step, t] { step(t); });
  }
  // Warm-up window: caches fill, id/timestamp batches are fetched.
  int64_t deadline = begin_us + window_ms * 1000;
  sched.RunUntil(deadline);

  measuring = true;
  w.before = Snapshot::Take(fs_.get());
  size_t windows = 0;
  while (windows < max_windows &&
         (windows < min_windows || result.host_seconds < host_budget_s)) {
    uint64_t ops_before = dispatched;
    int64_t h0 = NowNs();
    deadline += window_ms * 1000;
    sched.RunUntil(deadline);
    double host_s = static_cast<double>(NowNs() - h0) / 1e9;
    result.host_seconds += host_s;
    uint64_t ops = dispatched - ops_before;
    result.host_us_per_op.push_back(ops > 0 ? host_s * 1e6 / ops : 0);
    windows++;
  }
  // Queued steps reference this frame.
  (void)sched.CancelPending();
  w.after = Snapshot::Take(fs_.get());
  w.seconds = static_cast<double>(windows * window_ms) / 1000.0;
  return result;
}

std::string SimLeg::Audit() {
  auto auditor = fs_->NewClient();
  std::string out;
  NamespaceModel model = ExpectedNamespace(layout_, gens_);
  int64_t now = sched_->now_us();
  sched_->At(now, [&] {
    out = AuditNamespace({auditor.get()}, root_, model, /*serial=*/true);
  });
  sched_->RunUntil(now + 1);
  return out;
}

}  // namespace perfbench
