#include "src/wal/wal.h"

#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/encoding.h"
#include "src/common/metrics.h"
#include "src/common/race_detector.h"
#include "src/common/simtime.h"

namespace cfs {
namespace {

struct WalMetrics {
  Counter* appends;
  Counter* synced_appends;
  Counter* fsync_us;
};

WalMetrics& Metrics() {
  static WalMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return WalMetrics{r.GetCounter("wal.appends"),
                      r.GetCounter("wal.synced_appends"),
                      r.GetCounter("wal.fsync_us")};
  }();
  return m;
}

}  // namespace

Wal::Wal(WalOptions options) : options_(std::move(options)) {}

Wal::~Wal() {
  MutexLock lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Status Wal::Open() {
  MutexLock lock(mu_);
  if (options_.path.empty()) return Status::Ok();
  file_ = std::fopen(options_.path.c_str(), "ab+");
  if (file_ == nullptr) {
    return Status::IoError("cannot open wal file: " + options_.path);
  }
  return Status::Ok();
}

StatusOr<uint64_t> Wal::Append(std::string_view record, bool sync) {
  uint64_t lsn;
  {
    MutexLock lock(mu_);
    CFS_SHARED_WRITE(window_, mu_);
    lsn = next_lsn_++;
    window_.emplace_back(record);
    while (window_.size() > options_.memory_window) {
      window_.pop_front();
      window_base_++;
    }
    if (file_ != nullptr) {
      Status st = AppendToFileLocked(record);
      if (!st.ok()) return st;
      if (sync && options_.real_fsync) {
        std::fflush(file_);
        fdatasync(fileno(file_));
      }
    }
    if (sync) synced_appends_++;
  }
  Metrics().appends->Add();
  if (sync) Metrics().synced_appends->Add();
  if (sync && options_.fsync_delay_us > 0) {
    TraceSpan span(Phase::kWalFsync);
    Metrics().fsync_us->Add(static_cast<uint64_t>(options_.fsync_delay_us));
    // Preemption point for schedule fuzzing: the fsync yield is where a
    // committing task's timing slides against concurrent committers.
    simtime::FuzzPoint(simtime::FuzzKind::kWalFsync);
    simtime::AdvanceOrSleepUs(options_.fsync_delay_us);
  }
  return lsn;
}

Status Wal::AppendToFileLocked(std::string_view record) {
  std::string frame;
  PutFixed32(&frame, Crc32c(record));
  PutVarint64(&frame, record.size());
  frame.append(record.data(), record.size());
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return Status::IoError("wal write failed");
  }
  return Status::Ok();
}

Status Wal::Replay(
    const std::function<void(uint64_t lsn, std::string_view record)>& fn) {
  MutexLock lock(mu_);
  if (file_ == nullptr) {
    // Memory-only: replay the window.
    uint64_t lsn = window_base_;
    // Copy out so fn may call back into this WAL.
    std::vector<std::string> records(window_.begin(), window_.end());
    lock.Unlock();
    for (const auto& r : records) {
      fn(lsn++, r);
    }
    return Status::Ok();
  }
  std::fflush(file_);
  std::fseek(file_, 0, SEEK_END);
  long size = std::ftell(file_);
  std::string buf;
  buf.resize(static_cast<size_t>(size));
  std::fseek(file_, 0, SEEK_SET);
  if (size > 0 &&
      std::fread(buf.data(), 1, buf.size(), file_) != buf.size()) {
    std::fseek(file_, 0, SEEK_END);
    return Status::IoError("wal read failed");
  }
  std::fseek(file_, 0, SEEK_END);
  lock.Unlock();

  Decoder dec(buf);
  uint64_t lsn = 0;
  while (!dec.empty()) {
    uint32_t crc;
    uint64_t len;
    if (!dec.GetFixed32(&crc) || !dec.GetVarint64(&len) ||
        dec.remaining() < len) {
      break;  // torn tail: stop cleanly
    }
    std::string_view payload = dec.rest().substr(0, len);
    if (Crc32c(payload) != crc) {
      break;  // corrupt frame: stop
    }
    fn(lsn++, payload);
    dec = Decoder(dec.rest().substr(len));
  }
  return Status::Ok();
}

uint64_t Wal::NextLsn() const {
  MutexLock lock(mu_);
  return next_lsn_;
}

Status Wal::CorruptTailForTest(size_t bytes) {
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::InvalidArgument("memory-only wal");
  std::fflush(file_);
  std::fseek(file_, 0, SEEK_END);
  long size = std::ftell(file_);
  long new_size = size > static_cast<long>(bytes) ? size - static_cast<long>(bytes) : 0;
  if (ftruncate(fileno(file_), new_size) != 0) {
    return Status::IoError("ftruncate failed");
  }
  std::fseek(file_, 0, SEEK_END);
  return Status::Ok();
}

}  // namespace cfs
