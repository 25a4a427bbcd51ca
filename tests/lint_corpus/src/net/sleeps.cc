// Corpus: a modelled delay must sleep through simtime::SleepUs.
#include <chrono>
#include <thread>

namespace cfs {

void InjectRtt(int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
  // std::this_thread::sleep_for(std::chrono::microseconds(us)) is prose here.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // a backoff
  simtime::SleepUs(us);
}

}  // namespace cfs
