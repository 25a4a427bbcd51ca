// Corpus: the one file allowed to sleep for a modelled delay.
#include <chrono>
#include <thread>

namespace cfs {
namespace simtime {

void SleepUs(int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace simtime
}  // namespace cfs
