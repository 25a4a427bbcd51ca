// Corpus: allowlisted for raw-std-sync, so the raw type is not a finding.
#include <mutex>

namespace cfs {

std::mutex tracker_mu;

}  // namespace cfs
