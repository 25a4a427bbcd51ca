// Corpus: tests/ is checked for the thread-safety escape hatch and for escape
// markers only. Raw std types and assert() are allowed here.
#include <cassert>
#include <mutex>

namespace cfs {

std::mutex test_mu;

void Helper() NO_THREAD_SAFETY_ANALYSIS;

void Check(int x) { assert(x > 0); }

int knob;  // tsa-coverage: allow()

}  // namespace cfs
