// Corpus: bare assert(), raw std types and the thread-safety escape hatch in
// src/.
#include <cassert>
#include <mutex>

namespace cfs {

static_assert(sizeof(int) >= 2, "static_assert is not a bare assert");

void Check(int x) {
  assert(x > 0);
  assert(x > 1);  // like assert(y)
  // assert(x) in a comment is prose.
  CFS_CHECK(x > 2);
  my_assert(x > 3);
}

std::mutex raw_mu;

void Unchecked() NO_THREAD_SAFETY_ANALYSIS;

}  // namespace cfs
