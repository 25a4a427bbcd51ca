// Corpus: kZero is documented in DESIGN.md section 11; kSleep is not.
#pragma once

namespace cfs {

enum class LatencyMode {
  kZero,
  kSleep,
};

}  // namespace cfs
