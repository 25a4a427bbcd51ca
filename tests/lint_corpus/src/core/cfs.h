// Corpus: one CfsOptions field README.md documents and one it does not.
#pragma once

#include <cstddef>

namespace cfs {

struct CfsOptions {
  bool documented_knob = true;
  // undocumented_knob below is not in README.md.
  size_t undocumented_knob = 8;
};

}  // namespace cfs
