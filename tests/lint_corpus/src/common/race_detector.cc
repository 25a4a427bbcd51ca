// Corpus: two race-audit knobs are read. README.md documents both, DESIGN.md
// section 12 only the first. The macro below is not quoted, so it is not a
// knob.
#include <cstdlib>

#define CFS_RACE_MACRO 1

namespace cfs {

const char* Detect() { return std::getenv("CFS_RACE_DETECT"); }
const char* Undocumented() { return std::getenv("CFS_RACE_UNDOC"); }

}  // namespace cfs
