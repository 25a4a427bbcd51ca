// Corpus: Status keeps [[nodiscard]]; StatusOr lost it (a nodiscard finding).
#pragma once

namespace cfs {

class [[nodiscard]] Status {};

template <typename T>
class StatusOr {};

}  // namespace cfs
