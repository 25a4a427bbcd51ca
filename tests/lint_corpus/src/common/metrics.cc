// Corpus: PhaseName returns alpha and beta; DESIGN.md lists alpha and gamma.
namespace cfs {

std::string_view PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kAlpha:
      return "alpha";
    case Phase::kBeta:
      return "beta";
  }
  return "unknown";
}

}  // namespace cfs
