// Corpus: CategoryName returns op and gc; DESIGN.md lists op only.
namespace cfs {

const char* CategoryName(Category category) {
  switch (category) {
    case Category::kOp:
      return "op";
    case Category::kGc:
      return "gc";
  }
  return "unknown";
}

}  // namespace cfs
