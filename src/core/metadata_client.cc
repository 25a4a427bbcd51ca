#include "src/core/metadata_client.h"

namespace cfs {

StatusOr<std::vector<std::string>> SplitPath(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: " + path);
  }
  std::vector<std::string> parts;
  size_t i = 1;
  while (i < path.size()) {
    size_t j = path.find('/', i);
    if (j == std::string::npos) j = path.size();
    if (j > i) {
      std::string component = path.substr(i, j - i);
      if (component == "." || component == "..") {
        return Status::InvalidArgument("'.'/'..' not supported: " + path);
      }
      if (component == kAttrKeyStr) {
        return Status::InvalidArgument("reserved name");
      }
      parts.push_back(std::move(component));
    }
    i = j + 1;
  }
  return parts;
}

StatusOr<std::pair<std::string, std::string>> SplitParent(
    const std::string& path) {
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) {
    return Status::InvalidArgument("root has no parent");
  }
  std::string name = parts->back();
  std::string parent = "/";
  for (size_t i = 0; i + 1 < parts->size(); i++) {
    if (parent.size() > 1) parent += '/';
    parent += (*parts)[i];
  }
  return std::make_pair(parent, name);
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  return (dir == "/" ? std::string() : dir) + "/" + name;
}

}  // namespace cfs
