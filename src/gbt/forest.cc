#include "gbt/forest.h"

#include "common/string_util.h"
#include "common/text_format.h"

namespace t3 {

double PredictTree(const Tree& tree, const double* row) {
  int index = 0;
  while (true) {
    const TreeNode& node = tree.nodes[static_cast<size_t>(index)];
    if (node.is_leaf) return node.value;
    index = GoesLeft(node, row[node.feature]) ? node.left : node.right;
  }
}

double Forest::Predict(const double* row) const {
  double sum = base_score;
  for (const Tree& tree : trees) sum += PredictTree(tree, row);
  return sum;
}

size_t Forest::NumNodes() const {
  size_t n = 0;
  for (const Tree& tree : trees) n += tree.nodes.size();
  return n;
}

size_t Forest::NumLeaves() const {
  size_t n = 0;
  for (const Tree& tree : trees) {
    for (const TreeNode& node : tree.nodes) n += node.is_leaf ? 1 : 0;
  }
  return n;
}

std::vector<int> FeatureSplitCounts(const Forest& forest) {
  std::vector<int> counts(static_cast<size_t>(forest.num_features), 0);
  for (const Tree& tree : forest.trees) {
    for (const TreeNode& node : tree.nodes) {
      if (node.is_leaf) continue;
      if (node.feature >= 0 && node.feature < static_cast<int>(counts.size())) {
        ++counts[static_cast<size_t>(node.feature)];
      }
    }
  }
  return counts;
}

std::string Forest::ToText() const {
  std::string out;
  out.reserve(64 + NumNodes() * 48);
  out += "t3gbt v1\n";
  out += StrFormat("num_features %d\n", num_features);
  out += "base_score ";
  AppendExactDouble(&out, base_score);
  out += "\n";
  out += StrFormat("num_trees %zu\n", trees.size());
  for (const Tree& tree : trees) {
    out += StrFormat("tree %zu\n", tree.nodes.size());
    for (const TreeNode& node : tree.nodes) {
      if (node.is_leaf) {
        out += "1 -1 0 -1 -1 ";
        AppendExactDouble(&out, node.value);
      } else {
        out += "0 ";
        out += StrFormat("%d ", node.feature);
        AppendExactDouble(&out, node.threshold);
        out += StrFormat(" %d %d %d", node.left, node.right,
                         node.default_left ? 1 : 0);
      }
      out += "\n";
    }
  }
  return out;
}

Result<Forest> Forest::FromText(std::string_view text) {
  Result<Forest> forest = ParseTextUnvalidated(text);
  if (!forest.ok()) return forest.status();
  Status valid = forest->Validate();
  if (!valid.ok()) return valid;
  return forest;
}

Result<Forest> Forest::ParseTextUnvalidated(std::string_view text) {
  TextReader reader(text);
  std::string_view token = reader.Token();
  // Model files wrap the forest with a one-line T3 model header; skip it so
  // Forest::LoadFromFile works on data/model_*.txt directly.
  if (token == "t3model") {
    if (reader.Token() != "target") {
      return InvalidArgumentError("t3model header: expected 'target'");
    }
    int64_t ignored = 0;
    if (!reader.Int(&ignored)) {
      return InvalidArgumentError("t3model header: missing target id");
    }
    token = reader.Token();
  }
  if (token != "t3gbt" || reader.Token() != "v1") {
    return InvalidArgumentError("not a t3gbt v1 forest file");
  }

  Forest forest;
  if (reader.Token() != "num_features") {
    return InvalidArgumentError("expected num_features");
  }
  if (!reader.Int(&forest.num_features) || forest.num_features <= 0) {
    return InvalidArgumentError("bad num_features");
  }
  if (reader.Token() != "base_score" || !reader.Double(&forest.base_score)) {
    return InvalidArgumentError("bad base_score");
  }
  size_t num_trees = 0;
  if (reader.Token() != "num_trees" || !reader.Count(&num_trees)) {
    return InvalidArgumentError("bad num_trees");
  }

  forest.trees.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    if (reader.Token() != "tree") {
      return InvalidArgumentError(StrFormat("tree %zu: missing header", t));
    }
    size_t num_nodes = 0;
    if (!reader.Count(&num_nodes) || num_nodes == 0) {
      return InvalidArgumentError(StrFormat("tree %zu: bad node count", t));
    }
    Tree tree;
    tree.nodes.resize(num_nodes);
    for (size_t n = 0; n < num_nodes; ++n) {
      TreeNode& node = tree.nodes[n];
      int64_t is_leaf = 0;
      if (!reader.Int(&is_leaf) || !reader.Int(&node.feature) ||
          !reader.Double(&node.threshold) || !reader.Int(&node.left) ||
          !reader.Int(&node.right)) {
        return InvalidArgumentError(
            StrFormat("tree %zu node %zu: malformed", t, n));
      }
      node.is_leaf = is_leaf != 0;
      if (node.is_leaf) {
        if (!reader.Double(&node.value)) {
          return InvalidArgumentError("leaf: missing value");
        }
      } else {
        int64_t default_left = 0;
        if (!reader.Int(&default_left)) {
          return InvalidArgumentError("inner node: missing default_left");
        }
        node.default_left = default_left != 0;
      }
    }
    forest.trees.push_back(std::move(tree));
  }
  if (!reader.AtEnd()) {
    return InvalidArgumentError("trailing data after the last tree");
  }
  return forest;
}

Status Forest::Validate() const {
  if (num_features <= 0) return InvalidArgumentError("num_features <= 0");
  if (!std::isfinite(base_score)) {
    return InvalidArgumentError("base_score not finite");
  }
  for (size_t t = 0; t < trees.size(); ++t) {
    const Tree& tree = trees[t];
    const int n = static_cast<int>(tree.nodes.size());
    if (n == 0) {
      return InvalidArgumentError(StrFormat("tree %zu: empty", t));
    }
    size_t leaves = 0;
    for (int i = 0; i < n; ++i) {
      const TreeNode& node = tree.nodes[static_cast<size_t>(i)];
      if (node.is_leaf) {
        ++leaves;
        if (!std::isfinite(node.value)) {
          return InvalidArgumentError(
              StrFormat("tree %zu node %d: leaf value not finite", t, i));
        }
      } else if (!std::isfinite(node.threshold)) {
        return InvalidArgumentError(
            StrFormat("tree %zu node %d: threshold not finite", t, i));
      }
    }
    if (leaves != static_cast<size_t>(n) - leaves + 1) {
      return InvalidArgumentError(
          StrFormat("tree %zu: %zu leaves for %zu inner nodes "
                    "(want inner + 1)",
                    t, leaves, static_cast<size_t>(n) - leaves));
    }
    std::vector<char> seen(static_cast<size_t>(n), 0);
    // Iterative DFS from the root; every node must be visited exactly once.
    std::vector<int> stack = {0};
    int visited = 0;
    while (!stack.empty()) {
      const int index = stack.back();
      stack.pop_back();
      if (index < 0 || index >= n) {
        return InvalidArgumentError(
            StrFormat("tree %zu: child index %d out of range", t, index));
      }
      if (seen[static_cast<size_t>(index)]) {
        return InvalidArgumentError(
            StrFormat("tree %zu: node %d reached twice", t, index));
      }
      seen[static_cast<size_t>(index)] = 1;
      ++visited;
      const TreeNode& node = tree.nodes[static_cast<size_t>(index)];
      if (node.is_leaf) continue;
      if (node.feature < 0 || node.feature >= num_features) {
        return InvalidArgumentError(
            StrFormat("tree %zu node %d: feature %d out of range", t, index,
                      node.feature));
      }
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
    if (visited != n) {
      return InvalidArgumentError(
          StrFormat("tree %zu: %d of %d nodes unreachable", t, n - visited, n));
    }
  }
  return Status::OK();
}

Status Forest::SaveToFile(const std::string& path) const {
  return WriteStringToFile(path, ToText());
}

Result<Forest> Forest::LoadFromFile(const std::string& path) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  return FromText(*content);
}

}  // namespace t3
