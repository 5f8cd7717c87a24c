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

Result<Forest> Forest::FromText(std::string_view text,
                                PredictionTarget* target) {
  Result<Forest> forest = ParseTextUnvalidated(text, target);
  if (!forest.ok()) return forest.status();
  Status valid = forest->Validate();
  if (!valid.ok()) return valid;
  return forest;
}

namespace {

/// The one reader of the optional "t3model target <n>" line that opens a
/// model file. Leaves `reader` untouched and returns kPerTuple when the
/// text does not start with "t3model".
Result<PredictionTarget> ReadModelHeader(TextReader* reader) {
  TextReader header = *reader;
  if (header.Token() != "t3model") return PredictionTarget::kPerTuple;
  int64_t id = 0;
  if (header.Token() != "target" || !header.Int(&id) ||
      !header.Literal('\n')) {
    return InvalidArgumentError(
        "t3model header: expected 't3model target <n>' on one line");
  }
  if (id < 0 || id > static_cast<int64_t>(PredictionTarget::kPerQuery)) {
    return InvalidArgumentError(StrFormat("unknown model target %lld",
                                          static_cast<long long>(id)));
  }
  *reader = header;
  return static_cast<PredictionTarget>(id);
}

}  // namespace

Result<Forest> Forest::ParseTextUnvalidated(std::string_view text,
                                            PredictionTarget* target) {
  TextReader reader(text);
  Result<PredictionTarget> header = ReadModelHeader(&reader);
  if (!header.ok()) return header.status();
  if (target != nullptr) *target = *header;
  if (reader.Token() != "t3gbt" || reader.Token() != "v1") {
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
  AnalysisReport report;
  CheckForestHeader(*this, &report);
  for (size_t t = 0; t < trees.size(); ++t) {
    CheckTreeStructure(*this, static_cast<int>(t), &report);
  }
  return report.ToStatus();
}

void CheckForestHeader(const Forest& forest, AnalysisReport* report) {
  if (forest.num_features <= 0) {
    report->Add(Severity::kError, "bad-num-features", -1, -1,
                StrFormat("num_features is %d, need > 0", forest.num_features));
  }
  if (!std::isfinite(forest.base_score)) {
    report->Add(Severity::kError, "nonfinite-base-score", -1, -1,
                "base_score is NaN or infinite");
  }
}

bool CheckTreeStructure(const Forest& forest, int tree_index,
                        AnalysisReport* report) {
  const Tree& tree = forest.trees[static_cast<size_t>(tree_index)];
  const int n = static_cast<int>(tree.nodes.size());
  if (n == 0) {
    report->Add(Severity::kError, "empty-tree", tree_index, -1,
                "tree has no nodes");
    return false;
  }

  bool walkable = true;
  size_t leaves = 0;
  for (int i = 0; i < n; ++i) {
    const TreeNode& node = tree.nodes[static_cast<size_t>(i)];
    if (node.is_leaf) {
      ++leaves;
      if (!std::isfinite(node.value)) {
        report->Add(Severity::kError, "nonfinite-leaf-value", tree_index, i,
                    "leaf value is NaN or infinite");
      }
      continue;
    }
    if (node.feature < 0 || node.feature >= forest.num_features) {
      report->Add(
          Severity::kError, "bad-feature-index", tree_index, i,
          StrFormat("split feature %d outside [0, %d)", node.feature,
                    forest.num_features));
      walkable = false;  // The walker indexes per-feature bound arrays.
    }
    if (!std::isfinite(node.threshold)) {
      report->Add(Severity::kError, "nonfinite-threshold", tree_index, i,
                  "split threshold is NaN or infinite");
      walkable = false;  // Interval bounds are meaningless with NaN splits.
    }
    for (const int child : {node.left, node.right}) {
      if (child < 0 || child >= n) {
        report->Add(Severity::kError, "missing-child", tree_index, i,
                    StrFormat("child index %d outside the %d-node tree",
                              child, n));
        walkable = false;
      }
    }
  }
  if (leaves != static_cast<size_t>(n) - leaves + 1) {
    report->Add(Severity::kError, "leaf-count-mismatch", tree_index, -1,
                StrFormat("%zu leaves but %zu inner nodes (want inner + 1)",
                          leaves, static_cast<size_t>(n) - leaves));
  }
  if (!walkable) return false;

  // Reachability: every node must be reached from the root exactly once.
  std::vector<char> seen(static_cast<size_t>(n), 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  int visited = 1;
  bool shared = false;
  while (!stack.empty()) {
    const TreeNode& node = tree.nodes[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (node.is_leaf) continue;
    for (const int child : {node.left, node.right}) {
      if (seen[static_cast<size_t>(child)]) {
        report->Add(Severity::kError, "node-shared", tree_index, child,
                    "node reachable twice from the root (cycle or diamond)");
        shared = true;
        continue;  // Do not re-walk: a cycle would never terminate.
      }
      seen[static_cast<size_t>(child)] = 1;
      ++visited;
      stack.push_back(child);
    }
  }
  for (int i = 0; i < n && visited < n; ++i) {
    if (!seen[static_cast<size_t>(i)]) {
      report->Add(Severity::kError, "orphan-node", tree_index, i,
                  "node unreachable from the root");
    }
  }
  return !shared && visited == n;
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
