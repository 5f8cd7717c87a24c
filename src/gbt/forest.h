#ifndef T3_GBT_FOREST_H_
#define T3_GBT_FOREST_H_

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace t3 {

/// One node of a regression tree, stored by index inside Tree::nodes.
/// Node 0 is the root; `left`/`right` index into the same vector.
struct TreeNode {
  bool is_leaf = false;
  int feature = -1;       ///< Split feature (inner nodes), -1 for leaves.
  double threshold = 0.0; ///< Go left iff x[feature] < threshold.
  int left = -1;
  int right = -1;
  double value = 0.0;     ///< Leaf prediction (includes shrinkage).
  /// Where NaN feature values go. LightGBM's default_left; our trainer
  /// always produces false (NaN routes right), but evaluators and the JIT
  /// honor the flag either way.
  bool default_left = false;
};

struct Tree {
  std::vector<TreeNode> nodes;
};

/// Split decision shared by every evaluator (interpreted, flattened, JIT):
/// strictly-less comparison; equality and +/-inf follow from `<`; NaN routes
/// by `default_left`. All evaluators must agree bit-exactly, so any change
/// here must be mirrored in src/treejit.
inline bool GoesLeft(const TreeNode& node, double x) {
  if (std::isnan(x)) return node.default_left;
  return x < node.threshold;
}

/// Walks one tree from the root; returns the reached leaf's value.
double PredictTree(const Tree& tree, const double* row);

/// A gradient-boosted forest of regression trees.
/// Prediction = base_score + sum of per-tree leaf values, in tree order.
struct Forest {
  int num_features = 0;
  double base_score = 0.0;
  std::vector<Tree> trees;

  /// Reference (node-pointer) prediction; the baseline every other
  /// evaluator is tested against.
  double Predict(const double* row) const;

  size_t NumNodes() const;
  size_t NumLeaves() const;

  /// Text serialization ("t3gbt v1"). Numbers are printed with %.17g, so
  /// save -> load round-trips are bit-exact.
  ///
  ///   t3gbt v1
  ///   num_features 48
  ///   base_score 7.7257788436153465
  ///   num_trees 200
  ///   tree 61
  ///   <is_leaf> <feature> <threshold> <left> <right> <value|default_left>
  ///   ...
  ///
  /// Inner nodes carry `default_left` in the last column; leaves carry the
  /// leaf value (feature/left/right are -1).
  std::string ToText() const;

  /// Parses ToText output and rejects invalid forests (see Validate).
  /// Tolerates a leading "t3model target <n>" line so the forest inside a
  /// T3 model file (data/model_*.txt) loads directly.
  static Result<Forest> FromText(std::string_view text);

  /// FromText without the Validate gate: syntactic parse only. For tools
  /// that want to *report* on a corrupt model (t3_lint runs the full
  /// analysis::ForestVerifier over the result) instead of stopping at the
  /// first invariant violation. Never feed an unvalidated forest to an
  /// evaluator.
  static Result<Forest> ParseTextUnvalidated(std::string_view text);

  Status SaveToFile(const std::string& path) const;
  static Result<Forest> LoadFromFile(const std::string& path);

  /// Structural and semantic validation, the loader's reject gate: node
  /// indices in range, every node reachable exactly once (no cycles, no
  /// sharing, no orphans), leaf count = inner count + 1, features within
  /// num_features, thresholds / leaf values / base_score finite. Mirrors
  /// the Error-severity checks of analysis::ForestVerifier (which reports
  /// every finding instead of stopping at the first, and adds
  /// warning-level lints on top); the two are kept in lockstep by
  /// tests/analysis_test.cc.
  Status Validate() const;
};

/// How often each feature index appears as a split across the forest, a
/// size-num_features histogram. The feature-importance proxy the ablation
/// bench ranks features by (LightGBM's "split" importance).
std::vector<int> FeatureSplitCounts(const Forest& forest);

}  // namespace t3

#endif  // T3_GBT_FOREST_H_
