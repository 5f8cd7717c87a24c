#ifndef T3_GBT_FOREST_H_
#define T3_GBT_FOREST_H_

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/report.h"
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

/// What one model prediction stands for. The integer values are the wire
/// format of the "t3model target <n>" line that opens a model file
/// (data/model_*.txt); the forest reader rejects any other id.
enum class PredictionTarget {
  kPerTuple = 0,    ///< Main T3 model: time to push one tuple through a
                    ///  pipeline; multiply by input cardinality.
  kPerPipeline = 1, ///< Ablation: total pipeline time directly.
  kPerQuery = 2,    ///< Ablation / AutoWLM-like: whole-query time from one
                    ///  per-query feature vector.
};

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
  /// Reads a leading "t3model target <n>" line, so the forest inside a T3
  /// model file (data/model_*.txt) loads directly; `target`, when given,
  /// receives <n> (kPerTuple without the line). A malformed line or an id
  /// outside PredictionTarget is an error.
  static Result<Forest> FromText(std::string_view text,
                                 PredictionTarget* target = nullptr);

  /// FromText without the Validate gate: syntactic parse only. For tools
  /// that want to *report* on a corrupt model (t3_lint runs the full
  /// analysis::ForestVerifier over the result) instead of stopping at the
  /// first invariant violation. Never feed an unvalidated forest to an
  /// evaluator.
  static Result<Forest> ParseTextUnvalidated(
      std::string_view text, PredictionTarget* target = nullptr);

  Status SaveToFile(const std::string& path) const;
  static Result<Forest> LoadFromFile(const std::string& path);

  /// The loader's reject gate: CheckForestHeader and CheckTreeStructure
  /// over every tree, as a Status carrying the first error
  /// ("error[bad-feature-index] tree 0 node 0: ...").
  Status Validate() const;
};

/// The forest's structural and semantic Error checks, the one copy behind
/// both Forest::Validate and analysis::ForestVerifier. Each appends one
/// Error diagnostic per finding and keeps going.
///
/// Header checks: `bad-num-features` (num_features <= 0) and
/// `nonfinite-base-score`.
void CheckForestHeader(const Forest& forest, AnalysisReport* report);

/// Checks of tree `tree_index`: `empty-tree`, `bad-feature-index` (split
/// feature outside [0, num_features)), `nonfinite-threshold` /
/// `nonfinite-leaf-value`, `missing-child` (a child index outside the node
/// array, including -1), `leaf-count-mismatch` (leaves != inner + 1),
/// `node-shared` (a node reached twice from the root: a cycle or a
/// diamond) and `orphan-node` (a node the root cannot reach). Returns true
/// when the tree is walkable: every node is reached exactly once through
/// in-range children, and every split has an in-range feature and a finite
/// threshold (what ForestVerifier's interval walk needs).
bool CheckTreeStructure(const Forest& forest, int tree_index,
                        AnalysisReport* report);

/// How often each feature index appears as a split across the forest, a
/// size-num_features histogram. The feature-importance proxy the ablation
/// bench ranks features by (LightGBM's "split" importance).
std::vector<int> FeatureSplitCounts(const Forest& forest);

}  // namespace t3

#endif  // T3_GBT_FOREST_H_
