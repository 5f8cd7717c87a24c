// Seeded random forests for the tree-inference tests.
//
// Thresholds are drawn from a small grid (0.25 * [-8, 8]) so that rows
// drawn from the same grid regularly hit exact threshold values (the
// x == threshold boundary). The Rng draw order is part of the contract:
// every seeded test builds the same forests from the same seed.

#ifndef T3_TESTS_RANDOM_FOREST_H_
#define T3_TESTS_RANDOM_FOREST_H_

#include <utility>

#include "common/random.h"
#include "gbt/forest.h"

namespace t3 {

/// Builds a random subtree of at most `depth` levels into `tree` and
/// returns its root index.
inline int BuildRandomSubtree(Tree* tree, Rng* rng, int num_features,
                              int depth) {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    tree->nodes[index].is_leaf = true;
    tree->nodes[index].value = rng->UniformDouble(-10, 10);
    return index;
  }
  const int feature = static_cast<int>(rng->UniformInt(0, num_features - 1));
  const double threshold = 0.25 * rng->UniformInt(-8, 8);
  const bool default_left = rng->Bernoulli(0.5);
  const int left = BuildRandomSubtree(tree, rng, num_features, depth - 1);
  const int right = BuildRandomSubtree(tree, rng, num_features, depth - 1);
  TreeNode& node = tree->nodes[index];
  node.is_leaf = false;
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  node.default_left = default_left;
  return index;
}

/// Builds a subtree with exactly `num_leaves` leaves (>= 1), split as
/// evenly as possible, with random features, grid thresholds and leaf
/// values; returns its root index. Wider than any depth-bounded random
/// tree: the way to reach a given leaf count.
inline int BuildWideSubtree(Tree* tree, Rng* rng, int num_features,
                            int num_leaves) {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  if (num_leaves == 1) {
    tree->nodes[index].is_leaf = true;
    tree->nodes[index].value = rng->UniformDouble(-10, 10);
    return index;
  }
  const int feature = static_cast<int>(rng->UniformInt(0, num_features - 1));
  const double threshold = 0.25 * rng->UniformInt(-8, 8);
  const int left =
      BuildWideSubtree(tree, rng, num_features, num_leaves / 2);
  const int right =
      BuildWideSubtree(tree, rng, num_features, num_leaves - num_leaves / 2);
  TreeNode& node = tree->nodes[index];
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  return index;
}

/// A valid random forest: base score in [-5, 5], leaves in [-10, 10].
inline Forest MakeRandomForest(Rng* rng, int num_features, int num_trees,
                               int max_depth) {
  Forest forest;
  forest.num_features = num_features;
  forest.base_score = rng->UniformDouble(-5, 5);
  for (int t = 0; t < num_trees; ++t) {
    Tree tree;
    BuildRandomSubtree(&tree, rng, num_features, max_depth);
    forest.trees.push_back(std::move(tree));
  }
  return forest;
}

}  // namespace t3

#endif  // T3_TESTS_RANDOM_FOREST_H_
