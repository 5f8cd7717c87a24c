#include "treejit/evaluator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace t3 {

void ForestEvaluator::PredictBatch(const double* rows, size_t num_rows,
                                   size_t num_features, double* out) const {
  for (size_t i = 0; i < num_rows; ++i) {
    out[i] = Predict(rows + i * num_features);
  }
}

FlatEvaluator::FlatEvaluator(const Forest& forest)
    : base_score_(forest.base_score) {
  const size_t num_nodes = forest.NumNodes();
  threshold_or_value_.reserve(num_nodes);
  feature_.reserve(num_nodes);
  left_.reserve(num_nodes);
  right_.reserve(num_nodes);
  default_left_.reserve(num_nodes);
  roots_.reserve(forest.trees.size());
  for (const Tree& tree : forest.trees) {
    const int32_t offset = static_cast<int32_t>(threshold_or_value_.size());
    roots_.push_back(offset);
    for (const TreeNode& node : tree.nodes) {
      if (node.is_leaf) {
        threshold_or_value_.push_back(node.value);
        feature_.push_back(-1);
        left_.push_back(-1);
        right_.push_back(-1);
        default_left_.push_back(0);
      } else {
        threshold_or_value_.push_back(node.threshold);
        feature_.push_back(node.feature);
        left_.push_back(offset + node.left);
        right_.push_back(offset + node.right);
        default_left_.push_back(node.default_left ? 1 : 0);
      }
    }
  }
}

double FlatEvaluator::Predict(const double* row) const {
  double sum = base_score_;
  for (const int32_t root : roots_) {
    size_t node = static_cast<size_t>(root);
    while (feature_[node] >= 0) {
      const double x = row[feature_[node]];
      // Same predicate as GoesLeft(): strict less-than, NaN routes by flag.
      const bool left =
          std::isnan(x) ? default_left_[node] != 0 : x < threshold_or_value_[node];
      node = static_cast<size_t>(left ? left_[node] : right_[node]);
    }
    sum += threshold_or_value_[node];
  }
  return sum;
}

namespace {

// One split as QuickScorer stores it: its tree and the mask that clears
// the leaves of its left subtree.
struct MaskedSplit {
  double threshold;
  uint32_t tree;
  uint64_t mask;
};

// Appends tree `tree_index`'s leaf values left to right to `leaf_values`
// and each split of the subtree at `node` to its feature's list (and to
// `nan_splits` when it sends NaN right). `first` is the number of the
// subtree's leftmost leaf; returns the subtree's leaf count. The caller
// bounds the tree at 64 leaves, so every shift is in range.
int NumberLeaves(const Tree& tree, int node, int first, uint32_t tree_index,
                 std::vector<double>* leaf_values,
                 std::vector<std::vector<MaskedSplit>>* splits,
                 std::vector<std::vector<MaskedSplit>>* nan_splits) {
  const TreeNode& n = tree.nodes[static_cast<size_t>(node)];
  if (n.is_leaf) {
    leaf_values->push_back(n.value);
    return 1;
  }
  const int left = NumberLeaves(tree, n.left, first, tree_index, leaf_values,
                                splits, nan_splits);
  // The right subtree has a leaf, so left <= 63 and first + left <= 63.
  const uint64_t left_leaves = ((uint64_t{1} << left) - 1) << first;
  const MaskedSplit split{n.threshold, tree_index, ~left_leaves};
  (*splits)[static_cast<size_t>(n.feature)].push_back(split);
  if (!n.default_left) {
    (*nan_splits)[static_cast<size_t>(n.feature)].push_back(split);
  }
  return left + NumberLeaves(tree, n.right, first + left, tree_index,
                             leaf_values, splits, nan_splits);
}

// Flattens per-feature split lists into CSR offsets plus tree and mask
// arrays (and thresholds, when `threshold` is non-null).
void Flatten(const std::vector<std::vector<MaskedSplit>>& by_feature,
             std::vector<uint32_t>* begin, std::vector<double>* threshold,
             std::vector<uint32_t>* tree, std::vector<uint64_t>* mask) {
  begin->push_back(0);
  for (const std::vector<MaskedSplit>& splits : by_feature) {
    for (const MaskedSplit& split : splits) {
      if (threshold != nullptr) threshold->push_back(split.threshold);
      tree->push_back(split.tree);
      mask->push_back(split.mask);
    }
    begin->push_back(static_cast<uint32_t>(tree->size()));
  }
}

}  // namespace

Result<std::unique_ptr<QuickScorerEvaluator>> QuickScorerEvaluator::Build(
    const Forest& forest) {
  const Status valid = forest.Validate();
  if (!valid.ok()) return valid;
  std::unique_ptr<QuickScorerEvaluator> qs(new QuickScorerEvaluator());
  qs->base_score_ = forest.base_score;
  const size_t num_features = static_cast<size_t>(forest.num_features);
  std::vector<std::vector<MaskedSplit>> splits(num_features);
  std::vector<std::vector<MaskedSplit>> nan_splits(num_features);
  for (size_t t = 0; t < forest.trees.size(); ++t) {
    const Tree& tree = forest.trees[t];
    const auto num_leaves = std::count_if(
        tree.nodes.begin(), tree.nodes.end(),
        [](const TreeNode& node) { return node.is_leaf; });
    if (num_leaves > kMaxLeaves) {
      return InvalidArgumentError(StrFormat(
          "QuickScorer: tree %zu has %lld leaves; a leaf mask holds at "
          "most %d",
          t, static_cast<long long>(num_leaves), kMaxLeaves));
    }
    qs->leaf_begin_.push_back(static_cast<uint32_t>(qs->leaf_value_.size()));
    NumberLeaves(tree, 0, 0, static_cast<uint32_t>(t), &qs->leaf_value_,
                 &splits, &nan_splits);
  }
  // Ties keep tree order; the AND commutes, so any order is correct.
  for (std::vector<MaskedSplit>& feature_splits : splits) {
    std::stable_sort(feature_splits.begin(), feature_splits.end(),
                     [](const MaskedSplit& a, const MaskedSplit& b) {
                       return a.threshold < b.threshold;
                     });
  }
  Flatten(splits, &qs->split_begin_, &qs->threshold_, &qs->split_tree_,
          &qs->split_mask_);
  Flatten(nan_splits, &qs->nan_begin_, nullptr, &qs->nan_tree_,
          &qs->nan_mask_);
  return qs;
}

double QuickScorerEvaluator::Score(const double* row, uint64_t* masks) const {
  const size_t num_trees = leaf_begin_.size();
  std::fill_n(masks, num_trees, ~uint64_t{0});
  const size_t num_features = split_begin_.size() - 1;
  for (size_t f = 0; f < num_features; ++f) {
    const double x = row[f];
    if (std::isnan(x)) {
      for (uint32_t i = nan_begin_[f]; i < nan_begin_[f + 1]; ++i) {
        masks[nan_tree_[i]] &= nan_mask_[i];
      }
      continue;
    }
    // For a non-NaN x, threshold <= x is !(x < threshold): the splits that
    // send x right, a prefix of the ascending thresholds.
    const uint32_t end = split_begin_[f + 1];
    for (uint32_t i = split_begin_[f]; i < end && threshold_[i] <= x; ++i) {
      masks[split_tree_[i]] &= split_mask_[i];
    }
  }
  double sum = base_score_;
  for (size_t t = 0; t < num_trees; ++t) {
    sum += leaf_value_[leaf_begin_[t] +
                       static_cast<uint32_t>(std::countr_zero(masks[t]))];
  }
  return sum;
}

double QuickScorerEvaluator::Predict(const double* row) const {
  // Masks on the stack up to kStackTrees trees, so a call shares no
  // mutable state and allocates nothing for the served models.
  constexpr size_t kStackTrees = 512;
  if (leaf_begin_.size() <= kStackTrees) {
    uint64_t masks[kStackTrees];
    return Score(row, masks);
  }
  std::vector<uint64_t> masks(leaf_begin_.size());
  return Score(row, masks.data());
}

double PredictSumParallel(const ForestEvaluator& evaluator, ThreadPool* pool,
                          const double* rows, size_t num_rows,
                          size_t num_features) {
  if (num_rows == 0) return 0.0;
  const size_t num_chunks =
      std::min(pool->num_threads(), num_rows);
  std::vector<std::future<double>> partials;
  partials.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = num_rows * c / num_chunks;
    const size_t end = num_rows * (c + 1) / num_chunks;
    partials.push_back(pool->Async([&evaluator, rows, num_features, begin,
                                    end] {
      double sum = 0.0;
      for (size_t i = begin; i < end; ++i) {
        sum += evaluator.Predict(rows + i * num_features);
      }
      return sum;
    }));
  }
  double total = 0.0;
  for (std::future<double>& partial : partials) total += partial.get();
  return total;
}

}  // namespace t3
