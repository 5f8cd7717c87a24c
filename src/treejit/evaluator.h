#ifndef T3_TREEJIT_EVALUATOR_H_
#define T3_TREEJIT_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "gbt/forest.h"

namespace t3 {

class ThreadPool;

/// Common interface of the four forest evaluators (node-pointer
/// interpretation, flattened-array interpretation, QuickScorer bitvector
/// traversal, JIT-compiled native code). All implementations produce
/// bit-identical predictions: same split predicate (see GoesLeft), same NaN
/// routing, same summation order (base_score first, then trees in order).
class ForestEvaluator {
 public:
  virtual ~ForestEvaluator() = default;

  /// Predicts one row of Forest::num_features doubles.
  virtual double Predict(const double* row) const = 0;

  /// Predicts `num_rows` rows stored row-major with stride `num_features`:
  /// one Predict per row, so batches are bit-identical to single rows.
  void PredictBatch(const double* rows, size_t num_rows, size_t num_features,
                    double* out) const;
};

/// Node-pointer interpreter: walks Tree::nodes child indices directly.
/// This is the paper's "interpreted" baseline (Tables 1-2, Figure 5).
/// Does not own the forest; the forest must outlive the evaluator.
class InterpretedEvaluator : public ForestEvaluator {
 public:
  explicit InterpretedEvaluator(const Forest& forest) : forest_(&forest) {}

  double Predict(const double* row) const override {
    return forest_->Predict(row);
  }

 private:
  const Forest* forest_;
};

/// Flattened-array interpreter: all trees contiguously in
/// structure-of-arrays node storage with absolute child indices — better
/// locality than pointer chasing, still interpreted. Owns its flattened
/// copy; independent of the source forest's lifetime.
class FlatEvaluator : public ForestEvaluator {
 public:
  explicit FlatEvaluator(const Forest& forest);

  double Predict(const double* row) const override;

 private:
  // One entry per node, parallel arrays (structure-of-arrays).
  std::vector<double> threshold_or_value_;  // Inner: threshold. Leaf: value.
  std::vector<int32_t> feature_;            // -1 marks a leaf.
  std::vector<int32_t> left_;               // Leaf: -1.
  std::vector<int32_t> right_;              // Leaf: -1.
  std::vector<uint8_t> default_left_;
  std::vector<int32_t> roots_;
  double base_score_;
};

/// QuickScorer (Lucchese et al., SIGIR 2015): a feature-major scan over
/// sorted thresholds that ANDs 64-bit leaf masks, with no per-node branch
/// on the tree's shape. Portable C++; the evaluator that serves
/// (ServingModel::evaluator).
///
///  - Each tree's leaves are numbered left to right, bit i = leaf i. Each
///    split stores a mask that clears the leaves of its left subtree.
///  - Each feature keeps its splits sorted by ascending threshold. For a
///    non-NaN x the scan ANDs in the mask of every split with
///    `threshold <= x`, which is exactly `!(x < threshold)`: the splits
///    GoesLeft sends right, so equality, +/-inf and -0.0 route as there.
///  - A NaN x ANDs in the masks of the splits whose default_left is false.
///  - The exit leaf of a tree is the lowest set bit of its mask: every leaf
///    left of it sits in the left subtree of a split that went right.
///  - The sum is base_score, then the exit-leaf values in tree order, so
///    predictions are bit-identical to Forest::Predict.
///
/// Owns its tables; independent of the source forest's lifetime. Predict
/// keeps its masks on the caller's stack, so it is const and thread-safe.
class QuickScorerEvaluator : public ForestEvaluator {
 public:
  /// One bit per leaf in a 64-bit mask.
  static constexpr int kMaxLeaves = 64;

  /// Builds the tables for a valid forest. InvalidArgument for an invalid
  /// forest, and for a tree with more than kMaxLeaves leaves (the error
  /// names the tree and its leaf count).
  static Result<std::unique_ptr<QuickScorerEvaluator>> Build(
      const Forest& forest);

  double Predict(const double* row) const override;

 private:
  QuickScorerEvaluator() = default;

  /// Predicts `row` with `masks` (one per tree) as scratch.
  double Score(const double* row, uint64_t* masks) const;

  // Finite splits, grouped by feature (CSR offsets, num_features + 1) and
  // sorted by ascending threshold within a feature.
  std::vector<uint32_t> split_begin_;
  std::vector<double> threshold_;
  std::vector<uint32_t> split_tree_;
  std::vector<uint64_t> split_mask_;
  // The splits that send NaN right (default_left false), same grouping.
  std::vector<uint32_t> nan_begin_;
  std::vector<uint32_t> nan_tree_;
  std::vector<uint64_t> nan_mask_;
  // Leaf values, tree by tree, left to right; leaf_begin_[t] is tree t's.
  std::vector<uint32_t> leaf_begin_;
  std::vector<double> leaf_value_;
  double base_score_ = 0.0;
};

/// Sum of Predict over `num_rows` rows, fanned out over `pool`. Partial
/// sums are combined in chunk order, so the result is deterministic for a
/// fixed pool size (though the grouping differs from a serial left-to-right
/// sum). Used by Figure 5's multi-threaded interpretation curve.
double PredictSumParallel(const ForestEvaluator& evaluator, ThreadPool* pool,
                          const double* rows, size_t num_rows,
                          size_t num_features);

}  // namespace t3

#endif  // T3_TREEJIT_EVALUATOR_H_
