#ifndef T3_ANALYSIS_FOREST_DIFF_H_
#define T3_ANALYSIS_FOREST_DIFF_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>

#include "common/report.h"
#include "common/status.h"
#include "gbt/forest.h"

namespace t3 {

/// Static bounds on a(x) - b(x) over the entire feature space (NaN inputs
/// included): a(x) - b(x) is in [min, max] for every row x.
struct ForestDiffBounds {
  double min = 0.0;
  double max = 0.0;

  /// Bound on max |a(x) - b(x)|. Zero iff the two forests are proven to
  /// agree everywhere.
  double MaxAbs() const { return std::max(std::abs(min), std::abs(max)); }
};

/// Statically bounds the output divergence between two forests on the same
/// feature space — the retraining-drift check for the harness's model
/// cache: how far can predictions move if a cached model is replaced by a
/// retrained one, over *every* possible input, not a sample.
///
/// Built on the interval machinery of the translation validator
/// (analysis/interval_domain.h). Trees are paired by index; for each pair
/// the divergence range is computed *exactly* by intersecting every leaf
/// cell of a's tree with the cells of b's tree (axis-aligned splits make
/// every intersection an exact box, including NaN routing). Unpaired
/// trailing trees contribute their reachable-leaf value range. The per-pair
/// ranges are summed, so the overall bound is sound (max of a sum never
/// exceeds the sum of maxima) and tight exactly when per-tree worst cases
/// can co-occur; bit-identical forests yield exactly [0, 0].
///
/// Fails with InvalidArgument when either forest fails Forest::Validate or
/// the feature counts differ.
Result<ForestDiffBounds> ForestDiff(const Forest& a, const Forest& b);

/// The round-trip proof for a model artifact: OK when ForestDiff proves
/// `a` and `b` agree on every input (a bound of exactly zero),
/// InternalError naming the bound when it is not, and ForestDiff's own
/// error when the two cannot be compared. The text serializer is
/// bit-exact, so a model and its reparsed text must pass; the server
/// checks every model before publishing it, the harness every model cache
/// it writes.
Status ProveForestsEqual(const Forest& a, const Forest& b);

/// A batched prediction entry point under test: fills `out[0..num_rows)`
/// from `num_rows` row-major rows. Taking a std::function keeps the
/// dependency direction intact — treejit hands its evaluators down to the
/// analysis layer, which never links treejit.
using BatchPredictFn = std::function<void(
    const double* rows, size_t num_rows, size_t num_features, double* out)>;

/// The proof for an evaluator the static passes cannot read (plain C++
/// such as QuickScorer): an exhaustive per-cell differential check. Enumerates every leaf cell of every tree (the cell
/// decomposition ForestDiff and the translation validator's semantic proof
/// walk), takes one concrete witness row per cell, runs all witnesses
/// through `predict_batch` in one call, and bit-compares each against
/// Forest::Predict. Reports the first mismatch as
/// `batch-differential-mismatch` (Error) with the witness row index and
/// both values. `invalid-forest` when the forest does not validate. Debug
/// MakeServingModel and t3_lint run it over QuickScorer.
AnalysisReport BatchDifferentialCheck(const Forest& forest,
                                      const BatchPredictFn& predict_batch);

}  // namespace t3

#endif  // T3_ANALYSIS_FOREST_DIFF_H_
