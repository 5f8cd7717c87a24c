#ifndef T3_ANALYSIS_DIFFERENTIAL_CHECK_H_
#define T3_ANALYSIS_DIFFERENTIAL_CHECK_H_

#include <cstddef>
#include <functional>

#include "common/report.h"
#include "gbt/forest.h"

namespace t3 {

/// A batched prediction entry point under test: fills `out[0..num_rows)`
/// from `num_rows` row-major rows. Taking a std::function keeps the
/// dependency direction intact — treejit hands its evaluators down to the
/// analysis layer, which never links treejit.
using BatchPredictFn = std::function<void(
    const double* rows, size_t num_rows, size_t num_features, double* out)>;

/// The proof for an evaluator the static passes cannot read (plain C++
/// such as QuickScorer): an exhaustive per-cell differential check.
/// Enumerates every leaf cell of every tree (the cell decomposition the
/// translation validator's semantic proof walks), takes one concrete
/// witness row per cell, runs all witnesses through `predict_batch` in one
/// call, and bit-compares each against Forest::Predict. Reports the first mismatch as
/// `batch-differential-mismatch` (Error) with the witness row index and
/// both values. `invalid-forest` when the forest does not validate. Debug
/// MakeServingModel and t3_lint run it over QuickScorer.
AnalysisReport BatchDifferentialCheck(const Forest& forest,
                                      const BatchPredictFn& predict_batch);

}  // namespace t3

#endif  // T3_ANALYSIS_DIFFERENTIAL_CHECK_H_
