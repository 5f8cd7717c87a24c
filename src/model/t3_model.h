#ifndef T3_MODEL_T3_MODEL_H_
#define T3_MODEL_T3_MODEL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gbt/forest.h"

namespace t3 {

/// Floor for measured times entering the log transform.
inline constexpr double kMinSeconds = 1e-12;

/// T3 trains on negated log time: targets are positive and MAPE-friendly
/// (a measured 1us pipeline maps to ~13.8).
inline double TransformTarget(double seconds) {
  return -std::log(std::max(seconds, kMinSeconds));
}

/// Inverse of TransformTarget: model output back to seconds.
inline double InverseTransformTarget(double y) { return std::exp(-y); }

/// Elementwise left-to-right sum of `num_rows` (>= 1) row-major rows of
/// `dim` doubles: the first row copied, then each later row added in order.
/// The per-query feature vector of the paper's Figure 13 ablation ("one
/// summed vector per query"), for training and prediction alike.
inline std::vector<double> SumRows(const double* rows, size_t num_rows,
                                   size_t dim) {
  std::vector<double> summed(rows, rows + dim);
  for (size_t r = 1; r < num_rows; ++r) {
    const double* row = rows + r * dim;
    for (size_t i = 0; i < dim; ++i) summed[i] += row[i];
  }
  return summed;
}

/// A trained T3 predictor: a GBDT forest plus the semantics of its output
/// (PredictionTarget, gbt/forest.h). Serialized as the forest's text format
/// behind a one-line header, which Forest::FromText reads:
///
///   t3model target 0
///   t3gbt v1
///   ...
///
/// The text is the model artifact: ToText writes every field prediction
/// reads (the target, num_features, base_score, and per node is_leaf,
/// feature, threshold, left, right, default_left or the leaf value) and
/// nothing else, every double through AppendExactDouble. Two models with
/// equal text therefore predict bit-identically on every input.
class T3Model {
 public:
  T3Model() = default;
  T3Model(Forest forest, PredictionTarget target)
      : forest_(std::move(forest)), target_(target) {}

  const Forest& forest() const { return forest_; }
  PredictionTarget target() const { return target_; }

  /// Raw model output (transformed domain) for one feature row.
  double PredictRaw(const double* row) const { return forest_.Predict(row); }

  /// Raw model output -> predicted seconds: the inverse transform, then,
  /// for kPerTuple models, scaling by the pipeline's input cardinality;
  /// other targets ignore it. The one conversion every prediction path
  /// (direct, batched, served) goes through, so they agree bit-exactly.
  double SecondsFromRaw(double raw, double input_cardinality) const {
    const double seconds = InverseTransformTarget(raw);
    if (target_ == PredictionTarget::kPerTuple) {
      return seconds * std::max(input_cardinality, 1.0);
    }
    return seconds;
  }

  /// Predicted pipeline seconds for one pipeline feature row.
  double PredictPipelineSeconds(const double* row,
                                double input_cardinality) const {
    return SecondsFromRaw(PredictRaw(row), input_cardinality);
  }

  /// Predicted seconds of one query from its pipelines' feature rows:
  /// `num_rows` row-major rows of forest().num_features doubles, one input
  /// cardinality per row. Per-tuple and per-pipeline models predict every
  /// row and sum the seconds in row order (T3's query = sum of its
  /// pipelines); a per-query model predicts once over SumRows with
  /// cardinality 0. No rows predict 0 s. `predict_raw(const double* row)`
  /// is the raw evaluator: Forest::Predict or any bit-identical
  /// ForestEvaluator. Every query prediction path (harness, server,
  /// benches) goes through this rule.
  template <typename PredictRawFn>
  double QuerySeconds(const double* rows, size_t num_rows,
                      const double* input_cardinalities,
                      const PredictRawFn& predict_raw) const {
    if (num_rows == 0) return 0.0;
    const size_t dim = static_cast<size_t>(forest_.num_features);
    if (target_ == PredictionTarget::kPerQuery) {
      const std::vector<double> summed = SumRows(rows, num_rows, dim);
      return SecondsFromRaw(predict_raw(summed.data()), 0.0);
    }
    double total = 0.0;
    for (size_t r = 0; r < num_rows; ++r) {
      total += SecondsFromRaw(predict_raw(rows + r * dim),
                              input_cardinalities[r]);
    }
    return total;
  }

  /// The model file's bytes: the header line, then Forest::ToText.
  std::string ToText() const;
  /// Parses ToText output; rejects what Forest::FromText rejects.
  static Result<T3Model> FromText(std::string_view text);

  /// ToText written to / FromText read from a whole file.
  Status SaveToFile(const std::string& path) const;
  static Result<T3Model> LoadFromFile(const std::string& path);

 private:
  Forest forest_;
  PredictionTarget target_ = PredictionTarget::kPerTuple;
};

/// The round-trip proof for a model artifact: OK when `text` parses back
/// into a model whose ToText() is the same bytes. By the injectivity of
/// ToText (see T3Model), a model whose text passes predicts exactly as the
/// model it was reparsed from, on every input, and so does every later
/// load of those bytes. InternalError naming `what` when the text does not
/// parse or reserializes differently. The server proves every model before
/// publishing it, the harness every model cache it writes.
Status ProveTextRoundTrip(std::string_view text, const std::string& what);

}  // namespace t3

#endif  // T3_MODEL_T3_MODEL_H_
