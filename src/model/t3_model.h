#ifndef T3_MODEL_T3_MODEL_H_
#define T3_MODEL_T3_MODEL_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

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

/// A trained T3 predictor: a GBDT forest plus the semantics of its output
/// (PredictionTarget, gbt/forest.h). Serialized as the forest's text format
/// behind a one-line header, which Forest::FromText reads:
///
///   t3model target 0
///   t3gbt v1
///   ...
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

  Status SaveToFile(const std::string& path) const;
  static Result<T3Model> LoadFromFile(const std::string& path);

 private:
  Forest forest_;
  PredictionTarget target_ = PredictionTarget::kPerTuple;
};

}  // namespace t3

#endif  // T3_MODEL_T3_MODEL_H_
