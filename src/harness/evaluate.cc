#include "harness/evaluate.h"

#include <algorithm>

#include "common/stats.h"
#include "common/string_util.h"

namespace t3 {

double QError(double predicted_seconds, double actual_seconds) {
  const double p = std::max(predicted_seconds, kMinSeconds);
  const double a = std::max(actual_seconds, kMinSeconds);
  return std::max(p / a, a / p);
}

std::string QErrorSummary::ToString() const {
  return StrFormat("n=%zu p50=%.3f p90=%.3f avg=%.3f max=%.3f", count, p50,
                   p90, avg, max);
}

QErrorSummary Summarize(const std::vector<double>& q_errors) {
  QErrorSummary summary;
  if (q_errors.empty()) return summary;
  summary.p50 = Quantile(q_errors, 0.5);
  summary.p90 = Quantile(q_errors, 0.9);
  summary.avg = Mean(q_errors);
  summary.max = *std::max_element(q_errors.begin(), q_errors.end());
  summary.count = q_errors.size();
  return summary;
}

std::vector<const QueryRecord*> SelectRecords(
    const Corpus& corpus,
    const std::function<bool(const QueryRecord&)>& predicate) {
  std::vector<const QueryRecord*> selected;
  for (const QueryRecord& record : corpus.records) {
    if (predicate(record)) selected.push_back(&record);
  }
  return selected;
}

std::vector<double> SummedQueryFeatures(const QueryRecord& record,
                                        CardinalityMode mode) {
  const std::vector<PipelineFeatureVector>& features_set =
      mode == CardinalityMode::kTrue ? record.feat_true : record.feat_est;
  std::vector<double> rows;
  size_t num_rows = 0;
  size_t dim = 0;
  for (const PipelineFeatureVector& features : features_set) {
    if (features.values.empty()) continue;
    if (dim == 0) dim = features.values.size();
    if (features.values.size() != dim) return {};
    rows.insert(rows.end(), features.values.begin(), features.values.end());
    ++num_rows;
  }
  if (num_rows == 0) return {};
  return SumRows(rows.data(), num_rows, dim);
}

double PredictQuerySeconds(const T3Model& model, const QueryRecord& record,
                           CardinalityMode mode) {
  const std::vector<PipelineFeatureVector>& features_set =
      mode == CardinalityMode::kTrue ? record.feat_true : record.feat_est;
  const size_t dim = static_cast<size_t>(model.forest().num_features);
  std::vector<double> rows;
  std::vector<double> cardinalities;
  for (const PipelineFeatureVector& features : features_set) {
    if (features.values.size() != dim) return 0.0;
    rows.insert(rows.end(), features.values.begin(), features.values.end());
    cardinalities.push_back(features.input_cardinality);
  }
  return model.QuerySeconds(
      rows.data(), cardinalities.size(), cardinalities.data(),
      [&model](const double* row) { return model.PredictRaw(row); });
}

std::vector<RecordEvaluation> EvaluateModel(
    const T3Model& model, const std::vector<const QueryRecord*>& records,
    CardinalityMode mode) {
  std::vector<RecordEvaluation> evals;
  evals.reserve(records.size());
  for (const QueryRecord* record : records) {
    RecordEvaluation eval;
    eval.record = record;
    eval.predicted_seconds = PredictQuerySeconds(model, *record, mode);
    eval.actual_seconds = record->median_seconds;
    eval.q_error = QError(eval.predicted_seconds, eval.actual_seconds);
    evals.push_back(eval);
  }
  return evals;
}

std::vector<double> QErrors(const std::vector<RecordEvaluation>& evals) {
  std::vector<double> q_errors;
  q_errors.reserve(evals.size());
  for (const RecordEvaluation& eval : evals) {
    q_errors.push_back(eval.q_error);
  }
  return q_errors;
}

QErrorSummary Summarize(const std::vector<RecordEvaluation>& evals) {
  return Summarize(QErrors(evals));
}

}  // namespace t3
