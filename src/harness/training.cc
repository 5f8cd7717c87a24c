#include "harness/training.h"

#include <algorithm>
#include <utility>

#include "common/stats.h"

namespace t3 {
namespace {

/// Target label in seconds: the stored median, or — for runs_limit > 0 —
/// the median of the first runs_limit recorded runs (Figure 14).
double LabelSeconds(const std::vector<double>& run_seconds,
                    double stored_median, int runs_limit) {
  if (runs_limit <= 0 || run_seconds.empty()) return stored_median;
  const size_t k = std::min(run_seconds.size(),
                            static_cast<size_t>(runs_limit));
  return Median(std::vector<double>(run_seconds.begin(),
                                    run_seconds.begin() +
                                        static_cast<ptrdiff_t>(k)));
}

/// One row slot of the matrix: a (record, pipeline) pair for per-pipeline
/// rows, or a record alone (pipeline == -1) for per-query rows. Slots are
/// assigned in corpus order before any filling happens, so the produced
/// bytes are independent of how the fill work is scheduled.
struct RowSlot {
  const QueryRecord* record = nullptr;
  int pipeline = -1;
  size_t row = 0;
};

void FillSlot(const RowSlot& slot, CardinalityMode mode,
              const T3Config& config, int runs_limit, size_t num_features,
              double* row_out, double* target_out) {
  const QueryRecord& record = *slot.record;
  if (slot.pipeline < 0) {
    const std::vector<double> summed = SummedQueryFeatures(record, mode);
    std::copy(summed.begin(), summed.end(), row_out);
    *target_out = TransformTarget(LabelSeconds(
        record.total_run_seconds, record.median_seconds, runs_limit));
  } else {
    const size_t p = static_cast<size_t>(slot.pipeline);
    const std::vector<PipelineFeatureVector>& features_set =
        mode == CardinalityMode::kTrue ? record.feat_true : record.feat_est;
    const PipelineFeatureVector& features = features_set[p];
    std::copy(features.values.begin(), features.values.end(), row_out);
    double seconds = record.median_seconds;
    if (p < record.pipeline_times.size()) {
      const PipelineTiming& timing = record.pipeline_times[p];
      seconds = LabelSeconds(timing.run_seconds, timing.median_seconds,
                             runs_limit);
    }
    if (config.target == PredictionTarget::kPerTuple) {
      seconds /= std::max(features.input_cardinality, 1.0);
    }
    *target_out = TransformTarget(seconds);
  }
  for (const int dropped : config.drop_features) {
    if (dropped >= 0 && static_cast<size_t>(dropped) < num_features) {
      row_out[dropped] = 0.0;
    }
  }
}

}  // namespace

Result<TrainingMatrix> BuildTrainingMatrix(const Corpus& corpus,
                                           const RecordFilter& train_filter,
                                           CardinalityMode mode,
                                           const T3Config& config,
                                           int runs_limit, ThreadPool* pool) {
  const bool per_query = config.target == PredictionTarget::kPerQuery;

  // Pass 1 (sequential): assign row slots in corpus order. The first usable
  // row pins the feature dimension; later rows that disagree are skipped,
  // exactly like the per-record prediction paths.
  TrainingMatrix matrix;
  std::vector<RowSlot> slots;
  for (const QueryRecord& record : corpus.records) {
    if (train_filter ? !train_filter(record) : record.is_test) continue;
    const std::vector<PipelineFeatureVector>& features_set =
        mode == CardinalityMode::kTrue ? record.feat_true : record.feat_est;
    if (per_query) {
      const std::vector<double> summed = SummedQueryFeatures(record, mode);
      if (summed.empty()) continue;
      if (matrix.num_features == 0) matrix.num_features = summed.size();
      if (summed.size() != matrix.num_features) continue;
      slots.push_back({&record, -1, slots.size()});
    } else {
      for (size_t p = 0; p < features_set.size(); ++p) {
        if (features_set[p].values.empty()) continue;
        if (matrix.num_features == 0) {
          matrix.num_features = features_set[p].values.size();
        }
        if (features_set[p].values.size() != matrix.num_features) continue;
        slots.push_back({&record, static_cast<int>(p), slots.size()});
      }
    }
  }
  if (slots.empty()) {
    return InvalidArgumentError(
        "no usable training rows: the record filter selected no records "
        "with feature vectors");
  }

  // Pass 2: fill the pre-sized matrix. Every slot writes a disjoint range,
  // so parallel filling is race-free and bit-identical to the inline path.
  matrix.rows.resize(slots.size() * matrix.num_features);
  matrix.targets.resize(slots.size());
  auto fill_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      FillSlot(slots[i], mode, config, runs_limit, matrix.num_features,
               matrix.rows.data() + slots[i].row * matrix.num_features,
               matrix.targets.data() + slots[i].row);
    }
  };
  if (pool == nullptr || pool->num_threads() <= 1 || slots.size() < 2) {
    fill_range(0, slots.size());
  } else {
    const size_t chunk =
        (slots.size() + pool->num_threads() - 1) / pool->num_threads();
    for (size_t begin = 0; begin < slots.size(); begin += chunk) {
      const size_t end = std::min(begin + chunk, slots.size());
      pool->Submit([&fill_range, begin, end] { fill_range(begin, end); });
    }
    pool->Wait();
  }
  return matrix;
}

}  // namespace t3
