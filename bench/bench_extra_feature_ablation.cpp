// Extension experiment (beyond the paper's Figure 13): which classes of
// basic features carry T3's accuracy? We retrain with individual feature
// kinds zeroed out — percentages, absolute cardinalities, tuple sizes,
// predicate-class percentages — and report the accuracy loss. Also prints
// the main model's top features by split count.

#include <algorithm>
#include <utility>

#include "bench_util.h"
#include "features/feature_registry.h"
#include "gbt/trainer.h"

namespace t3 {
namespace {

/// Registry indices of every feature of one of the given kinds.
std::vector<size_t> MaskedIndices(const std::vector<FeatureKind>& kinds) {
  const FeatureRegistry& registry = FeatureRegistry::Get();
  std::vector<size_t> masked;
  for (int i = 0; i < registry.num_features(); ++i) {
    for (FeatureKind kind : kinds) {
      if (registry.def(i).kind == kind) {
        masked.push_back(static_cast<size_t>(i));
        break;
      }
    }
  }
  return masked;
}

/// Trains a per-tuple model on the train split with the masked features
/// zeroed in every row (same recipe as Workbench::MainModel, fewer trees —
/// this binary trains one model per variant).
T3Model TrainMasked(const std::vector<const QueryRecord*>& train_records,
                    const std::vector<size_t>& masked) {
  const size_t num_features = static_cast<size_t>(kFeatureDim);
  std::vector<double> rows;
  std::vector<double> targets;
  for (const QueryRecord* record : train_records) {
    for (size_t p = 0; p < record->feat_true.size(); ++p) {
      const PipelineFeatureVector& features = record->feat_true[p];
      if (features.values.size() != num_features) continue;
      std::vector<double> row = features.values;
      for (size_t index : masked) row[index] = 0.0;
      const double pipeline_seconds =
          p < record->pipeline_times.size()
              ? record->pipeline_times[p].median_seconds
              : record->median_seconds;
      const double tuples = std::max(features.input_cardinality, 1.0);
      rows.insert(rows.end(), row.begin(), row.end());
      targets.push_back(TransformTarget(pipeline_seconds / tuples));
    }
  }
  T3_CHECK(!targets.empty());

  TrainParams params;
  params.num_trees = 80;
  params.max_leaves = 31;
  params.objective = Objective::kMape;
  params.validation_fraction = 0.1;
  params.early_stopping_rounds = 20;
  Result<Forest> forest = TrainForest(rows, targets, num_features, params,
                                      /*stats=*/nullptr);
  T3_CHECK_OK(forest);
  return T3Model(*std::move(forest), PredictionTarget::kPerTuple);
}

/// Q-error summary of `model` on the test split, with the same mask applied
/// to the evaluation features the model was trained without.
QErrorSummary EvaluateMasked(const T3Model& model,
                             const std::vector<const QueryRecord*>& records,
                             const std::vector<size_t>& masked) {
  std::vector<double> q_errors;
  q_errors.reserve(records.size());
  for (const QueryRecord* record : records) {
    double predicted = 0.0;
    for (const PipelineFeatureVector& features : record->feat_true) {
      std::vector<double> row = features.values;
      for (size_t index : masked) row[index] = 0.0;
      predicted +=
          model.PredictPipelineSeconds(row.data(), features.input_cardinality);
    }
    q_errors.push_back(QError(predicted, record->median_seconds));
  }
  return Summarize(q_errors);
}

void Run() {
  Workbench& workbench = bench::SharedWorkbench();
  const Corpus& corpus = workbench.corpus();
  const auto train_records = SelectRecords(corpus, bench::IsTrain);
  const auto test_records = SelectRecords(corpus, bench::IsTest);

  struct Variant {
    const char* label;
    std::vector<FeatureKind> masked;
  };
  const std::vector<Variant> variants = {
      {"full feature set (T3)", {}},
      {"no percentages",
       {FeatureKind::kInPercentage, FeatureKind::kRightPercentage,
        FeatureKind::kOutPercentage}},
      {"no absolute cardinalities",
       {FeatureKind::kInCard, FeatureKind::kOutCard}},
      {"no tuple sizes", {FeatureKind::kInSize, FeatureKind::kOutSize}},
      {"no predicate-class percentages",
       {FeatureKind::kPredicatePercentage}},
      {"counts only",
       {FeatureKind::kInPercentage, FeatureKind::kRightPercentage,
        FeatureKind::kOutPercentage, FeatureKind::kInCard,
        FeatureKind::kOutCard, FeatureKind::kInSize, FeatureKind::kOutSize,
        FeatureKind::kPredicatePercentage}},
  };

  PrintExperimentHeader(
      "Extension: feature-group ablation",
      "not in the paper; quantifies each basic-feature class's contribution "
      "to T3's accuracy (Section 3 motivates percentage as the most used "
      "feature).");
  ReportTable table({"Variant", "p50", "p90", "Avg"});
  for (const Variant& variant : variants) {
    const std::vector<size_t> masked = MaskedIndices(variant.masked);
    const T3Model model = TrainMasked(train_records, masked);
    const QErrorSummary summary = EvaluateMasked(model, test_records, masked);
    table.AddRow({variant.label, bench::FormatQ(summary.p50),
                  bench::FormatQ(summary.p90), bench::FormatQ(summary.avg)});
  }
  table.Print();

  // Top features of the main model by split count.
  const T3Model& main = workbench.MainModel();
  const std::vector<int> splits = FeatureSplitCounts(main.forest());
  std::vector<std::pair<int, size_t>> ranked;
  for (size_t i = 0; i < splits.size(); ++i) ranked.emplace_back(splits[i], i);
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("\ntop 12 features of the main model by split count:\n");
  for (size_t i = 0; i < 12 && i < ranked.size(); ++i) {
    std::printf("  %5d  %s\n", ranked[i].first,
                FeatureRegistry::Get()
                    .def(static_cast<int>(ranked[i].second))
                    .name.c_str());
  }
}

}  // namespace
}  // namespace t3

int main() {
  t3::Run();
  return 0;
}
