#include "analysis/differential_check.h"

#include <vector>

#include "analysis/interval_domain.h"
#include "common/string_util.h"

namespace t3 {

AnalysisReport BatchDifferentialCheck(const Forest& forest,
                                      const BatchPredictFn& predict_batch) {
  AnalysisReport report;
  const Status valid = forest.Validate();
  if (!valid.ok()) {
    report.Add(Severity::kError, "invalid-forest", -1, -1,
               StrFormat("differential check needs a valid forest: %s",
                         valid.message().c_str()));
    return report;
  }
  const size_t num_features = static_cast<size_t>(forest.num_features);
  std::vector<double> rows;
  for (const Tree& tree : forest.trees) {
    ForEachLeafCell(tree, FeatureBox::Full(forest.num_features),
                    [&rows](int, const FeatureBox& cell) {
                      const std::vector<double> row = cell.Witness();
                      rows.insert(rows.end(), row.begin(), row.end());
                    });
  }
  const size_t num_rows = rows.size() / num_features;
  if (num_rows == 0) return report;
  std::vector<double> got(num_rows, 0.0);
  predict_batch(rows.data(), num_rows, num_features, got.data());
  for (size_t i = 0; i < num_rows; ++i) {
    const double want = forest.Predict(rows.data() + i * num_features);
    if (DoubleBits(want) == DoubleBits(got[i])) continue;
    report.Add(
        Severity::kError, "batch-differential-mismatch", -1,
        static_cast<int>(i),
        StrFormat("witness row %zu: batch path returns %.17g (bits "
                  "0x%016llX) but the scalar forest returns %.17g (bits "
                  "0x%016llX)",
                  i, got[i],
                  static_cast<unsigned long long>(DoubleBits(got[i])), want,
                  static_cast<unsigned long long>(DoubleBits(want))));
    break;
  }
  return report;
}

}  // namespace t3
