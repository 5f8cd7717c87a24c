#include "analysis/forest_diff.h"

#include <limits>
#include <vector>

#include "analysis/interval_domain.h"
#include "common/string_util.h"

namespace t3 {
namespace {

/// Exact range of treeA(x) - treeB(x) over all rows x: every feasible
/// (A-cell, B-cell) intersection contributes its leaf-value difference.
ForestDiffBounds TreePairRange(const Tree& a, const Tree& b,
                               int num_features) {
  ForestDiffBounds range{std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  ForEachLeafCell(a, FeatureBox::Full(num_features),
                  [&](int a_leaf, const FeatureBox& a_cell) {
                    const double a_value =
                        a.nodes[static_cast<size_t>(a_leaf)].value;
                    ForEachLeafCell(
                        b, a_cell, [&](int b_leaf, const FeatureBox&) {
                          const double d =
                              a_value -
                              b.nodes[static_cast<size_t>(b_leaf)].value;
                          range.min = std::min(range.min, d);
                          range.max = std::max(range.max, d);
                        });
                  });
  return range;
}

/// Range of a single tree's output over all reachable leaves.
ForestDiffBounds TreeRange(const Tree& tree, int num_features) {
  ForestDiffBounds range{std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  ForEachLeafCell(tree, FeatureBox::Full(num_features),
                  [&](int leaf, const FeatureBox&) {
                    const double v =
                        tree.nodes[static_cast<size_t>(leaf)].value;
                    range.min = std::min(range.min, v);
                    range.max = std::max(range.max, v);
                  });
  return range;
}

}  // namespace

Result<ForestDiffBounds> ForestDiff(const Forest& a, const Forest& b) {
  for (const Forest* forest : {&a, &b}) {
    const Status valid = forest->Validate();
    if (!valid.ok()) {
      return InvalidArgumentError(StrFormat(
          "ForestDiff input invalid: %s", valid.message().c_str()));
    }
  }
  if (a.num_features != b.num_features) {
    return InvalidArgumentError(
        StrFormat("ForestDiff feature spaces differ: %d vs %d",
                  a.num_features, b.num_features));
  }

  ForestDiffBounds bounds{a.base_score - b.base_score,
                          a.base_score - b.base_score};
  const size_t paired = std::min(a.trees.size(), b.trees.size());
  for (size_t t = 0; t < paired; ++t) {
    const ForestDiffBounds pair =
        TreePairRange(a.trees[t], b.trees[t], a.num_features);
    bounds.min += pair.min;
    bounds.max += pair.max;
  }
  for (size_t t = paired; t < a.trees.size(); ++t) {
    const ForestDiffBounds extra = TreeRange(a.trees[t], a.num_features);
    bounds.min += extra.min;
    bounds.max += extra.max;
  }
  for (size_t t = paired; t < b.trees.size(); ++t) {
    const ForestDiffBounds extra = TreeRange(b.trees[t], b.num_features);
    bounds.min -= extra.max;
    bounds.max -= extra.min;
  }
  return bounds;
}

Status ProveForestsEqual(const Forest& a, const Forest& b) {
  Result<ForestDiffBounds> drift = ForestDiff(a, b);
  if (!drift.ok()) return drift.status();
  if (drift->MaxAbs() != 0.0) {
    return InternalError(StrFormat(
        "forests differ by up to %.17g over the input space",
        drift->MaxAbs()));
  }
  return Status::OK();
}

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
