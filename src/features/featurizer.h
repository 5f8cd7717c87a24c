#ifndef T3_FEATURES_FEATURIZER_H_
#define T3_FEATURES_FEATURIZER_H_

#include <vector>

#include "common/status.h"
#include "features/feature_registry.h"
#include "plan/pipeline.h"
#include "plan/plan.h"
#include "storage/catalog.h"

namespace t3 {

/// Feature vector of one pipeline (the paper's getFeatureVectors, Listing 1);
/// also the corpus "FT"/"FE" line (harness/corpus.h).
struct PipelineFeatureVector {
  int pipeline = 0;
  double input_cardinality = 0.0;  ///< Pipeline driving cardinality.
  std::vector<double> values;      ///< Dense, kFeatureDim entries.
};

/// Per-node output cardinalities from the plan's own annotations — the
/// "estimated cardinalities" input of ComputePipelineFeatures (corpus "FE"
/// lines). The true-cardinality variant comes from measured
/// OperatorStats::rows_out (see harness/runner.h).
std::vector<double> NodeOutputRowsFromPlan(const PhysicalPlan& plan);

/// The 48-dim per-pipeline feature vectors of a decomposed plan.
///
/// For every pipeline, each node occurrence resolves to an operator-stage
/// (features/stage_catalog.h) and adds its contributions to that stage's
/// registered features — duplicate stages *add*, so e.g. two filters in one
/// pipeline double Filter_PassThrough_count and sum their percentages:
///   - count: 1 per occurrence;
///   - in/out cardinalities: tuples entering the occurrence (the stream
///     predecessor's output; the node's own output at the source) and
///     leaving it;
///   - in/out sizes: tuple widths in bytes of the same two flows;
///   - in/out/right percentages: the cardinalities above, divided by the
///     pipeline's driving cardinality (right = the join build side);
///   - predicate-class percentages: per filter predicate, the filter's input
///     percentage added to the (compare-class x column-type) slot.
///
/// `node_output_rows` holds one output cardinality per plan node, indexed by
/// node id; pass NodeOutputRowsFromPlan(plan) for estimated features or
/// measured counts for true features. The catalog resolves input column
/// types of filter predicates only: a plan whose filters carry predicates
/// must also carry payloads (a live plan), while a predicate-free skeleton
/// — e.g. a prediction-server kPredictPlan request — featurizes fine with
/// an empty catalog (its predicate-class slots just stay zero).
Result<std::vector<PipelineFeatureVector>> ComputePipelineFeatures(
    const Catalog& catalog, const PhysicalPlan& plan,
    const PipelineDecomposition& decomposition,
    const std::vector<double>& node_output_rows);

}  // namespace t3

#endif  // T3_FEATURES_FEATURIZER_H_
