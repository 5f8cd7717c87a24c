#ifndef T3_ANALYSIS_PLAN_VERIFIER_H_
#define T3_ANALYSIS_PLAN_VERIFIER_H_

#include <vector>

#include "common/report.h"
#include "plan/plan.h"
#include "plan/plan_record.h"

namespace t3 {

/// Static verifier for physical plans — the data-path counterpart of
/// ForestVerifier. It reports every invariant violation of a loaded plan,
/// independent of how it was built, so t3_lint can show a corrupted
/// fixture's full damage at once.
///
/// Diagnostics anchor `node` to the plan node index (`tree` stays -1; plans
/// have no tree axis). The structural checks are CheckPlanStructure
/// (plan/plan.h: plan-empty, plan-op, plan-arity, plan-topology,
/// plan-annotation, plan-payload, plan-root, plan-consumer), the same code
/// ValidatePlan runs, so the gate's rejection is this report's first error.
/// On a structurally sound plan it adds:
///   plan-extra      — node.extra diverges from PlanNodeExtra(node).
///   plan-stage      — stage tags diverge from a recomputed pipeline
///                     decomposition (e.g. a zeroed breaker tag).
///   plan-breaker    — a pipeline's source/sink/interior operator violates
///                     breaker placement (T3 §3 pipeline rules), or its
///                     driving cardinality is insane.
///   plan-schema     — catalog type-checking failed (only with a catalog).
///   plan-width      — width annotation diverges from the schema width
///                     (warning; callers may overwrite annotations).
class PlanVerifier {
 public:
  /// Verifies a payload-carrying plan. With a catalog, additionally resolves
  /// every operator edge's schema (the executor's type checks) and
  /// cross-checks width annotations.
  AnalysisReport Verify(const PhysicalPlan& plan,
                        const Catalog* catalog = nullptr) const;

  /// Verifies serialized plan rows (corpus "N" lines / "t3plan v1" files):
  /// PlanSkeletonFromRecords' extra check (a forged count stops here), a
  /// plan-stage Error per negative stage tag, then Verify over the
  /// skeleton. Skeletons carry no payloads, so catalog checks do not apply.
  AnalysisReport VerifyRecords(
      const std::vector<PlanNodeRecord>& records) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_PLAN_VERIFIER_H_
