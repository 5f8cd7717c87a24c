#ifndef T3_ANALYSIS_FOREST_VERIFIER_H_
#define T3_ANALYSIS_FOREST_VERIFIER_H_

#include "common/report.h"
#include "gbt/forest.h"

namespace t3 {

/// Static verifier over the loaded gbt::Forest IR — the front half of the
/// compiled-tree trust chain (the JitCodeAuditor is the back half: it checks
/// the machine code emitted *from* a forest this pass accepted).
///
/// Error-severity checks: CheckForestHeader and CheckTreeStructure
/// (gbt/forest.h), the same code Forest::Validate runs, so the loader's
/// and CompiledForest::Compile's rejection is this report's first error.
///
/// Warning-severity checks, run on every walkable tree (model still loads;
/// the trainer should never produce these, so they flag a corrupt or
/// hand-edited file):
///  - `dead-branch`: a child no input can reach, proven by propagating the
///    per-feature interval each ancestor split implies (NaN routing
///    included: a numerically empty side is only dead if NaN cannot be
///    routed there either).
///  - `duplicate-threshold`: a split repeating an ancestor's exact
///    (feature, threshold) pair — one side is necessarily dead.
///  - `inconsistent-nan-routing`: a feature split with default_left=true in
///    one place and false in another; legal, but our trainer emits a single
///    routing policy, so mixed flags mean the file was not produced by it.
class ForestVerifier {
 public:
  /// Runs every pass; never mutates the forest, never gives up early —
  /// the report lists all findings.
  AnalysisReport Verify(const Forest& forest) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_FOREST_VERIFIER_H_
