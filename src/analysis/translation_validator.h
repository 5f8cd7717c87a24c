#ifndef T3_ANALYSIS_TRANSLATION_VALIDATOR_H_
#define T3_ANALYSIS_TRANSLATION_VALIDATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/report.h"
#include "analysis/tree_lifter.h"
#include "gbt/forest.h"

namespace t3 {

/// Translation validator: a static proof that the machine code TreeJit
/// emitted computes exactly the forest it was emitted from. This closes the
/// gap the JitCodeAuditor leaves open — the auditor proves the bytes are
/// *safe* (contained control flow, in-bounds loads); this pass proves they
/// are *correct*.
///
/// Pipeline, per tree region [entries[i], entries[i+1]):
///  1. Decode the bytes with the shared x86 decoder and lift them back into
///     a decision tree (analysis/tree_lifter.h) — feature index, threshold
///     bits, NaN-routing polarity, and leaf bits per path.
///  2. Structural pass against gbt::Forest tree i: same shape under the
///     emitter's node correspondence (IR left child = branch target, right
///     child = fallthrough), bit-equal thresholds and leaf values, matching
///     split feature and NaN routing. Checks: `shape-mismatch`,
///     `feature-mismatch`, `threshold-mismatch`, `leaf-value-mismatch`,
///     `nan-routing-mismatch`, `branch-polarity-mismatch` (all Error).
///  3. Semantic pass (`semantic-mismatch`, Error): an interval-analysis
///     proof that the lifted tree and the IR tree agree as *functions*.
///     Descending the IR tree partitions the feature space into its leaf
///     cells — axis-aligned boxes over the exact ordered-key domain
///     (analysis/interval_domain.h), where every split threshold, ±inf, and
///     denormal boundary is an integer bound and NaN is tracked per
///     feature. For each cell, every lifted leaf reachable under that cell
///     must return the IR leaf's exact bits. Because the cells cover the
///     whole domain and the arithmetic is exact, agreement on every cell is
///     a proof of pointwise equality, not a sample test.
///
/// Both passes always run (a structurally different buffer still gets a
/// semantic verdict with a concrete witness row). Per-tree equivalence
/// plus identical summation order in CompiledForest::Predict gives forest
/// equivalence. The pass is pure byte inspection and runs on any host.
class TranslationValidator {
 public:
  /// Validates emitted code (`code`/`size`, tree functions at `entries`)
  /// against `forest`. The forest must pass Forest::Validate — a
  /// `invalid-forest` error is reported otherwise. `tree-count-mismatch`
  /// is reported when the region and tree counts differ.
  AnalysisReport Validate(const Forest& forest, const uint8_t* code,
                          size_t size,
                          const std::vector<size_t>& entries) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_TRANSLATION_VALIDATOR_H_
