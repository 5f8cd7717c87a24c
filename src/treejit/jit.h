#ifndef T3_TREEJIT_JIT_H_
#define T3_TREEJIT_JIT_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/report.h"
#include "common/status.h"
#include "treejit/evaluator.h"

namespace t3 {

/// Machine code emitted for a forest, before it is mapped executable: the
/// raw bytes plus each tree function's entry offset. Exposed separately
/// from Compile so ProveForestCode, t3_lint and tests can inspect the exact
/// bytes that would run.
struct JitArtifact {
  std::vector<uint8_t> code;
  std::vector<size_t> entries;  ///< One per tree, ascending, [0] == 0.
  int num_features = 0;
};

/// Emits (but does not map or run) x86-64 code for `forest`. Fails on a
/// structurally invalid forest and on non-x86-64 builds.
Result<JitArtifact> EmitForestCode(const Forest& forest);

/// ProveForestCode's reports, one per pass (src/analysis documents what
/// each proves).
struct ForestCodeProof {
  AnalysisReport audit;        ///< JitCodeAuditor::Audit.
  AnalysisReport translation;  ///< TranslationValidator.

  /// OK, or InternalError naming the first pass with an Error finding.
  Status ToStatus() const;
};

/// The one wiring of the JIT proof stack: runs both passes over the exact
/// bytes EmitForestCode produced for `forest`. Every pass runs, whatever
/// the other finds. CompiledForest::Compile (debug builds) and t3_lint gate
/// on this function; any Error is an emitter bug, never a property of the
/// already validated forest.
ForestCodeProof ProveForestCode(const Forest& forest,
                                const JitArtifact& artifact);

/// A forest compiled to native x86-64 machine code, the paper's core
/// latency optimization (Tables 1-2, Figure 5): each inner node becomes a
/// compare + conditional branch, each leaf a return — the same scheme as
/// lleaves, without the LLVM dependency.
///
/// Each tree is emitted as one function `double (*)(const double* row)`
/// (System V AMD64: row in rdi, result in xmm0); Predict sums the tree
/// results after base_score in tree order, so predictions are bit-identical
/// to the interpreted evaluators.
///
/// Code lives in mmap'd memory managed W^X: pages are writable during
/// emission, then flipped to read+execute — never both.
///
/// PredictBatch is the base class's per-row loop over Predict.
///
/// Debug builds prove the emitted bytes with ProveForestCode before mapping
/// them; a finding fails Compile with InternalError. Release builds skip
/// the proof (roughly one interval walk per leaf: well under a model load,
/// but not free on the model-reload path); the tests run it on the same
/// bytes.
///
/// A forest with no trees compiles to no code: a constant model that
/// predicts base_score.
///
/// Compile returns an error (and callers fall back to the interpreters) on:
///  - non-x86-64 hosts,
///  - mmap/mprotect failure,
///  - a structurally invalid forest.
class CompiledForest : public ForestEvaluator {
 public:
  static Result<std::unique_ptr<CompiledForest>> Compile(const Forest& forest);

  ~CompiledForest() override;
  CompiledForest(const CompiledForest&) = delete;
  CompiledForest& operator=(const CompiledForest&) = delete;

  double Predict(const double* row) const override;

  /// Bytes of emitted machine code (before page rounding).
  size_t code_size() const { return code_size_; }

 private:
  using TreeFn = double (*)(const double*);

  CompiledForest() = default;

  double base_score_ = 0.0;
  std::vector<TreeFn> tree_fns_;
  void* code_ = nullptr;       // mmap'd region, PROT_READ | PROT_EXEC.
  size_t mapped_size_ = 0;
  size_t code_size_ = 0;
};

/// True when this build can JIT-compile forests (x86-64 with mmap).
bool JitSupported();

}  // namespace t3

#endif  // T3_TREEJIT_JIT_H_
