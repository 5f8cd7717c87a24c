#ifndef T3_ANALYSIS_TREE_LIFTER_H_
#define T3_ANALYSIS_TREE_LIFTER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/report.h"
#include "analysis/x86_decoder.h"

namespace t3 {

/// One node of a decision tree lifted back out of emitted machine code.
///
/// An inner node is a branch: control transfers to `jump_child` when the
/// lifted predicate holds and falls through to `fall_child` otherwise. The
/// predicate is `x[feature] <cmp> threshold`, with NaN (any unordered
/// ucomisd) taking the jump iff `nan_jumps`. All four ucomisd/jcc
/// combinations the decoder can see are liftable:
///
///   ucomisd xmm1, xmm0 ; ja   ->  jump iff x < t,  NaN falls through
///   ucomisd xmm0, xmm1 ; jb   ->  jump iff x < t,  NaN jumps
///   ucomisd xmm1, xmm0 ; jb   ->  jump iff x > t,  NaN jumps
///   ucomisd xmm0, xmm1 ; ja   ->  jump iff x > t,  NaN falls through
///
/// The emitter only ever produces the first two (jump = left child), but the
/// lifter models the full semantics so a corrupted buffer (e.g. a swapped
/// branch-polarity byte) lifts to *what the bytes actually compute* and is
/// then caught as an equivalence error, not hidden behind a parse failure.
struct LiftedNode {
  enum class Cmp { kLt, kGt };

  bool is_leaf = false;
  size_t offset = 0;        ///< Byte offset of the node's first instruction.
  uint64_t value_bits = 0;  ///< Leaf: returned double, as raw bits.
  int feature = -1;
  uint64_t threshold_bits = 0;  ///< Raw bits — may be NaN in corrupt code.
  Cmp cmp = Cmp::kLt;
  bool nan_jumps = false;
  int jump_child = -1;
  int fall_child = -1;
};

/// One tree function lifted from its code region. Node 0 is the entry.
/// The node graph is guaranteed acyclic (the lifter rejects cycles), but it
/// may be a DAG in corrupt code — consumers must not assume a tree.
struct LiftedTree {
  std::vector<LiftedNode> nodes;
};

/// Lifts every tree region of an emitted buffer back into decision trees.
///
/// Consumes the shared decoder's instruction stream (the same one
/// JitCodeAuditor audits) and pattern-matches the emitter's two node
/// shapes — leaf: `mov rax, bits; movq xmm0, rax; ret`; inner: `mov rax,
/// bits; movq xmm1, rax; movsd xmm0, [rdi+8k]; ucomisd; jcc` — grouping the
/// region's instructions into nodes and linking jump targets and
/// fallthroughs. Diagnostics (all Error severity):
///
///  - `undecodable-code`: the buffer does not linearly decode.
///  - `unliftable-code`: a region's instructions do not group into the two
///    node shapes (e.g. a stray compare, a branch into the middle of a
///    node, or a region not starting with `mov rax`).
///  - `lifted-cycle`: a branch creates a control-flow cycle — the machine
///    code can loop forever, which no decision tree does.
///
/// Lifting is pure byte inspection and runs on any host.
class TreeLifter {
 public:
  /// Lifts all regions ([entries[i], entries[i+1]), last closed by `size`).
  /// On success `out` has one LiftedTree per entry. Any diagnostic means
  /// the corresponding tree (and possibly later ones) is missing from
  /// `out`; callers must check `report->HasErrors()` first.
  void LiftForest(const uint8_t* code, size_t size,
                  const std::vector<size_t>& entries,
                  std::vector<LiftedTree>* out, AnalysisReport* report) const;

  /// Lifts one region [begin, end) of an already-decoded buffer. Returns
  /// false (with diagnostics appended, `tree_index` as location) on any
  /// lift failure.
  bool LiftTree(const std::map<size_t, JitInstruction>& instructions,
                size_t begin, size_t end, int tree_index, LiftedTree* out,
                AnalysisReport* report) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_TREE_LIFTER_H_
