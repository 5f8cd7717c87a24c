#ifndef T3_ANALYSIS_JIT_AUDITOR_H_
#define T3_ANALYSIS_JIT_AUDITOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/report.h"
#include "analysis/x86_decoder.h"

namespace t3 {

/// Operand-shape assumptions the auditor checks against, spelled out as
/// constants instead of bare literals so a mismatch reads as "the emitter
/// contract changed", not "a magic number is wrong". Scalar tree code loads
/// one feature as an 8-byte movsd off the row base register; batch kernels
/// address a feature-major 8-lane block as two 32-byte ymm halves per
/// 64-byte feature column, and accumulate into a 64-byte (8-double) output.
inline constexpr uint32_t kScalarFeatureLoadBytes = 8;
inline constexpr const char* kScalarFeatureBaseRegister = "rdi";
inline constexpr const char* kBatchBlockBaseRegister = "rdi";
inline constexpr const char* kBatchAccumulatorBaseRegister = "rsi";
inline constexpr uint32_t kBatchLaneGroupBytes = 32;
inline constexpr uint32_t kBatchFeatureStrideBytes = 64;
inline constexpr uint32_t kBatchAccumulatorBytes = 64;

/// Static auditor over the raw bytes TreeJit emitted — the machine-code
/// half of the compiled-tree trust story. The forest IR was already
/// verified (ForestVerifier); this pass proves the *emission* did not break
/// anything, by linearly decoding the buffer with the shared whitelist-only
/// x86-64 decoder (analysis/x86_decoder.h) and checking, per tree function
/// region [entries[i], entries[i+1]):
///
///  - `unknown-opcode` / `truncated-instruction` (Error): every byte of the
///    buffer belongs to exactly one whitelisted instruction.
///  - `bad-entry` (Error): every entry offset is an instruction boundary
///    inside the buffer, in ascending order.
///  - `bad-branch-target` (Error): every ja/jb lands on an instruction
///    boundary inside its own function region — control flow can never
///    leave the buffer or jump mid-instruction.
///  - `oob-feature-load` (Error): every memory operand is
///    [kScalarFeatureBaseRegister + kScalarFeatureLoadBytes*k] with
///    k < num_features — a static proof the compiled tree cannot read
///    outside the caller's feature vector.
///  - `bad-scalar-layout` (Error): a batch-vocabulary (VEX/vector)
///    instruction inside scalar tree code — the shared decoder accepts
///    both vocabularies, so each audit pins its region to its own
///    emitter's subset.
///  - `fallthrough-out-of-region` (Error): no reachable instruction can
///    fall through past its region's end into the next tree's code.
///  - `unreachable-ret` (Error): every emitted ret is reachable from its
///    region entry — a dead ret means the emitter's layout logic broke.
///  - `unreachable-code` (Warning): any other unreachable instruction.
///
/// The auditor proves memory safety and control-flow containment; it says
/// nothing about *what* the code computes. That is the TranslationValidator's
/// job (analysis/translation_validator.h), which lifts the same decoded
/// stream back into decision trees and proves them equivalent to the IR.
///
/// The auditor is pure byte inspection: it runs on any host (including
/// non-x86-64 builds, where it still audits serialized buffers in tests).
class JitCodeAuditor {
 public:
  /// Audits `size` bytes of emitted code with tree functions starting at
  /// `entries` (ascending), for a forest with `num_features` features.
  AnalysisReport Audit(const uint8_t* code, size_t size,
                       const std::vector<size_t>& entries,
                       int num_features) const;

  /// Audits emitted AVX batch-kernel code (treejit EmitForestBatchCode):
  /// kernels at `entries`, constant pool from `pool_begin` (8-byte aligned
  /// within [pool_begin, size)) — only [0, pool_begin) is decoded. Checks,
  /// beyond the decode/entry checks shared with Audit:
  ///
  ///  - `branch-in-batch-kernel` (Error): kernels are straight-line; any
  ///    ja/jb breaks the masked-evaluation model.
  ///  - `bad-batch-layout` (Error): a scalar-emitter instruction (mov rax /
  ///    movq / movsd / ucomisd) inside a batch region, or a region that
  ///    does not end sub-frame-balanced with `[add rsp] vzeroupper ret` —
  ///    including an early ret, which would strand unreachable code.
  ///  - `bad-frame` (Error): sub rsp anywhere but first, add rsp anywhere
  ///    but third-from-last, mismatched or non-32-byte-aligned frame sizes.
  ///  - `oob-feature-load` (Error): every vcmppd lane load is a 32-byte ymm
  ///    half on a half boundary with disp + 32 <= 64 * num_features — the
  ///    batch analogue of the scalar row-bounds proof.
  ///  - `bad-spill` (Error): every [rsp + d] mask spill/reload has d
  ///    32-byte aligned and d + 32 <= the region's frame size.
  ///  - `oob-acc-access` (Error): every [rsi + d] accumulator access stays
  ///    inside the 64-byte (8-double) output block.
  ///  - `bad-pool-ref` (Error): every vbroadcastsd reads an aligned 8-byte
  ///    constant inside [pool_begin, size).
  ///
  /// Like Audit this proves safety and containment only; the
  /// BatchEquivalenceValidator proves the kernels compute the forest.
  AnalysisReport AuditBatch(const uint8_t* code, size_t size,
                            const std::vector<size_t>& entries,
                            size_t pool_begin, int num_features) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_JIT_AUDITOR_H_
