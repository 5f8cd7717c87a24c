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
/// contract changed", not "a magic number is wrong": tree code loads one
/// feature as an 8-byte movsd off the row base register.
inline constexpr uint32_t kScalarFeatureLoadBytes = 8;
inline constexpr const char* kScalarFeatureBaseRegister = "rdi";

/// Static auditor over the raw bytes TreeJit emitted — the machine-code
/// half of the compiled-tree trust story. The forest IR was already
/// verified (ForestVerifier); this pass proves the *emission* did not break
/// anything, by linearly decoding the buffer with the shared whitelist-only
/// x86-64 decoder (analysis/x86_decoder.h) and checking, per tree function
/// region [entries[i], entries[i+1]):
///
///  - `unknown-opcode` / `truncated-instruction` (Error): every byte of the
///    buffer belongs to exactly one whitelisted instruction. The whitelist
///    is the scalar emitter's vocabulary only, so a VEX/vector op anywhere
///    in the buffer fails here.
///  - `bad-entry` (Error): every entry offset is an instruction boundary
///    inside the buffer, in ascending order.
///  - `bad-branch-target` (Error): every ja/jb lands on an instruction
///    boundary inside its own function region — control flow can never
///    leave the buffer or jump mid-instruction.
///  - `oob-feature-load` (Error): every memory operand is
///    [kScalarFeatureBaseRegister + kScalarFeatureLoadBytes*k] with
///    k < num_features — a static proof the compiled tree cannot read
///    outside the caller's feature vector.
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
};

}  // namespace t3

#endif  // T3_ANALYSIS_JIT_AUDITOR_H_
