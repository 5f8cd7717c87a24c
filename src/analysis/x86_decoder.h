#ifndef T3_ANALYSIS_X86_DECODER_H_
#define T3_ANALYSIS_X86_DECODER_H_

#include <cstddef>
#include <cstdint>
#include <map>

namespace t3 {

/// The instruction vocabulary TreeJit emits — nothing else may appear in an
/// audited buffer. Shared by every machine-code analysis pass
/// (JitCodeAuditor, TreeLifter) and by their tests.
enum class JitOp {
  kMovRaxImm64,     ///< 48 B8 imm64            mov rax, <bits>
  kMovqXmm0Rax,     ///< 66 48 0F 6E C0         movq xmm0, rax
  kMovqXmm1Rax,     ///< 66 48 0F 6E C8         movq xmm1, rax
  kLoadFeature8,    ///< F2 0F 10 47 disp8      movsd xmm0, [rdi + disp8]
  kLoadFeature32,   ///< F2 0F 10 87 disp32     movsd xmm0, [rdi + disp32]
  kUcomisdXmm1Xmm0, ///< 66 0F 2E C8            ucomisd xmm1, xmm0
  kUcomisdXmm0Xmm1, ///< 66 0F 2E C1            ucomisd xmm0, xmm1
  kJa,              ///< 0F 87 rel32            ja <target>
  kJb,              ///< 0F 82 rel32            jb <target>
  kRet,             ///< C3                     ret
};

/// One decoded instruction of an emitted code buffer.
struct JitInstruction {
  JitOp op;
  size_t offset = 0;  ///< Byte offset in the code buffer.
  size_t length = 0;  ///< Encoded length in bytes.
  size_t target = 0;  ///< Branch destination (kJa / kJb only).
  uint32_t disp = 0;  ///< Feature-load displacement (kLoadFeature*).
  uint64_t imm = 0;   ///< Immediate bits (kMovRaxImm64 only).
};

/// Decodes one instruction at `offset` against the emitter whitelist; false
/// when the bytes match nothing in it (a VEX-encoded vector op, say). Pure
/// byte inspection — works on any host, including non-x86-64 builds
/// auditing serialized buffers.
bool DecodeInstruction(const uint8_t* code, size_t size, size_t offset,
                       JitInstruction* out);

/// A whole buffer decoded front to back. On failure `instructions` holds
/// everything decoded before the stream desynchronized at `error_offset`.
struct DecodedCode {
  /// Instructions keyed by byte offset; the key set doubles as the set of
  /// valid instruction boundaries (branch targets, tree entries).
  std::map<size_t, JitInstruction> instructions;
  bool ok = false;
  size_t error_offset = 0;  ///< First undecodable offset (when !ok).
};

/// Linearly decodes `size` bytes starting at offset 0. Every byte must
/// belong to exactly one whitelisted instruction for `ok` to hold.
DecodedCode DecodeLinear(const uint8_t* code, size_t size);

}  // namespace t3

#endif  // T3_ANALYSIS_X86_DECODER_H_
