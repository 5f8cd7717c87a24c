#include "analysis/x86_decoder.h"

#include <initializer_list>

namespace t3 {
namespace {

bool Match(const uint8_t* code, size_t size, size_t offset,
           std::initializer_list<uint8_t> bytes) {
  if (size - offset < bytes.size()) return false;
  size_t i = offset;
  for (const uint8_t b : bytes) {
    if (code[i++] != b) return false;
  }
  return true;
}

uint32_t Read32(const uint8_t* code, size_t offset) {
  return static_cast<uint32_t>(code[offset]) |
         static_cast<uint32_t>(code[offset + 1]) << 8 |
         static_cast<uint32_t>(code[offset + 2]) << 16 |
         static_cast<uint32_t>(code[offset + 3]) << 24;
}

uint64_t Read64(const uint8_t* code, size_t offset) {
  return static_cast<uint64_t>(Read32(code, offset)) |
         static_cast<uint64_t>(Read32(code, offset + 4)) << 32;
}

}  // namespace

bool DecodeInstruction(const uint8_t* code, size_t size, size_t offset,
                       JitInstruction* out) {
  out->offset = offset;
  out->target = 0;
  out->disp = 0;
  out->imm = 0;
  if (Match(code, size, offset, {0xC3})) {
    out->op = JitOp::kRet;
    out->length = 1;
    return true;
  }
  if (Match(code, size, offset, {0x48, 0xB8})) {
    if (size - offset < 10) return false;
    out->op = JitOp::kMovRaxImm64;
    out->length = 10;
    out->imm = Read64(code, offset + 2);
    return true;
  }
  if (Match(code, size, offset, {0x66, 0x48, 0x0F, 0x6E, 0xC0})) {
    out->op = JitOp::kMovqXmm0Rax;
    out->length = 5;
    return true;
  }
  if (Match(code, size, offset, {0x66, 0x48, 0x0F, 0x6E, 0xC8})) {
    out->op = JitOp::kMovqXmm1Rax;
    out->length = 5;
    return true;
  }
  if (Match(code, size, offset, {0xF2, 0x0F, 0x10, 0x47})) {
    if (size - offset < 5) return false;
    out->op = JitOp::kLoadFeature8;
    out->length = 5;
    out->disp = code[offset + 4];
    return true;
  }
  if (Match(code, size, offset, {0xF2, 0x0F, 0x10, 0x87})) {
    if (size - offset < 8) return false;
    out->op = JitOp::kLoadFeature32;
    out->length = 8;
    out->disp = Read32(code, offset + 4);
    return true;
  }
  if (Match(code, size, offset, {0x66, 0x0F, 0x2E, 0xC8})) {
    out->op = JitOp::kUcomisdXmm1Xmm0;
    out->length = 4;
    return true;
  }
  if (Match(code, size, offset, {0x66, 0x0F, 0x2E, 0xC1})) {
    out->op = JitOp::kUcomisdXmm0Xmm1;
    out->length = 4;
    return true;
  }
  if (Match(code, size, offset, {0x0F, 0x87}) ||
      Match(code, size, offset, {0x0F, 0x82})) {
    if (size - offset < 6) return false;
    out->op = code[offset + 1] == 0x87 ? JitOp::kJa : JitOp::kJb;
    out->length = 6;
    const int32_t rel = static_cast<int32_t>(Read32(code, offset + 2));
    // Target relative to the end of the instruction; computed in signed
    // 64-bit so a wild rel32 cannot wrap back into the buffer.
    const int64_t target = static_cast<int64_t>(offset) + 6 + rel;
    // A negative target is clamped past the buffer so every later
    // range check fails it.
    out->target = target < 0 ? size + 1 : static_cast<size_t>(target);
    return true;
  }
  return false;
}

DecodedCode DecodeLinear(const uint8_t* code, size_t size) {
  DecodedCode decoded;
  size_t offset = 0;
  while (offset < size) {
    JitInstruction instruction;
    if (!DecodeInstruction(code, size, offset, &instruction)) {
      decoded.ok = false;
      decoded.error_offset = offset;
      return decoded;
    }
    decoded.instructions[offset] = instruction;
    offset += instruction.length;
  }
  decoded.ok = true;
  return decoded;
}

}  // namespace t3
