#include "analysis/jit_auditor.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"

namespace t3 {
namespace {

/// The scalar tree emitter's vocabulary (TreeEmitter in treejit/jit.cc).
bool IsScalarOp(JitOp op) {
  switch (op) {
    case JitOp::kMovRaxImm64:
    case JitOp::kMovqXmm0Rax:
    case JitOp::kMovqXmm1Rax:
    case JitOp::kLoadFeature8:
    case JitOp::kLoadFeature32:
    case JitOp::kUcomisdXmm1Xmm0:
    case JitOp::kUcomisdXmm0Xmm1:
      return true;
    default:
      return false;
  }
}

/// The batch kernel emitter's vocabulary (BatchForestEmitter), excluding
/// ret, which both emitters share.
bool IsBatchOp(JitOp op) {
  switch (op) {
    case JitOp::kSubRspImm32:
    case JitOp::kAddRspImm32:
    case JitOp::kVzeroupper:
    case JitOp::kVbroadcastsd:
    case JitOp::kVcmppdRR:
    case JitOp::kVcmppdRdiMem:
    case JitOp::kVandpd:
    case JitOp::kVandnpd:
    case JitOp::kVorpd:
    case JitOp::kVxorpd:
    case JitOp::kVaddpdRsiMem:
    case JitOp::kVmovupdLoadRsp:
    case JitOp::kVmovupdStoreRsp:
    case JitOp::kVmovupdStoreRsi:
      return true;
    default:
      return false;
  }
}

/// Index of the region holding `offset`: the last entry <= offset.
size_t RegionOf(const std::vector<size_t>& entries, size_t offset) {
  const auto it = std::upper_bound(entries.begin(), entries.end(), offset);
  return static_cast<size_t>(it - entries.begin()) - 1;
}

/// The entry-and-decode prologue of Audit and AuditBatch (`batch` picks the
/// wording): the entries are ascending offsets inside the `limit`
/// instruction bytes with the first at 0, [0, limit) decodes against the
/// whitelist, and every entry lands on an instruction boundary (decoding
/// starts at 0, so an interior entry could still fall mid-instruction if
/// the emitter miscounted). An artifact with no entries and no instruction
/// bytes — a zero-tree forest — passes. Returns false once `report` holds
/// an Error; the caller has nothing more to check then.
bool DecodeRegions(const uint8_t* code, size_t limit,
                   const std::vector<size_t>& entries, bool batch,
                   DecodedCode* decoded, AnalysisReport* report) {
  const char* unit = batch ? "kernel" : "tree";
  for (size_t i = 0; i < entries.size(); ++i) {
    const bool ascending = i == 0 || entries[i] > entries[i - 1];
    if (entries[i] >= limit || !ascending) {
      report->Add(Severity::kError, "bad-entry", static_cast<int>(i),
                  static_cast<int>(entries[i]),
                  batch ? StrFormat("kernel entry offset %zu not an "
                                    "ascending offset inside the %zu "
                                    "instruction bytes",
                                    entries[i], limit)
                        : StrFormat("entry offset %zu not an ascending "
                                    "offset inside the %zu-byte buffer",
                                    entries[i], limit));
      return false;
    }
  }
  if (entries.empty() ? limit != 0 : entries[0] != 0) {
    report->Add(Severity::kError, "bad-entry", -1, -1,
                StrFormat("first %s entry must be at offset 0", unit));
    return false;
  }

  *decoded = DecodeLinear(code, limit);
  if (!decoded->ok) {
    const size_t at = decoded->error_offset;
    // Fewer bytes left than the vocabulary's longest instruction (scalar
    // mov rax, imm64: 10; batch vcmppd [rdi + disp32], imm8: 9) reads as a
    // cut-off instruction.
    const size_t longest = batch ? 9 : 10;
    report->Add(Severity::kError,
                limit - at < longest ? "truncated-instruction"
                                     : "unknown-opcode",
                batch ? -1 : static_cast<int>(RegionOf(entries, at)),
                static_cast<int>(at),
                batch ? StrFormat("byte 0x%02X at offset %zu is not in the "
                                  "emitter whitelist",
                                  code[at], at)
                      : StrFormat("byte 0x%02X is not in the emitter "
                                  "whitelist",
                                  code[at]));
    return false;  // Byte stream is desynchronized; nothing more to say.
  }
  bool on_boundaries = true;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (decoded->instructions.count(entries[i]) == 0) {
      report->Add(Severity::kError, "bad-entry", static_cast<int>(i),
                  static_cast<int>(entries[i]),
                  StrFormat("%s entry is not an instruction boundary", unit));
      on_boundaries = false;
    }
  }
  return on_boundaries;
}

}  // namespace

AnalysisReport JitCodeAuditor::Audit(const uint8_t* code, size_t size,
                                     const std::vector<size_t>& entries,
                                     int num_features) const {
  AnalysisReport report;
  // Pass 1: entries and the linear decode (shared decoder). Instruction
  // boundaries double as the branch target whitelist.
  DecodedCode decoded;
  if (!DecodeRegions(code, size, entries, /*batch=*/false, &decoded,
                     &report)) {
    return report;
  }
  const std::map<size_t, JitInstruction>& instructions = decoded.instructions;
  const auto region_end = [&entries, size](size_t region) -> size_t {
    return region + 1 < entries.size() ? entries[region + 1] : size;
  };

  // Pass 2: per-instruction operand checks.
  for (const auto& [at, instruction] : instructions) {
    const size_t region = RegionOf(entries, at);
    const int tree = static_cast<int>(region);
    const int node = static_cast<int>(at);
    if (IsBatchOp(instruction.op)) {
      report.Add(Severity::kError, "bad-scalar-layout", tree, node,
                 StrFormat("batch/vector instruction at byte offset %zu in "
                           "scalar tree code, whose only memory accesses "
                           "are %u-byte feature loads off %s",
                           at, kScalarFeatureLoadBytes,
                           kScalarFeatureBaseRegister));
    }
    if (instruction.op == JitOp::kLoadFeature8 ||
        instruction.op == JitOp::kLoadFeature32) {
      const uint32_t disp = instruction.disp;
      if (disp % kScalarFeatureLoadBytes != 0 ||
          disp / kScalarFeatureLoadBytes >=
              static_cast<uint32_t>(std::max(num_features, 0))) {
        report.Add(Severity::kError, "oob-feature-load", tree, node,
                   StrFormat("movsd xmm0, [%s + %u] at byte offset %zu "
                             "reads outside the %d-feature row of %u-byte "
                             "features",
                             kScalarFeatureBaseRegister, disp, at,
                             num_features, kScalarFeatureLoadBytes));
      }
    }
    if (instruction.op == JitOp::kJa || instruction.op == JitOp::kJb) {
      const size_t target = instruction.target;
      const bool in_region =
          target >= entries[region] && target < region_end(region);
      if (!in_region || instructions.find(target) == instructions.end()) {
        report.Add(Severity::kError, "bad-branch-target", tree, node,
                   StrFormat("branch to offset %zu, outside region "
                             "[%zu, %zu) or mid-instruction",
                             target, entries[region], region_end(region)));
      }
    }
  }
  if (report.HasErrors()) return report;

  // Pass 3: control-flow reachability per region. Successors: ret has
  // none; ja/jb fall through and jump; everything else falls through.
  std::map<size_t, char> reachable;
  for (size_t region = 0; region < entries.size(); ++region) {
    const size_t end = region_end(region);
    std::vector<size_t> work = {entries[region]};
    while (!work.empty()) {
      const size_t at = work.back();
      work.pop_back();
      if (reachable[at]) continue;
      reachable[at] = 1;
      const JitInstruction& instruction = instructions.at(at);
      if (instruction.op == JitOp::kRet) continue;
      if (instruction.op == JitOp::kJa || instruction.op == JitOp::kJb) {
        work.push_back(instruction.target);
      }
      const size_t next = at + instruction.length;
      if (next >= end) {
        report.Add(Severity::kError, "fallthrough-out-of-region",
                   static_cast<int>(region), static_cast<int>(at),
                   "execution can fall through past the end of this tree's "
                   "code");
        continue;
      }
      work.push_back(next);
    }
  }
  for (const auto& [at, instruction] : instructions) {
    if (reachable[at]) continue;
    const bool is_ret = instruction.op == JitOp::kRet;
    report.Add(is_ret ? Severity::kError : Severity::kWarning,
               is_ret ? "unreachable-ret" : "unreachable-code",
               static_cast<int>(RegionOf(entries, at)), static_cast<int>(at),
               is_ret ? "ret instruction unreachable from its tree entry"
                      : "instruction unreachable from its tree entry");
  }
  return report;
}

AnalysisReport JitCodeAuditor::AuditBatch(const uint8_t* code, size_t size,
                                          const std::vector<size_t>& entries,
                                          size_t pool_begin,
                                          int num_features) const {
  AnalysisReport report;
  if (pool_begin > size) {
    report.Add(Severity::kError, "bad-pool-ref", -1, -1,
               StrFormat("constant pool begins at byte offset %zu, past the "
                         "%zu-byte buffer",
                         pool_begin, size));
    return report;
  }
  // Only [0, pool_begin) is instructions; the constant pool is data.
  DecodedCode decoded;
  if (!DecodeRegions(code, pool_begin, entries, /*batch=*/true, &decoded,
                     &report)) {
    return report;
  }

  const uint64_t block_bytes =
      static_cast<uint64_t>(kBatchFeatureStrideBytes) *
      static_cast<uint64_t>(std::max(num_features, 0));
  for (size_t region = 0; region < entries.size(); ++region) {
    const size_t begin = entries[region];
    const size_t end =
        region + 1 < entries.size() ? entries[region + 1] : pool_begin;
    const int tree = static_cast<int>(region);
    std::vector<const JitInstruction*> seq;
    for (auto it = decoded.instructions.lower_bound(begin);
         it != decoded.instructions.end() && it->first < end; ++it) {
      seq.push_back(&it->second);
    }
    const size_t n = seq.size();
    // Frame discipline: an optional leading `sub rsp, S` balanced by
    // exactly one `add rsp, S` right before the `vzeroupper; ret` tail.
    // With branches forbidden below, a well-formed tail also proves every
    // instruction is reachable and execution cannot leave the region.
    const bool has_frame = n > 0 && seq[0]->op == JitOp::kSubRspImm32;
    const uint32_t frame = has_frame ? seq[0]->disp : 0;
    if (has_frame && (frame == 0 || frame % kBatchLaneGroupBytes != 0)) {
      report.Add(Severity::kError, "bad-frame", tree,
                 static_cast<int>(seq[0]->offset),
                 StrFormat("sub rsp, %u at byte offset %zu is not a "
                           "positive multiple of %u",
                           frame, seq[0]->offset, kBatchLaneGroupBytes));
    }
    const size_t tail = has_frame ? 3 : 2;
    if (n < tail + 1 || seq[n - 1]->op != JitOp::kRet ||
        seq[n - 2]->op != JitOp::kVzeroupper ||
        (has_frame && seq[n - 3]->op != JitOp::kAddRspImm32)) {
      report.Add(Severity::kError, "bad-batch-layout", tree,
                 static_cast<int>(n == 0 ? begin : seq[n - 1]->offset),
                 has_frame
                     ? "kernel region does not end with add rsp; "
                       "vzeroupper; ret"
                     : "kernel region does not end with vzeroupper; ret");
      continue;
    }
    if (has_frame && seq[n - 3]->disp != frame) {
      report.Add(Severity::kError, "bad-frame", tree,
                 static_cast<int>(seq[n - 3]->offset),
                 StrFormat("add rsp, %u at byte offset %zu does not match "
                           "sub rsp, %u",
                           seq[n - 3]->disp, seq[n - 3]->offset, frame));
    }
    for (size_t i = 0; i < n; ++i) {
      const JitInstruction& ins = *seq[i];
      const size_t at = ins.offset;
      const int node = static_cast<int>(at);
      if (ins.op == JitOp::kJa || ins.op == JitOp::kJb) {
        report.Add(Severity::kError, "branch-in-batch-kernel", tree, node,
                   StrFormat("branch at byte offset %zu in a straight-line "
                             "masked kernel",
                             at));
        continue;
      }
      if (IsScalarOp(ins.op)) {
        report.Add(Severity::kError, "bad-batch-layout", tree, node,
                   StrFormat("scalar tree instruction at byte offset %zu "
                             "inside a batch kernel",
                             at));
        continue;
      }
      switch (ins.op) {
        case JitOp::kRet:
          if (i != n - 1) {
            report.Add(Severity::kError, "bad-batch-layout", tree, node,
                       StrFormat("early ret at byte offset %zu strands the "
                                 "rest of the kernel",
                                 at));
          }
          break;
        case JitOp::kVzeroupper:
          if (i != n - 2) {
            report.Add(Severity::kError, "bad-batch-layout", tree, node,
                       StrFormat("vzeroupper at byte offset %zu, not "
                                 "immediately before ret",
                                 at));
          }
          break;
        case JitOp::kSubRspImm32:
          if (i != 0) {
            report.Add(Severity::kError, "bad-frame", tree, node,
                       StrFormat("sub rsp at byte offset %zu, not at the "
                                 "kernel entry",
                                 at));
          }
          break;
        case JitOp::kAddRspImm32:
          if (!has_frame || i != n - 3) {
            report.Add(Severity::kError, "bad-frame", tree, node,
                       StrFormat("add rsp at byte offset %zu outside the "
                                 "frame epilogue",
                                 at));
          }
          break;
        case JitOp::kVcmppdRdiMem:
          if (ins.disp % kBatchLaneGroupBytes != 0 ||
              static_cast<uint64_t>(ins.disp) + kBatchLaneGroupBytes >
                  block_bytes) {
            report.Add(
                Severity::kError, "oob-feature-load", tree, node,
                StrFormat("vcmppd lane load [%s + %u] at byte offset %zu "
                          "reads outside the %d-feature block (%u bytes "
                          "per feature column)",
                          kBatchBlockBaseRegister, ins.disp, at,
                          num_features, kBatchFeatureStrideBytes));
          }
          break;
        case JitOp::kVmovupdLoadRsp:
        case JitOp::kVmovupdStoreRsp:
          if (!has_frame || ins.disp % kBatchLaneGroupBytes != 0 ||
              static_cast<uint64_t>(ins.disp) + kBatchLaneGroupBytes >
                  frame) {
            report.Add(Severity::kError, "bad-spill", tree, node,
                       StrFormat("mask spill [rsp + %u] at byte offset %zu "
                                 "outside the %u-byte frame",
                                 ins.disp, at, frame));
          }
          break;
        case JitOp::kVaddpdRsiMem:
        case JitOp::kVmovupdStoreRsi:
          if (ins.disp % kBatchLaneGroupBytes != 0 ||
              ins.disp + kBatchLaneGroupBytes > kBatchAccumulatorBytes) {
            report.Add(
                Severity::kError, "oob-acc-access", tree, node,
                StrFormat("accumulator access [%s + %u] at byte offset %zu "
                          "outside the %u-byte output block",
                          kBatchAccumulatorBaseRegister, ins.disp, at,
                          kBatchAccumulatorBytes));
          }
          break;
        case JitOp::kVbroadcastsd:
          if (ins.target % 8 != 0 || ins.target < pool_begin ||
              ins.target + 8 > size) {
            report.Add(
                Severity::kError, "bad-pool-ref", tree, node,
                StrFormat("vbroadcastsd at byte offset %zu reads buffer "
                          "offset %zu, outside the aligned constant pool "
                          "in [%zu, %zu)",
                          at, ins.target, pool_begin, size));
          }
          break;
        default:
          break;  // Reg-reg vector ops touch no memory.
      }
    }
  }
  return report;
}

}  // namespace t3
