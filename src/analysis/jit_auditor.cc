#include "analysis/jit_auditor.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"

namespace t3 {
namespace {

/// Index of the region holding `offset`: the last entry <= offset.
size_t RegionOf(const std::vector<size_t>& entries, size_t offset) {
  const auto it = std::upper_bound(entries.begin(), entries.end(), offset);
  return static_cast<size_t>(it - entries.begin()) - 1;
}

/// The entry-and-decode prologue of Audit: the entries are ascending
/// offsets inside the `size`-byte buffer with the first at 0, the buffer
/// decodes against the whitelist, and every entry lands on an instruction
/// boundary (decoding starts at 0, so an interior entry could still fall
/// mid-instruction if the emitter miscounted). An artifact with no entries
/// and no bytes — a zero-tree forest — passes. Returns false once `report`
/// holds an Error; the caller has nothing more to check then.
bool DecodeRegions(const uint8_t* code, size_t size,
                   const std::vector<size_t>& entries, DecodedCode* decoded,
                   AnalysisReport* report) {
  for (size_t i = 0; i < entries.size(); ++i) {
    const bool ascending = i == 0 || entries[i] > entries[i - 1];
    if (entries[i] >= size || !ascending) {
      report->Add(Severity::kError, "bad-entry", static_cast<int>(i),
                  static_cast<int>(entries[i]),
                  StrFormat("entry offset %zu not an ascending offset "
                            "inside the %zu-byte buffer",
                            entries[i], size));
      return false;
    }
  }
  if (entries.empty() ? size != 0 : entries[0] != 0) {
    report->Add(Severity::kError, "bad-entry", -1, -1,
                "first tree entry must be at offset 0");
    return false;
  }

  *decoded = DecodeLinear(code, size);
  if (!decoded->ok) {
    const size_t at = decoded->error_offset;
    // Fewer bytes left than the longest instruction (mov rax, imm64: 10)
    // reads as a cut-off instruction.
    report->Add(Severity::kError,
                size - at < 10 ? "truncated-instruction" : "unknown-opcode",
                static_cast<int>(RegionOf(entries, at)), static_cast<int>(at),
                StrFormat("byte 0x%02X is not in the emitter whitelist",
                          code[at]));
    return false;  // Byte stream is desynchronized; nothing more to say.
  }
  bool on_boundaries = true;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (decoded->instructions.count(entries[i]) == 0) {
      report->Add(Severity::kError, "bad-entry", static_cast<int>(i),
                  static_cast<int>(entries[i]),
                  "tree entry is not an instruction boundary");
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
  if (!DecodeRegions(code, size, entries, &decoded, &report)) {
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

}  // namespace t3
