#include "treejit/jit.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "analysis/jit_auditor.h"
#include "analysis/translation_validator.h"
#include "common/string_util.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define T3_HAVE_MMAP 1
#else
#define T3_HAVE_MMAP 0
#endif

#if defined(__x86_64__) && T3_HAVE_MMAP
#define T3_JIT_X86_64 1
#else
#define T3_JIT_X86_64 0
#endif

namespace t3 {

bool JitSupported() { return T3_JIT_X86_64 != 0; }

Status ForestCodeProof::ToStatus() const {
  const std::pair<const AnalysisReport*, const char*> passes[] = {
      {&audit, "JIT audit"},
      {&translation, "translation validation"},
  };
  for (const auto& [report, name] : passes) {
    if (report->HasErrors()) {
      return InternalError(StrFormat("%s rejected emitted code: %s", name,
                                     report->ToStatus().message().c_str()));
    }
  }
  return Status::OK();
}

ForestCodeProof ProveForestCode(const Forest& forest,
                                const JitArtifact& artifact) {
  ForestCodeProof proof;
  proof.audit =
      JitCodeAuditor().Audit(artifact.code.data(), artifact.code.size(),
                             artifact.entries, artifact.num_features);
  proof.translation = TranslationValidator().Validate(
      forest, artifact.code.data(), artifact.code.size(), artifact.entries);
  return proof;
}

#if T3_JIT_X86_64

namespace {

/// Append-only machine-code buffer with rel32 patching.
class CodeBuffer {
 public:
  void Emit8(uint8_t byte) { bytes_.push_back(byte); }

  void Emit32(uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  }

  void Emit64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  }

  void Patch32(size_t offset, uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      bytes_[offset + static_cast<size_t>(i)] =
          static_cast<uint8_t>(value >> (8 * i));
    }
  }

  size_t size() const { return bytes_.size(); }
  const uint8_t* data() const { return bytes_.data(); }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Emits one tree as a function `double f(const double* row)`.
///
/// Inner node (default_left == false, NaN goes right):
///   mov     rax, <threshold bits>     ; 48 B8 imm64
///   movq    xmm1, rax                 ; 66 48 0F 6E C8
///   movsd   xmm0, [rdi + 8*feature]   ; F2 0F 10 {47 disp8 | 87 disp32}
///   ucomisd xmm1, xmm0                ; 66 0F 2E C8   (threshold ? x)
///   ja      <left>                    ; 0F 87 rel32   (thr > x, ordered)
///   <right subtree, fallthrough> ... <left subtree>
///
/// ja is taken iff CF=0 and ZF=0: threshold strictly greater than x and the
/// comparison ordered — exactly GoesLeft's `x < threshold`, with NaN
/// (unordered sets ZF=PF=CF=1) falling through to the right child.
///
/// Inner node (default_left == true, NaN goes left) swaps the comparison:
///   ucomisd xmm0, xmm1                ; 66 0F 2E C1   (x ? threshold)
///   jb      <left>                    ; 0F 82 rel32   (x < thr, or NaN)
///
/// Leaf:
///   mov     rax, <value bits>         ; 48 B8 imm64
///   movq    xmm0, rax                 ; 66 48 0F 6E C0
///   ret                               ; C3
class TreeEmitter {
 public:
  TreeEmitter(CodeBuffer* code, const Tree& tree) : code_(code), tree_(tree) {}

  /// Returns the entry offset of the emitted tree function.
  size_t Emit() {
    const size_t entry = code_->size();
    EmitNode(0);
    for (const Fixup& fixup : fixups_) {
      const size_t target = node_offsets_[static_cast<size_t>(fixup.node)];
      const int64_t rel =
          static_cast<int64_t>(target) - static_cast<int64_t>(fixup.offset + 4);
      code_->Patch32(fixup.offset, static_cast<uint32_t>(rel));
    }
    return entry;
  }

 private:
  struct Fixup {
    size_t offset;  // Position of the rel32 immediate.
    int node;       // Jump target node.
  };

  void EmitNode(int index) {
    if (node_offsets_.size() < tree_.nodes.size()) {
      node_offsets_.resize(tree_.nodes.size(), 0);
    }
    node_offsets_[static_cast<size_t>(index)] = code_->size();
    const TreeNode& node = tree_.nodes[static_cast<size_t>(index)];
    if (node.is_leaf) {
      code_->Emit8(0x48);  // mov rax, imm64
      code_->Emit8(0xB8);
      code_->Emit64(DoubleBits(node.value));
      code_->Emit8(0x66);  // movq xmm0, rax
      code_->Emit8(0x48);
      code_->Emit8(0x0F);
      code_->Emit8(0x6E);
      code_->Emit8(0xC0);
      code_->Emit8(0xC3);  // ret
      return;
    }

    code_->Emit8(0x48);  // mov rax, <threshold bits>
    code_->Emit8(0xB8);
    code_->Emit64(DoubleBits(node.threshold));
    code_->Emit8(0x66);  // movq xmm1, rax
    code_->Emit8(0x48);
    code_->Emit8(0x0F);
    code_->Emit8(0x6E);
    code_->Emit8(0xC8);

    const uint32_t disp = static_cast<uint32_t>(node.feature) * 8;
    code_->Emit8(0xF2);  // movsd xmm0, [rdi + disp]
    code_->Emit8(0x0F);
    code_->Emit8(0x10);
    if (disp <= 127) {
      code_->Emit8(0x47);  // modrm: mod=01 (disp8), reg=xmm0, rm=rdi
      code_->Emit8(static_cast<uint8_t>(disp));
    } else {
      code_->Emit8(0x87);  // modrm: mod=10 (disp32), reg=xmm0, rm=rdi
      code_->Emit32(disp);
    }

    code_->Emit8(0x66);  // ucomisd
    code_->Emit8(0x0F);
    code_->Emit8(0x2E);
    if (node.default_left) {
      code_->Emit8(0xC1);  // ucomisd xmm0, xmm1  (x ? threshold)
      code_->Emit8(0x0F);  // jb left
      code_->Emit8(0x82);
    } else {
      code_->Emit8(0xC8);  // ucomisd xmm1, xmm0  (threshold ? x)
      code_->Emit8(0x0F);  // ja left
      code_->Emit8(0x87);
    }
    fixups_.push_back(Fixup{code_->size(), node.left});
    code_->Emit32(0);  // rel32 patched later

    EmitNode(node.right);  // Fallthrough.
    EmitNode(node.left);
  }

  CodeBuffer* code_;
  const Tree& tree_;
  std::vector<size_t> node_offsets_;
  std::vector<Fixup> fixups_;
};

/// W^X mapping: copy `code` into a PROT_READ|PROT_WRITE region, then flip
/// the pages to PROT_READ|PROT_EXEC — never both at once.
Status MapExecutable(const std::vector<uint8_t>& code, void** memory_out,
                     size_t* mapped_size_out) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t mapped_size =
      (std::max<size_t>(code.size(), 1) + page - 1) / page * page;
  void* memory = mmap(nullptr, mapped_size, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) {
    return UnavailableError(StrFormat("mmap of %zu bytes failed: %s",
                                      mapped_size, std::strerror(errno)));
  }
  // A zero-tree forest emits no code (and a null data()): map one empty page.
  if (!code.empty()) std::memcpy(memory, code.data(), code.size());
  if (mprotect(memory, mapped_size, PROT_READ | PROT_EXEC) != 0) {
    const Status status = UnavailableError(
        StrFormat("mprotect(PROT_EXEC) failed: %s", std::strerror(errno)));
    munmap(memory, mapped_size);
    return status;
  }
  *memory_out = memory;
  *mapped_size_out = mapped_size;
  return Status::OK();
}

}  // namespace

Result<JitArtifact> EmitForestCode(const Forest& forest) {
  Status valid = forest.Validate();
  if (!valid.ok()) return valid;

  CodeBuffer code;
  JitArtifact artifact;
  artifact.num_features = forest.num_features;
  artifact.entries.reserve(forest.trees.size());
  for (const Tree& tree : forest.trees) {
    TreeEmitter emitter(&code, tree);
    artifact.entries.push_back(emitter.Emit());
  }
  artifact.code = code.TakeBytes();
  return artifact;
}

Result<std::unique_ptr<CompiledForest>> CompiledForest::Compile(
    const Forest& forest) {
  Result<JitArtifact> artifact = EmitForestCode(forest);
  if (!artifact.ok()) return artifact.status();

#ifndef NDEBUG
  // Prove the exact bytes about to be mapped executable.
  const Status proven = ProveForestCode(forest, *artifact).ToStatus();
  if (!proven.ok()) return proven;
#endif

  std::unique_ptr<CompiledForest> compiled(new CompiledForest());
  compiled->base_score_ = forest.base_score;
  Status mapped = MapExecutable(artifact->code, &compiled->code_,
                                &compiled->mapped_size_);
  if (!mapped.ok()) return mapped;
  compiled->code_size_ = artifact->code.size();
  compiled->tree_fns_.reserve(artifact->entries.size());
  for (const size_t entry : artifact->entries) {
    compiled->tree_fns_.push_back(reinterpret_cast<TreeFn>(
        static_cast<uint8_t*>(compiled->code_) + entry));
  }
  return compiled;
}

CompiledForest::~CompiledForest() {
  if (code_ != nullptr) munmap(code_, mapped_size_);
}

double CompiledForest::Predict(const double* row) const {
  double sum = base_score_;
  for (const TreeFn fn : tree_fns_) sum += fn(row);
  return sum;
}

#else  // !T3_JIT_X86_64

// Portability guard: on non-x86-64 hosts (or without mmap) compilation
// reports Unavailable and callers fall back to FlatEvaluator /
// InterpretedEvaluator. (The JitCodeAuditor itself is pure byte
// inspection and still works on serialized buffers everywhere.)

Result<JitArtifact> EmitForestCode(const Forest& forest) {
  Status valid = forest.Validate();
  if (!valid.ok()) return valid;
  return UnavailableError(
      "tree JIT requires an x86-64 host with mmap; use FlatEvaluator");
}

Result<std::unique_ptr<CompiledForest>> CompiledForest::Compile(
    const Forest& forest) {
  Result<JitArtifact> artifact = EmitForestCode(forest);
  return artifact.status();
}

CompiledForest::~CompiledForest() = default;

double CompiledForest::Predict(const double*) const { return base_score_; }

#endif  // T3_JIT_X86_64

}  // namespace t3
