// Tests of the batch-kernel analysis stack: JitCodeAuditor::AuditBatch
// (safety) and BatchEquivalenceValidator (semantics) over the bytes
// EmitForestBatchCode produces, run through ProveForestCode as Compile and
// t3_lint run them, plus the BatchDifferentialCheck dynamic fallback. The
// adversarial core is the byte-flip battery: every single-bit and
// whole-byte corruption of the emitted code (pad bytes excluded — they are
// never read) must be rejected by the audit or the validator.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/batch_equivalence_validator.h"
#include "analysis/jit_auditor.h"
#include "common/check.h"
#include "common/report.h"
#include "common/random.h"
#include "gbt/forest.h"
#include "treejit/jit.h"
#include "random_forest.h"

namespace t3 {
namespace {

// ProveForestCode over `batch` next to the forest's own scalar code, so
// the batch passes are the ones under test.
ForestCodeProof ProveWithBatch(const Forest& forest,
                               const BatchJitArtifact& batch) {
  Result<JitArtifact> scalar = EmitForestCode(forest);
  T3_CHECK(scalar.ok());
  return ProveForestCode(forest, scalar.value(), &batch);
}

TEST(BatchEquivalenceTest, CleanOnRandomForests) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const int num_trees = 1 + static_cast<int>(rng.UniformInt(0, 6));
    const int max_depth = 1 + static_cast<int>(rng.UniformInt(0, 5));
    const Forest forest =
        MakeRandomForest(&rng, num_features, num_trees, max_depth);
    ASSERT_TRUE(forest.Validate().ok());
    Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    const Status proven = ProveWithBatch(forest, artifact.value()).ToStatus();
    EXPECT_TRUE(proven.ok()) << "trial " << trial << ": " << proven.ToString();
  }
}

TEST(BatchEquivalenceTest, CleanOnFixtureModels) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  const char* fixtures[] = {
      "/data/model_ablation_per_pipeline.txt",
      "/data/model_ablation_per_query.txt",
      "/data/model_autowlm_per_query.txt",
      "/data/model_loo_airline.txt",
  };
  for (const char* fixture : fixtures) {
    const std::string path = std::string(T3_SOURCE_DIR) + fixture;
    Result<Forest> forest = Forest::LoadFromFile(path);
    ASSERT_TRUE(forest.ok()) << path << ": " << forest.status().ToString();
    Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest.value());
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    const Status proven =
        ProveWithBatch(forest.value(), artifact.value()).ToStatus();
    EXPECT_TRUE(proven.ok()) << fixture << ": " << proven.ToString();
  }
}

// Every injected corruption of the emitted bytes must be detected. Two
// mutations per offset: a single-bit flip (offset-dependent bit, so every
// bit position is exercised across the buffer) and a whole-byte flip. The
// alignment pad between the last ret and the 8-byte-aligned constant pool
// is excluded: those bytes are neither decoded nor dereferenced, so
// corrupting them is unobservable by construction.
TEST(BatchEquivalenceTest, ByteFlipBatteryDetectsEveryCorruption) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(4097);
  for (int trial = 0; trial < 3; ++trial) {
    const Forest forest = MakeRandomForest(&rng, 4, 2, 3);
    ASSERT_TRUE(forest.Validate().ok());
    Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    const BatchJitArtifact& clean = artifact.value();
    ASSERT_TRUE(ProveWithBatch(forest, clean).ToStatus().ok());

    const size_t pad_end = (clean.pool_begin + 7) & ~size_t{7};
    for (size_t offset = 0; offset < clean.code.size(); ++offset) {
      if (offset >= clean.pool_begin && offset < pad_end) continue;
      for (const uint8_t mask :
           {static_cast<uint8_t>(1u << (offset % 8)), uint8_t{0xFF}}) {
        BatchJitArtifact corrupt = clean;
        corrupt.code[offset] ^= mask;
        const ForestCodeProof proof = ProveWithBatch(forest, corrupt);
        ASSERT_TRUE(proof.batch_audit.HasErrors() ||
                    proof.batch_equivalence.HasErrors())
            << "trial " << trial << ": flip of byte " << offset << " (mask 0x"
            << std::hex << static_cast<int>(mask)
            << ") slipped past the audit and the validator";
      }
    }
  }
}

TEST(BatchEquivalenceTest, ValidatorRejectsWrongForest) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(55);
  const Forest forest = MakeRandomForest(&rng, 4, 3, 4);
  Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
  ASSERT_TRUE(artifact.ok());

  // Same shape, different thresholds / values: structure or semantics fail.
  Forest other = forest;
  for (Tree& tree : other.trees) {
    for (TreeNode& node : tree.nodes) {
      if (node.is_leaf) {
        node.value += 1.0;
      } else {
        node.threshold += 0.125;
      }
    }
  }
  EXPECT_TRUE(BatchEquivalenceValidator()
                  .Validate(other, artifact->code.data(), artifact->code.size(),
                            artifact->entries, artifact->pool_begin)
                  .HasErrors());

  // Different tree count: rejected before any lifting.
  Forest fewer = forest;
  fewer.trees.pop_back();
  const AnalysisReport report = BatchEquivalenceValidator().Validate(
      fewer, artifact->code.data(), artifact->code.size(), artifact->entries,
      artifact->pool_begin);
  ASSERT_TRUE(report.HasErrors());
  EXPECT_EQ(report.diagnostics()[0].check, "tree-count-mismatch");
}

// The two emitters' vocabularies are disjoint: batch code inside a scalar
// audit and scalar code inside a batch audit are both layout errors, so a
// linker or cache mix-up of the two buffers cannot pass either audit.
TEST(BatchEquivalenceTest, VocabularySeparationBetweenScalarAndBatch) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(7);
  const Forest forest = MakeRandomForest(&rng, 3, 2, 3);
  Result<JitArtifact> scalar = EmitForestCode(forest);
  Result<BatchJitArtifact> batch = EmitForestBatchCode(forest);
  ASSERT_TRUE(scalar.ok());
  ASSERT_TRUE(batch.ok());

  const JitCodeAuditor auditor;
  // Scalar bytes audited as batch kernels.
  EXPECT_TRUE(auditor
                  .AuditBatch(scalar->code.data(), scalar->code.size(),
                              scalar->entries, scalar->code.size(),
                              forest.num_features)
                  .HasErrors());
  // Batch bytes audited as scalar tree code.
  EXPECT_TRUE(auditor
                  .Audit(batch->code.data(), batch->pool_begin, batch->entries,
                         forest.num_features)
                  .HasErrors());
}

TEST(BatchEquivalenceTest, AuditBatchRejectsBadPoolBounds) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(11);
  const Forest forest = MakeRandomForest(&rng, 3, 1, 3);
  Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
  ASSERT_TRUE(artifact.ok());
  const AnalysisReport report = JitCodeAuditor().AuditBatch(
      artifact->code.data(), artifact->code.size(), artifact->entries,
      /*pool_begin=*/artifact->code.size() + 8, forest.num_features);
  ASSERT_TRUE(report.HasErrors());
  EXPECT_EQ(report.diagnostics()[0].check, "bad-pool-ref");
}

// BatchDifferentialCheck is host-independent: it exercises whatever batched
// entry point it is handed, here the portable evaluators.
TEST(BatchEquivalenceTest, DifferentialCheckAcceptsFaithfulPredictor) {
  Rng rng(21);
  const Forest forest = MakeRandomForest(&rng, 5, 4, 4);
  ASSERT_TRUE(forest.Validate().ok());
  const AnalysisReport report = BatchDifferentialCheck(
      forest, [&forest](const double* rows, size_t num_rows,
                        size_t num_features, double* out) {
        for (size_t i = 0; i < num_rows; ++i) {
          out[i] = forest.Predict(rows + i * num_features);
        }
      });
  EXPECT_FALSE(report.HasErrors()) << report.ToString();
}

TEST(BatchEquivalenceTest, DifferentialCheckDetectsMismatch) {
  Rng rng(22);
  const Forest forest = MakeRandomForest(&rng, 5, 4, 4);
  ASSERT_TRUE(forest.Validate().ok());
  Forest skewed = forest;
  skewed.base_score += 0.5;
  const AnalysisReport report = BatchDifferentialCheck(
      forest, [&skewed](const double* rows, size_t num_rows,
                        size_t num_features, double* out) {
        for (size_t i = 0; i < num_rows; ++i) {
          out[i] = skewed.Predict(rows + i * num_features);
        }
      });
  ASSERT_TRUE(report.HasErrors());
  EXPECT_EQ(report.diagnostics()[0].check, "batch-differential-mismatch");
}

// End to end: for every random forest the proof is clean on the exact
// bytes Compile maps, and the compiled forest carries those kernels.
TEST(BatchEquivalenceTest, CompiledKernelsPassTheProof) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 5));
    const Forest forest = MakeRandomForest(
        &rng, num_features, 1 + static_cast<int>(rng.UniformInt(0, 4)),
        1 + static_cast<int>(rng.UniformInt(0, 4)));
    Result<BatchJitArtifact> batch = EmitForestBatchCode(forest);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    const Status proven = ProveWithBatch(forest, batch.value()).ToStatus();
    ASSERT_TRUE(proven.ok()) << "trial " << trial << ": " << proven.ToString();
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    ASSERT_TRUE(compiled.ok())
        << "trial " << trial << ": " << compiled.status().ToString();
    EXPECT_TRUE((*compiled)->has_batch_kernels());
    EXPECT_EQ((*compiled)->batch_code_size(), batch->code.size());
  }
}

}  // namespace
}  // namespace t3
