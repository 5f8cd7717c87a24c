#include <bit>
#include <cmath>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/forest_diff.h"
#include "analysis/x86_decoder.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "gbt/forest.h"
#include "gbt/trainer.h"
#include "treejit/evaluator.h"
#include "treejit/jit.h"
#include "random_forest.h"

namespace t3 {
namespace {

// One random row; roughly 10% NaN entries and the rest drawn from the same
// grid as the thresholds, so boundary hits (x == threshold) are common.
std::vector<double> MakeRandomRow(Rng* rng, int num_features) {
  std::vector<double> row(num_features);
  for (double& v : row) {
    if (rng->Bernoulli(0.1)) {
      v = std::numeric_limits<double>::quiet_NaN();
    } else {
      v = 0.25 * rng->UniformInt(-8, 8);
    }
  }
  return row;
}

// The tentpole invariant: all four evaluators are bit-identical on 100+
// random forests x random rows, including NaN and threshold-boundary inputs.
TEST(EvaluatorAgreementTest, AllEvaluatorsBitExactOnRandomForests) {
  Rng rng(2024);
  int jit_compiled = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const int num_trees = 1 + static_cast<int>(rng.UniformInt(0, 9));
    const int max_depth = 1 + static_cast<int>(rng.UniformInt(0, 5));
    const Forest forest =
        MakeRandomForest(&rng, num_features, num_trees, max_depth);
    ASSERT_TRUE(forest.Validate().ok()) << "trial " << trial;

    const InterpretedEvaluator interpreted(forest);
    const FlatEvaluator flat(forest);
    Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
        QuickScorerEvaluator::Build(forest);
    ASSERT_TRUE(quickscorer.ok()) << quickscorer.status().ToString();
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    if (JitSupported()) {
      ASSERT_TRUE(compiled.ok())
          << "trial " << trial << ": " << compiled.status().ToString();
      ++jit_compiled;
    }

    for (int r = 0; r < 25; ++r) {
      const std::vector<double> row = MakeRandomRow(&rng, num_features);
      const double reference = interpreted.Predict(row.data());
      ASSERT_EQ(flat.Predict(row.data()), reference)
          << "flat disagrees, trial " << trial << " row " << r;
      ASSERT_EQ((*quickscorer)->Predict(row.data()), reference)
          << "QuickScorer disagrees, trial " << trial << " row " << r;
      if (compiled.ok()) {
        ASSERT_EQ((*compiled)->Predict(row.data()), reference)
            << "JIT disagrees, trial " << trial << " row " << r;
      }
    }
  }
  if (JitSupported()) {
    EXPECT_EQ(jit_compiled, 120);
  }
}

// NaN-heavy trifecta: node interpreter vs flat interpreter vs JIT stay
// bit-identical as the NaN density of the input sweeps from none to every
// feature, with ±inf inputs mixed in and denormal thresholds in the trees —
// the corners where ucomisd's unordered results and strict-< routing are
// easiest to get subtly wrong.
TEST(EvaluatorAgreementTest, NanHeavyTrifectaAcrossNanFractions) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  Rng rng(777);
  for (const double nan_fraction : {0.0, 0.25, 0.75, 1.0}) {
    for (int trial = 0; trial < 15; ++trial) {
      const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 5));
      Forest forest = MakeRandomForest(
          &rng, num_features, 1 + static_cast<int>(rng.UniformInt(0, 4)),
          1 + static_cast<int>(rng.UniformInt(0, 4)));
      // Sprinkle denormal thresholds over the grid ones.
      for (Tree& tree : forest.trees) {
        for (TreeNode& node : tree.nodes) {
          if (!node.is_leaf && rng.Bernoulli(0.3)) {
            node.threshold = kDenorm *
                             static_cast<double>(rng.UniformInt(1, 4)) *
                             (rng.Bernoulli(0.5) ? -1.0 : 1.0);
          }
        }
      }
      ASSERT_TRUE(forest.Validate().ok());

      const InterpretedEvaluator interpreted(forest);
      const FlatEvaluator flat(forest);
      Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
          QuickScorerEvaluator::Build(forest);
      ASSERT_TRUE(quickscorer.ok()) << quickscorer.status().ToString();
      Result<std::unique_ptr<CompiledForest>> compiled =
          CompiledForest::Compile(forest);
      if (JitSupported()) {
        ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      }

      std::vector<double> row(static_cast<size_t>(num_features));
      for (int r = 0; r < 40; ++r) {
        for (double& v : row) {
          if (rng.Bernoulli(nan_fraction)) {
            v = std::numeric_limits<double>::quiet_NaN();
          } else if (rng.Bernoulli(0.2)) {
            v = rng.Bernoulli(0.5) ? kInf : -kInf;
          } else if (rng.Bernoulli(0.2)) {
            v = kDenorm * static_cast<double>(rng.UniformInt(-4, 4));
          } else {
            v = 0.25 * static_cast<double>(rng.UniformInt(-8, 8));
          }
        }
        const double reference = interpreted.Predict(row.data());
        ASSERT_EQ(flat.Predict(row.data()), reference)
            << "flat disagrees, nan_fraction " << nan_fraction << " trial "
            << trial << " row " << r;
        ASSERT_EQ((*quickscorer)->Predict(row.data()), reference)
            << "QuickScorer disagrees, nan_fraction " << nan_fraction
            << " trial " << trial << " row " << r;
        if (compiled.ok()) {
          ASSERT_EQ((*compiled)->Predict(row.data()), reference)
              << "JIT disagrees, nan_fraction " << nan_fraction << " trial "
              << trial << " row " << r;
        }
      }
    }
  }
}

TEST(EvaluatorAgreementTest, ThresholdBoundaryGoesRight) {
  // x == threshold must take the right branch (predicate is strict <) in
  // every evaluator.
  Forest forest;
  forest.num_features = 1;
  forest.base_score = 0.0;
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0].feature = 0;
  tree.nodes[0].threshold = 1.5;
  tree.nodes[0].left = 1;
  tree.nodes[0].right = 2;
  tree.nodes[1].is_leaf = true;
  tree.nodes[1].value = -1.0;
  tree.nodes[2].is_leaf = true;
  tree.nodes[2].value = +1.0;
  forest.trees.push_back(tree);
  ASSERT_TRUE(forest.Validate().ok());

  const InterpretedEvaluator interpreted(forest);
  const FlatEvaluator flat(forest);
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);

  const double boundary = 1.5;
  const double below = std::nextafter(1.5, 0.0);
  EXPECT_EQ(interpreted.Predict(&boundary), 1.0);
  EXPECT_EQ(interpreted.Predict(&below), -1.0);
  EXPECT_EQ(flat.Predict(&boundary), 1.0);
  EXPECT_EQ(flat.Predict(&below), -1.0);
  Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
      QuickScorerEvaluator::Build(forest);
  ASSERT_TRUE(quickscorer.ok());
  EXPECT_EQ((*quickscorer)->Predict(&boundary), 1.0);
  EXPECT_EQ((*quickscorer)->Predict(&below), -1.0);
  if (compiled.ok()) {
    EXPECT_EQ((*compiled)->Predict(&boundary), 1.0);
    EXPECT_EQ((*compiled)->Predict(&below), -1.0);
  }
}

TEST(EvaluatorAgreementTest, NanHonorsDefaultLeft) {
  for (bool default_left : {false, true}) {
    Forest forest;
    forest.num_features = 1;
    Tree tree;
    tree.nodes.resize(3);
    tree.nodes[0].feature = 0;
    tree.nodes[0].threshold = 0.0;
    tree.nodes[0].left = 1;
    tree.nodes[0].right = 2;
    tree.nodes[0].default_left = default_left;
    tree.nodes[1].is_leaf = true;
    tree.nodes[1].value = -1.0;
    tree.nodes[2].is_leaf = true;
    tree.nodes[2].value = +1.0;
    forest.trees.push_back(tree);

    const double expected = default_left ? -1.0 : 1.0;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(forest.Predict(&nan), expected);
    EXPECT_EQ(FlatEvaluator(forest).Predict(&nan), expected);
    Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
        QuickScorerEvaluator::Build(forest);
    ASSERT_TRUE(quickscorer.ok());
    EXPECT_EQ((*quickscorer)->Predict(&nan), expected)
        << "default_left=" << default_left;
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    if (compiled.ok()) {
      EXPECT_EQ((*compiled)->Predict(&nan), expected)
          << "default_left=" << default_left;
    }
  }
}

TEST(EvaluatorAgreementTest, InfinityFollowsStrictLess) {
  Forest forest;
  forest.num_features = 1;
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0].feature = 0;
  tree.nodes[0].threshold = 0.0;
  tree.nodes[0].left = 1;
  tree.nodes[0].right = 2;
  tree.nodes[1].is_leaf = true;
  tree.nodes[1].value = -1.0;
  tree.nodes[2].is_leaf = true;
  tree.nodes[2].value = +1.0;
  forest.trees.push_back(tree);

  const double pos_inf = std::numeric_limits<double>::infinity();
  const double neg_inf = -pos_inf;
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);
  Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
      QuickScorerEvaluator::Build(forest);
  ASSERT_TRUE(quickscorer.ok());
  for (const auto& [x, expected] :
       {std::pair{pos_inf, 1.0}, std::pair{neg_inf, -1.0}}) {
    EXPECT_EQ(forest.Predict(&x), expected);
    EXPECT_EQ(FlatEvaluator(forest).Predict(&x), expected);
    EXPECT_EQ((*quickscorer)->Predict(&x), expected);
    if (compiled.ok()) {
      EXPECT_EQ((*compiled)->Predict(&x), expected);
    }
  }
}

// --- QuickScorer: the serving evaluator's proof and its edge cases. ---

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// BatchDifferentialCheck over QuickScorer: one witness row per leaf cell of
// every tree, bit-compared against Forest::Predict.
AnalysisReport QuickScorerDifferential(const Forest& forest) {
  Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
      QuickScorerEvaluator::Build(forest);
  if (!quickscorer.ok()) {
    AnalysisReport report;
    report.Add(Severity::kError, "build-failed", -1, -1,
               quickscorer.status().ToString());
    return report;
  }
  const QuickScorerEvaluator* qs = quickscorer->get();
  return BatchDifferentialCheck(
      forest, [qs](const double* rows, size_t num_rows, size_t num_features,
                   double* out) {
        qs->PredictBatch(rows, num_rows, num_features, out);
      });
}

// A one-split tree on feature 0: x < threshold -> `left`, else `right`.
Tree Stump(double threshold, double left, double right,
           bool default_left = false) {
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0].feature = 0;
  tree.nodes[0].threshold = threshold;
  tree.nodes[0].left = 1;
  tree.nodes[0].right = 2;
  tree.nodes[0].default_left = default_left;
  tree.nodes[1].is_leaf = true;
  tree.nodes[1].value = left;
  tree.nodes[2].is_leaf = true;
  tree.nodes[2].value = right;
  return tree;
}

Tree SingleLeaf(double value) {
  Tree tree;
  tree.nodes.resize(1);
  tree.nodes[0].is_leaf = true;
  tree.nodes[0].value = value;
  return tree;
}

TEST(QuickScorerTest, DifferentialCheckOverEveryFixtureModel) {
  int fixtures = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(T3_SOURCE_DIR) + "/data")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("model_", 0) != 0 || entry.path().extension() != ".txt") {
      continue;
    }
    Result<Forest> forest = Forest::LoadFromFile(entry.path().string());
    ASSERT_TRUE(forest.ok()) << name << ": " << forest.status().ToString();
    const AnalysisReport report = QuickScorerDifferential(*forest);
    EXPECT_FALSE(report.HasErrors())
        << name << ": " << report.ToStatus().ToString();
    ++fixtures;
  }
  EXPECT_GE(fixtures, 4);
}

TEST(QuickScorerTest, DifferentialCheckOverRandomForests) {
  Rng rng(1515);
  for (int trial = 0; trial < 60; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const Forest forest = MakeRandomForest(
        &rng, num_features, 1 + static_cast<int>(rng.UniformInt(0, 9)),
        1 + static_cast<int>(rng.UniformInt(0, 5)));
    const AnalysisReport report = QuickScorerDifferential(forest);
    ASSERT_FALSE(report.HasErrors())
        << "trial " << trial << ": " << report.ToStatus().ToString();
  }
  // More trees than Predict keeps masks for on the stack.
  const AnalysisReport wide =
      QuickScorerDifferential(MakeRandomForest(&rng, 4, 600, 3));
  EXPECT_FALSE(wide.HasErrors()) << wide.ToStatus().ToString();
}

TEST(QuickScorerTest, SplitPredicateEdgeCases) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Tree 0 routes NaN right, tree 1 left; tree 2 splits at 0.0 for the
  // signed-zero case; trees 3 and 4 share tree 0's threshold, so one
  // feature holds equal thresholds across trees.
  Forest forest;
  forest.num_features = 1;
  forest.base_score = 0.125;
  forest.trees = {Stump(1.5, -1.0, 1.0, /*default_left=*/false),
                  Stump(1.5, -2.0, 2.0, /*default_left=*/true),
                  Stump(0.0, -4.0, 4.0), Stump(1.5, -8.0, 8.0),
                  Stump(1.5, -16.0, 16.0)};
  ASSERT_TRUE(forest.Validate().ok());
  Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
      QuickScorerEvaluator::Build(forest);
  ASSERT_TRUE(quickscorer.ok()) << quickscorer.status().ToString();
  for (const double x : {nan, 1.5, std::nextafter(1.5, 0.0),
                         std::nextafter(1.5, 2.0), kInf, -kInf, -0.0, 0.0,
                         std::nextafter(0.0, -1.0)}) {
    EXPECT_EQ(Bits((*quickscorer)->Predict(&x)), Bits(forest.Predict(&x)))
        << "x = " << x;
  }
  // Spelled out: equality and +inf go right, -0.0 is not below 0.0.
  const double at = 1.5;
  EXPECT_EQ((*quickscorer)->Predict(&at), 0.125 + 1 + 2 + 4 + 8 + 16);
  EXPECT_EQ((*quickscorer)->Predict(&nan), 0.125 + 1 - 2 + 4 + 8 + 16);
  const double minus_zero = -0.0;
  EXPECT_EQ((*quickscorer)->Predict(&minus_zero), 0.125 - 1 - 2 + 4 - 8 - 16);
  EXPECT_EQ((*quickscorer)->Predict(&kInf), 0.125 + 1 + 2 + 4 + 8 + 16);
}

TEST(QuickScorerTest, SingleLeafAndZeroTreeForests) {
  Forest forest;
  forest.num_features = 2;
  forest.base_score = 3.25;
  Result<std::unique_ptr<QuickScorerEvaluator>> empty =
      QuickScorerEvaluator::Build(forest);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  const double row[2] = {1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_EQ(Bits((*empty)->Predict(row)), Bits(3.25));

  forest.trees = {SingleLeaf(0.5), Stump(0.0, -1.0, 1.0), SingleLeaf(-0.75)};
  Result<std::unique_ptr<QuickScorerEvaluator>> leaves =
      QuickScorerEvaluator::Build(forest);
  ASSERT_TRUE(leaves.ok()) << leaves.status().ToString();
  EXPECT_EQ(Bits((*leaves)->Predict(row)), Bits(forest.Predict(row)));
  EXPECT_FALSE(QuickScorerDifferential(forest).HasErrors());
}

// A complete depth-6 tree, one feature per level: 64 leaves, the widest
// the mask holds. Row bits pick the leaf, so all 64 are reached, leaf 63
// (the mask's top bit) included.
TEST(QuickScorerTest, SixtyFourLeafTreeReachesEveryLeaf) {
  constexpr int kDepth = 6;
  Forest forest;
  forest.num_features = kDepth;
  forest.base_score = -0.5;
  Tree tree;
  const auto build = [&tree](const auto& self, int depth, int leaf) -> int {
    const int index = static_cast<int>(tree.nodes.size());
    tree.nodes.emplace_back();
    if (depth == kDepth) {
      tree.nodes[index].is_leaf = true;
      tree.nodes[index].value = 1.0 + leaf;
      return index;
    }
    const int left = self(self, depth + 1, 2 * leaf);
    const int right = self(self, depth + 1, 2 * leaf + 1);
    TreeNode& node = tree.nodes[index];
    node.feature = depth;
    node.threshold = 0.5;
    node.left = left;
    node.right = right;
    return index;
  };
  build(build, 0, 0);
  forest.trees.push_back(tree);
  ASSERT_EQ(forest.NumLeaves(), 64u);
  ASSERT_TRUE(forest.Validate().ok());
  Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
      QuickScorerEvaluator::Build(forest);
  ASSERT_TRUE(quickscorer.ok()) << quickscorer.status().ToString();
  for (int leaf = 0; leaf < 64; ++leaf) {
    std::vector<double> row(kDepth);
    for (int d = 0; d < kDepth; ++d) row[d] = (leaf >> (kDepth - 1 - d)) & 1;
    EXPECT_EQ(Bits((*quickscorer)->Predict(row.data())),
              Bits(-0.5 + (1.0 + leaf)))
        << "leaf " << leaf;
  }
  EXPECT_FALSE(QuickScorerDifferential(forest).HasErrors());
}

TEST(QuickScorerTest, TreeWiderThanTheMaskFailsConstruction) {
  Rng rng(65);
  Forest forest;
  forest.num_features = 3;
  for (const int num_leaves : {64, 2, 65}) {
    Tree tree;
    BuildWideSubtree(&tree, &rng, forest.num_features, num_leaves);
    forest.trees.push_back(std::move(tree));
  }
  ASSERT_TRUE(forest.Validate().ok());
  Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
      QuickScorerEvaluator::Build(forest);
  ASSERT_FALSE(quickscorer.ok());
  EXPECT_NE(quickscorer.status().message().find("tree 2 has 65 leaves"),
            std::string::npos)
      << quickscorer.status().ToString();
  forest.trees.pop_back();
  EXPECT_FALSE(QuickScorerDifferential(forest).HasErrors());
}

TEST(JitTest, WideFeatureOffsetsNeedDisp32) {
  // Features beyond index 15 have byte offsets > 127 and exercise the
  // disp32 addressing path of the emitter.
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Rng rng(5);
  const int num_features = 200;
  const Forest forest = MakeRandomForest(&rng, num_features, 8, 6);
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  for (int r = 0; r < 50; ++r) {
    const std::vector<double> row = MakeRandomRow(&rng, num_features);
    ASSERT_EQ((*compiled)->Predict(row.data()), forest.Predict(row.data()));
  }
}

TEST(JitTest, RejectsInvalidForest) {
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Forest forest;
  forest.num_features = 1;
  Tree tree;
  tree.nodes.resize(1);
  tree.nodes[0].feature = 0;
  tree.nodes[0].threshold = 0.0;
  tree.nodes[0].left = 5;  // Out of range.
  tree.nodes[0].right = 6;
  forest.trees.push_back(tree);
  EXPECT_FALSE(CompiledForest::Compile(forest).ok());
}

TEST(JitTest, UnsupportedHostsReportUnavailable) {
  if (JitSupported()) {
    GTEST_SKIP() << "host supports the JIT; fallback path not reachable";
  }
  Rng rng(1);
  const Forest forest = MakeRandomForest(&rng, 4, 2, 3);
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kUnavailable);
}

// Byte offset of the first instruction in `code` whose op is in `ops`;
// code.size() when there is none.
size_t FirstInstructionOf(const std::vector<uint8_t>& code,
                          std::initializer_list<JitOp> ops) {
  const DecodedCode decoded = DecodeLinear(code.data(), code.size());
  for (const auto& [at, instruction] : decoded.instructions) {
    for (const JitOp op : ops) {
      if (instruction.op == op) return at;
    }
  }
  return code.size();
}

// A forest with no trees is a constant model: no code, nothing for the
// proof to reject, base_score from every entry point.
TEST(ProveForestCodeTest, ZeroTreeForestIsAConstantModel) {
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Result<Forest> forest = Forest::LoadFromFile(
      std::string(T3_SOURCE_DIR) + "/tests/data/model_zero_trees.txt");
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  ASSERT_TRUE(forest->trees.empty());
  Result<JitArtifact> scalar = EmitForestCode(*forest);
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  const Status proven = ProveForestCode(*forest, *scalar).ToStatus();
  EXPECT_TRUE(proven.ok()) << proven.ToString();

  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(*forest);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const size_t dim = static_cast<size_t>(forest->num_features);
  const std::vector<double> rows(9 * dim, 1.0);
  EXPECT_EQ((*compiled)->Predict(rows.data()), forest->base_score);
  std::vector<double> out(9, 0.0);
  (*compiled)->PredictBatch(rows.data(), 9, dim, out.data());
  for (const double prediction : out) {
    EXPECT_EQ(prediction, forest->base_score);
  }
}

// The gate fails on corrupt bytes, and in the pass that owns the fault.
// Compile (debug builds) and t3_lint gate on exactly these reports.
TEST(ProveForestCodeTest, FlippedByteFailsTheRightPass) {
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Rng rng(2024);
  const Forest forest = MakeRandomForest(&rng, 4, 3, 4);
  Result<JitArtifact> scalar = EmitForestCode(forest);
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  ASSERT_TRUE(ProveForestCode(forest, *scalar).ToStatus().ok());

  // ja (0F 87) <-> jb (0F 82): the code stays well formed, so the audit
  // passes, but the split now sends the other side of the threshold left.
  JitArtifact flipped_branch = *scalar;
  const size_t branch =
      FirstInstructionOf(flipped_branch.code, {JitOp::kJa, JitOp::kJb});
  ASSERT_LT(branch, flipped_branch.code.size());
  flipped_branch.code[branch + 1] ^= 0x87 ^ 0x82;
  const ForestCodeProof bad_scalar = ProveForestCode(forest, flipped_branch);
  EXPECT_FALSE(bad_scalar.audit.HasErrors()) << bad_scalar.audit.ToString();
  EXPECT_TRUE(bad_scalar.translation.HasErrors());
  EXPECT_FALSE(bad_scalar.ToStatus().ok());

}

TEST(BatchTest, PredictBatchMatchesLoop) {
  Rng rng(77);
  const int num_features = 6;
  const Forest forest = MakeRandomForest(&rng, num_features, 5, 5);
  const FlatEvaluator flat(forest);
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);

  const size_t num_rows = 64;
  std::vector<double> rows;
  for (size_t i = 0; i < num_rows; ++i) {
    const std::vector<double> row = MakeRandomRow(&rng, num_features);
    rows.insert(rows.end(), row.begin(), row.end());
  }

  std::vector<double> out(num_rows);
  flat.PredictBatch(rows.data(), num_rows, num_features, out.data());
  for (size_t i = 0; i < num_rows; ++i) {
    EXPECT_EQ(out[i], flat.Predict(&rows[i * num_features])) << "row " << i;
  }
  if (compiled.ok()) {
    (*compiled)->PredictBatch(rows.data(), num_rows, num_features, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      EXPECT_EQ(out[i], forest.Predict(&rows[i * num_features])) << "row " << i;
    }
  }
}

// One row densely seeded with the split predicate's hard inputs: NaN (must
// route by default_left), +/-inf, denormals, and -0.0 (which must compare
// equal to +0.0 thresholds).
std::vector<double> MakeAdversarialRow(Rng* rng, int num_features) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> row(static_cast<size_t>(num_features));
  for (double& v : row) {
    switch (rng->UniformInt(0, 6)) {
      case 0: v = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v = rng->Bernoulli(0.5) ? kInf : -kInf; break;
      case 2: v = kDenorm * static_cast<double>(rng->UniformInt(-4, 4)); break;
      case 3: v = -0.0; break;
      default: v = 0.25 * static_cast<double>(rng->UniformInt(-8, 8)); break;
    }
  }
  return row;
}

// Checks PredictBatch against per-row Predict on one evaluator, bitwise,
// across the battery's batch sizes (small odd and even batches plus a large
// one).
void CheckBatchAgainstPerRow(const ForestEvaluator& evaluator,
                             const std::vector<double>& rows, size_t max_rows,
                             int num_features, const char* label) {
  const size_t dim = static_cast<size_t>(num_features);
  std::vector<double> out(max_rows);
  for (const size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                         size_t{1024}}) {
    if (n > max_rows) continue;
    evaluator.PredictBatch(rows.data(), n, dim, out.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], evaluator.Predict(&rows[i * dim]))
          << label << " PredictBatch, batch " << n << " row " << i;
    }
  }
}

// Randomized batch battery: 100 random forests, batch sizes
// {1, 7, 8, 9, 1024}, adversarial inputs, every evaluator's PredictBatch
// bit-identical to per-row Predict (which the scalar battery above already
// ties to the interpreted reference).
TEST(BatchTest, RandomizedBatteryBitIdenticalAcrossEvaluators) {
  Rng rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const int num_trees = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const int max_depth = 1 + static_cast<int>(rng.UniformInt(0, 5));
    const Forest forest =
        MakeRandomForest(&rng, num_features, num_trees, max_depth);
    ASSERT_TRUE(forest.Validate().ok()) << "trial " << trial;

    // Big batches only every 10th trial to keep the battery fast.
    const size_t max_rows = trial % 10 == 0 ? 1024 : 9;
    std::vector<double> rows;
    rows.reserve(max_rows * static_cast<size_t>(num_features));
    for (size_t i = 0; i < max_rows; ++i) {
      const std::vector<double> row = i % 2 == 0
                                          ? MakeAdversarialRow(&rng, num_features)
                                          : MakeRandomRow(&rng, num_features);
      rows.insert(rows.end(), row.begin(), row.end());
    }

    const InterpretedEvaluator interpreted(forest);
    const FlatEvaluator flat(forest);
    CheckBatchAgainstPerRow(interpreted, rows, max_rows, num_features,
                            "interpreted");
    CheckBatchAgainstPerRow(flat, rows, max_rows, num_features, "flat");
    Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
        QuickScorerEvaluator::Build(forest);
    ASSERT_TRUE(quickscorer.ok()) << quickscorer.status().ToString();
    for (size_t i = 0; i < max_rows; ++i) {
      const double* row = &rows[i * static_cast<size_t>(num_features)];
      ASSERT_EQ((*quickscorer)->Predict(row), interpreted.Predict(row))
          << "QuickScorer disagrees, trial " << trial << " row " << i;
    }
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    if (JitSupported()) {
      ASSERT_TRUE(compiled.ok())
          << "trial " << trial << ": " << compiled.status().ToString();
      CheckBatchAgainstPerRow(**compiled, rows, max_rows, num_features,
                              "compiled");
    }
  }
}

// Same battery over 20 trained forests: the trainer's monotone thresholds
// and shrunken leaf values are a different distribution than the random
// builder's grid, and trained trees are what the batched paths serve.
TEST(BatchTest, TrainedForestsBatchBitIdentical) {
  Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t num_features = 2 + rng.UniformInt(0, 3);
    const size_t num_rows = 240;
    std::vector<double> train_rows(num_rows * num_features);
    std::vector<double> targets(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      double y = 1.0;
      for (size_t f = 0; f < num_features; ++f) {
        const double v = rng.UniformDouble(-4, 4);
        train_rows[i * num_features + f] = v;
        y += (f % 2 == 0 ? v : -0.5 * v);
      }
      targets[i] = y + rng.UniformDouble(-0.1, 0.1);
    }
    TrainParams params;
    params.num_trees = 12;
    params.max_leaves = 8;
    params.min_data_in_leaf = 5;
    params.seed = 1000 + static_cast<uint64_t>(trial);
    Result<Forest> trained =
        TrainForest(train_rows, targets, num_features, params);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    const Forest& forest = trained.value();

    const size_t max_rows = 64;
    std::vector<double> rows;
    for (size_t i = 0; i < max_rows; ++i) {
      const std::vector<double> row =
          i % 4 == 0 ? MakeAdversarialRow(&rng, static_cast<int>(num_features))
                     : MakeRandomRow(&rng, static_cast<int>(num_features));
      rows.insert(rows.end(), row.begin(), row.end());
    }
    CheckBatchAgainstPerRow(FlatEvaluator(forest), rows, max_rows,
                            static_cast<int>(num_features), "flat");
    Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
        QuickScorerEvaluator::Build(forest);
    ASSERT_TRUE(quickscorer.ok()) << quickscorer.status().ToString();
    for (size_t i = 0; i < max_rows; ++i) {
      const double* row = &rows[i * num_features];
      ASSERT_EQ((*quickscorer)->Predict(row), forest.Predict(row))
          << "QuickScorer disagrees, trial " << trial << " row " << i;
    }
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    if (JitSupported()) {
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      CheckBatchAgainstPerRow(**compiled, rows, max_rows,
                              static_cast<int>(num_features), "compiled");
    }
  }
}

// The compiled forest's PredictBatch agrees bitwise with Forest::Predict,
// the scalar reference, on every checked-in model fixture.
TEST(BatchTest, FixtureModelsCompiledBatchMatchesForestPredict) {
  const char* fixtures[] = {
      "/data/model_ablation_per_pipeline.txt",
      "/data/model_ablation_per_query.txt",
      "/data/model_autowlm_per_query.txt",
      "/data/model_loo_airline.txt",
  };
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Rng rng(90210);
  for (const char* fixture : fixtures) {
    const std::string path = std::string(T3_SOURCE_DIR) + fixture;
    Result<Forest> loaded = Forest::LoadFromFile(path);
    ASSERT_TRUE(loaded.ok()) << path << ": " << loaded.status().ToString();
    const Forest& forest = loaded.value();

    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

    const size_t num_rows = 33;
    const size_t dim = static_cast<size_t>(forest.num_features);
    std::vector<double> rows;
    for (size_t i = 0; i < num_rows; ++i) {
      const std::vector<double> row =
          MakeRandomRow(&rng, forest.num_features);
      rows.insert(rows.end(), row.begin(), row.end());
    }
    std::vector<double> out(num_rows);
    (*compiled)->PredictBatch(rows.data(), num_rows, dim, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ASSERT_EQ(out[i], forest.Predict(&rows[i * dim]))
          << fixture << " row " << i;
    }
  }
}

TEST(BatchTest, PredictSumParallelMatchesSerialSum) {
  Rng rng(99);
  const int num_features = 5;
  const Forest forest = MakeRandomForest(&rng, num_features, 4, 5);
  const FlatEvaluator flat(forest);

  const size_t num_rows = 500;
  std::vector<double> rows(num_rows * num_features);
  for (double& v : rows) v = rng.UniformDouble(-2, 2);

  double serial = 0.0;
  for (size_t i = 0; i < num_rows; ++i) {
    serial += flat.Predict(&rows[i * num_features]);
  }

  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const double parallel =
        PredictSumParallel(flat, &pool, rows.data(), num_rows, num_features);
    // Grouping of partial sums differs, so allow relative rounding slack.
    EXPECT_NEAR(parallel, serial, 1e-9 * std::abs(serial) + 1e-9)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace t3
