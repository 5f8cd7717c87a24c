#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/differential_check.h"
#include "analysis/forest_verifier.h"
#include "analysis/jit_auditor.h"
#include "common/random.h"
#include "gbt/forest.h"
#include "gbt/trainer.h"
#include "treejit/jit.h"
#include "random_forest.h"

namespace t3 {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TreeNode Inner(int feature, double threshold, int left, int right,
               bool default_left = false) {
  TreeNode node;
  node.is_leaf = false;
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  node.default_left = default_left;
  return node;
}

TreeNode Leaf(double value) {
  TreeNode node;
  node.is_leaf = true;
  node.value = value;
  return node;
}

Forest OneTreeForest(std::vector<TreeNode> nodes, int num_features = 4) {
  Forest forest;
  forest.num_features = num_features;
  forest.trees.push_back(Tree{std::move(nodes)});
  return forest;
}

bool HasCheck(const AnalysisReport& report, const std::string& check,
              Severity severity) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.check == check && d.severity == severity) return true;
  }
  return false;
}

bool HasError(const AnalysisReport& report, const std::string& check) {
  return HasCheck(report, check, Severity::kError);
}

bool HasWarning(const AnalysisReport& report, const std::string& check) {
  return HasCheck(report, check, Severity::kWarning);
}

// ---------------------------------------------------------------------------
// ForestVerifier

TEST(ForestVerifierTest, CleanForestHasNoDiagnostics) {
  const Forest forest = OneTreeForest(
      {Inner(0, 0.5, 1, 2), Leaf(1.0), Inner(1, 0.25, 3, 4), Leaf(2.0),
       Leaf(3.0)});
  const AnalysisReport report = ForestVerifier().Verify(forest);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(ForestVerifierTest, RejectsBadFeatureIndex) {
  const Forest forest =
      OneTreeForest({Inner(7, 0.5, 1, 2), Leaf(1.0), Leaf(2.0)},
                    /*num_features=*/4);
  const AnalysisReport report = ForestVerifier().Verify(forest);
  EXPECT_TRUE(HasError(report, "bad-feature-index")) << report.ToString();
  const Forest negative =
      OneTreeForest({Inner(-1, 0.5, 1, 2), Leaf(1.0), Leaf(2.0)});
  EXPECT_TRUE(
      HasError(ForestVerifier().Verify(negative), "bad-feature-index"));
}

TEST(ForestVerifierTest, RejectsNonFiniteThreshold) {
  for (const double bad : {kNan, kInf, -kInf}) {
    const Forest forest =
        OneTreeForest({Inner(0, bad, 1, 2), Leaf(1.0), Leaf(2.0)});
    const AnalysisReport report = ForestVerifier().Verify(forest);
    EXPECT_TRUE(HasError(report, "nonfinite-threshold")) << report.ToString();
  }
}

TEST(ForestVerifierTest, RejectsOrphanNode) {
  // Node 3 is not reachable from the root.
  const Forest forest = OneTreeForest(
      {Inner(0, 0.5, 1, 2), Leaf(1.0), Leaf(2.0), Leaf(99.0)});
  const AnalysisReport report = ForestVerifier().Verify(forest);
  EXPECT_TRUE(HasError(report, "orphan-node")) << report.ToString();
}

TEST(ForestVerifierTest, RejectsLeafCountMismatch) {
  // Two leaves for zero inner nodes.
  const Forest forest = OneTreeForest({Leaf(1.0), Leaf(2.0)});
  const AnalysisReport report = ForestVerifier().Verify(forest);
  EXPECT_TRUE(HasError(report, "leaf-count-mismatch")) << report.ToString();
}

TEST(ForestVerifierTest, RejectsSharedNodeAndCycle) {
  // Diamond: both children of the root are node 1.
  const Forest diamond =
      OneTreeForest({Inner(0, 0.5, 1, 1), Leaf(1.0), Leaf(2.0)});
  EXPECT_TRUE(HasError(ForestVerifier().Verify(diamond), "node-shared"));
  // Cycle: node 2 points back to the root.
  const Forest cycle = OneTreeForest(
      {Inner(0, 0.5, 1, 2), Leaf(1.0), Inner(1, 0.5, 0, 3), Leaf(2.0)});
  EXPECT_TRUE(HasError(ForestVerifier().Verify(cycle), "node-shared"));
}

TEST(ForestVerifierTest, RejectsMissingChildAndEmptyTree) {
  const Forest missing =
      OneTreeForest({Inner(0, 0.5, -1, 1), Leaf(1.0)});
  EXPECT_TRUE(HasError(ForestVerifier().Verify(missing), "missing-child"));
  Forest empty;
  empty.num_features = 4;
  empty.trees.push_back(Tree{});
  EXPECT_TRUE(HasError(ForestVerifier().Verify(empty), "empty-tree"));
}

TEST(ForestVerifierTest, RejectsNonFiniteLeafValueAndBaseScore) {
  const Forest forest =
      OneTreeForest({Inner(0, 0.5, 1, 2), Leaf(kNan), Leaf(2.0)});
  EXPECT_TRUE(
      HasError(ForestVerifier().Verify(forest), "nonfinite-leaf-value"));
  Forest bad_base = OneTreeForest({Leaf(1.0)});
  bad_base.base_score = kInf;
  EXPECT_TRUE(
      HasError(ForestVerifier().Verify(bad_base), "nonfinite-base-score"));
}

TEST(ForestVerifierTest, ReportsEveryFindingNotJustTheFirst) {
  // Two independent corruptions in two trees: both must be reported.
  Forest forest = OneTreeForest({Inner(9, 0.5, 1, 2), Leaf(1.0), Leaf(2.0)});
  forest.trees.push_back(
      Tree{{Inner(0, kNan, 1, 2), Leaf(1.0), Leaf(2.0)}});
  const AnalysisReport report = ForestVerifier().Verify(forest);
  EXPECT_TRUE(HasError(report, "bad-feature-index"));
  EXPECT_TRUE(HasError(report, "nonfinite-threshold"));
  EXPECT_GE(report.NumErrors(), 2u);
}

TEST(ForestVerifierTest, WarnsOnDeadBranch) {
  // Root: x0 < 0.5 goes left. Left child splits x0 < 0.8 — its right child
  // (x0 >= 0.8) is unreachable because x0 < 0.5 here.
  const Forest forest = OneTreeForest(
      {Inner(0, 0.5, 1, 2), Inner(0, 0.8, 3, 4), Leaf(1.0), Leaf(2.0),
       Leaf(3.0)});
  const AnalysisReport report = ForestVerifier().Verify(forest);
  EXPECT_TRUE(HasWarning(report, "dead-branch")) << report.ToString();
  EXPECT_FALSE(report.HasErrors());
}

TEST(ForestVerifierTest, NanRoutingKeepsNumericallyDeadBranchAlive) {
  // As above (right child of node 1 numerically unreachable), but NaN is
  // routed right at the root's left... no: NaN routing is per split. Make
  // both splits route NaN right (default_left=false): NaN reaches node 1
  // only if the root sent it left, which it does not — so the branch stays
  // dead. With the root routing NaN left (default_left=true) and node 1
  // routing NaN right, NaN *does* reach node 1's right child: not dead.
  const Forest dead = OneTreeForest(
      {Inner(0, 0.5, 1, 2, /*default_left=*/false),
       Inner(0, 0.8, 3, 4, /*default_left=*/false), Leaf(1.0), Leaf(2.0),
       Leaf(3.0)});
  EXPECT_TRUE(HasWarning(ForestVerifier().Verify(dead), "dead-branch"));

  const Forest alive = OneTreeForest(
      {Inner(0, 0.5, 1, 2, /*default_left=*/true),
       Inner(0, 0.8, 3, 4, /*default_left=*/false), Leaf(1.0), Leaf(2.0),
       Leaf(3.0)});
  const AnalysisReport report = ForestVerifier().Verify(alive);
  EXPECT_FALSE(HasWarning(report, "dead-branch")) << report.ToString();
  // Mixed default_left on feature 0 trips the consistency lint instead.
  EXPECT_TRUE(HasWarning(report, "inconsistent-nan-routing"));
}

TEST(ForestVerifierTest, WarnsOnDuplicateThreshold) {
  // Node 2 repeats the root's exact split (feature 0, 0.5): its left child
  // (x0 < 0.5) is unreachable on the root's right path (x0 >= 0.5).
  const Forest forest = OneTreeForest(
      {Inner(0, 0.5, 1, 2), Leaf(1.0), Inner(0, 0.5, 3, 4), Leaf(2.0),
       Leaf(3.0)});
  const AnalysisReport report = ForestVerifier().Verify(forest);
  EXPECT_TRUE(HasWarning(report, "duplicate-threshold")) << report.ToString();
  EXPECT_TRUE(HasWarning(report, "dead-branch"));
}

TEST(ForestVerifierTest, AcceptsTrainedForestAndFixture) {
  Rng rng(7);
  std::vector<double> rows(300 * 3);
  for (double& v : rows) v = rng.UniformDouble(0, 1);
  std::vector<double> targets(300);
  for (size_t i = 0; i < targets.size(); ++i) {
    targets[i] = rows[i * 3] * 2.0 + rows[i * 3 + 1];
  }
  TrainParams params;
  params.num_trees = 25;
  Result<Forest> trained = TrainForest(rows, targets, 3, params);
  ASSERT_TRUE(trained.ok());
  const AnalysisReport trained_report = ForestVerifier().Verify(*trained);
  EXPECT_FALSE(trained_report.HasErrors()) << trained_report.ToString();

  const std::string path =
      std::string(T3_SOURCE_DIR) + "/data/model_autowlm_per_query.txt";
  Result<Forest> fixture = Forest::LoadFromFile(path);
  ASSERT_TRUE(fixture.ok());
  const AnalysisReport fixture_report = ForestVerifier().Verify(*fixture);
  EXPECT_TRUE(fixture_report.empty()) << fixture_report.ToString();
}

// Forest::Validate (the loader's reject gate) must agree with the
// verifier's Error-severity verdict on every corruption class above —
// a model the verifier flags as Error never loads.
TEST(ForestVerifierTest, LoaderRejectsEveryErrorClass) {
  std::vector<Forest> corrupt;
  corrupt.push_back(
      OneTreeForest({Inner(7, 0.5, 1, 2), Leaf(1.0), Leaf(2.0)}));  // feature
  corrupt.push_back(
      OneTreeForest({Inner(0, kNan, 1, 2), Leaf(1.0), Leaf(2.0)}));
  corrupt.push_back(OneTreeForest(
      {Inner(0, 0.5, 1, 2), Leaf(1.0), Leaf(2.0), Leaf(99.0)}));  // orphan
  corrupt.push_back(OneTreeForest({Leaf(1.0), Leaf(2.0)}));  // leaf count
  corrupt.push_back(
      OneTreeForest({Inner(0, 0.5, 1, 1), Leaf(1.0), Leaf(2.0)}));  // shared
  corrupt.push_back(
      OneTreeForest({Inner(0, 0.5, -1, 1), Leaf(1.0)}));  // missing child
  corrupt.push_back(
      OneTreeForest({Inner(0, 0.5, 1, 2), Leaf(kNan), Leaf(2.0)}));
  for (size_t i = 0; i < corrupt.size(); ++i) {
    const AnalysisReport report = ForestVerifier().Verify(corrupt[i]);
    EXPECT_TRUE(report.HasErrors()) << "corrupt forest " << i;
    EXPECT_FALSE(corrupt[i].Validate().ok()) << "corrupt forest " << i;
    // Round-tripping through the text format must not launder the
    // corruption past the loader.
    Result<Forest> loaded = Forest::FromText(corrupt[i].ToText());
    EXPECT_FALSE(loaded.ok()) << "corrupt forest " << i;
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(loaded.status().message().empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Model-loader error paths (text level: corruption the parser catches
// before a Forest even exists).

TEST(LoaderErrorPathTest, TruncatedFile) {
  const std::string full =
      OneTreeForest({Inner(0, 0.5, 1, 2), Leaf(1.0), Leaf(2.0)}).ToText();
  // Every prefix cut before the final token must fail cleanly, never
  // crash (a cut inside the final number is indistinguishable from a
  // shorter value, so the detectable range ends at its first byte).
  const size_t last_token = full.find_last_of(' ') + 1;
  for (size_t cut = 0; cut <= last_token; ++cut) {
    Result<Forest> loaded = Forest::FromText(full.substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
  }
}

TEST(LoaderErrorPathTest, TrailingGarbageRejected) {
  const std::string full =
      OneTreeForest({Inner(0, 0.5, 1, 2), Leaf(1.0), Leaf(2.0)}).ToText();
  Result<Forest> loaded = Forest::FromText(full + "0 1 0.5 1 2 0\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("trailing"), std::string::npos);
}

TEST(LoaderErrorPathTest, NonNumericThreshold) {
  const std::string text =
      "t3gbt v1\nnum_features 2\nbase_score 0\nnum_trees 1\n"
      "tree 3\n0 0 bogus 1 2 0\n1 -1 0 -1 -1 1\n1 -1 0 -1 -1 2\n";
  Result<Forest> loaded = Forest::FromText(text);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("malformed"), std::string::npos);
}

TEST(LoaderErrorPathTest, FeatureIndexBeyondFeatureCount) {
  const std::string text =
      "t3gbt v1\nnum_features 2\nbase_score 0\nnum_trees 1\n"
      "tree 3\n0 2 0.5 1 2 0\n1 -1 0 -1 -1 1\n1 -1 0 -1 -1 2\n";
  Result<Forest> loaded = Forest::FromText(text);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("feature"), std::string::npos);
  // The parse-only entry point accepts it, so linters can report on it.
  EXPECT_TRUE(Forest::ParseTextUnvalidated(text).ok());
}

TEST(LoaderErrorPathTest, MismatchedLeafCount) {
  // Node count says 2, both leaves: 2 leaves, 0 inner nodes.
  const std::string text =
      "t3gbt v1\nnum_features 2\nbase_score 0\nnum_trees 1\n"
      "tree 2\n1 -1 0 -1 -1 1\n1 -1 0 -1 -1 2\n";
  Result<Forest> loaded = Forest::FromText(text);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("leaves"), std::string::npos);
}

// ---------------------------------------------------------------------------
// AnalysisReport

TEST(AnalysisReportTest, SeveritiesCountsAndStatus) {
  AnalysisReport report;
  EXPECT_TRUE(report.ToStatus().ok());
  report.Add(Severity::kWarning, "dead-branch", 0, 3, "left unreachable");
  EXPECT_TRUE(report.ToStatus().ok());
  report.Add(Severity::kError, "bad-feature-index", 1, 2, "feature 52");
  report.Add(Severity::kError, "nonfinite-threshold", 1, 4, "NaN");
  EXPECT_EQ(report.NumErrors(), 2u);
  EXPECT_EQ(report.NumWarnings(), 1u);
  const Status status = report.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bad-feature-index"), std::string::npos);
  EXPECT_NE(status.message().find("+1 more"), std::string::npos);
  // Errors print before warnings.
  const std::string text = report.ToString();
  EXPECT_LT(text.find("error[bad-feature-index] tree 1 node 2"),
            text.find("warning[dead-branch]"));

  AnalysisReport other;
  other.Add(Severity::kWarning, "unreachable-code", 0, 40, "dead");
  report.Merge(other);
  EXPECT_EQ(report.diagnostics().size(), 4u);
}

// ---------------------------------------------------------------------------
// JitCodeAuditor. Emission needs x86-64; the audits themselves are pure
// byte inspection.

/// A randomized, structurally valid forest: every tree is built root-down
/// with contiguous child indices, features spanning both the disp8
/// (feature < 16) and disp32 encodings, and random NaN routing.
Forest RandomValidForest(Rng* rng) {
  Forest forest;
  forest.num_features = static_cast<int>(rng->UniformInt(1, 64));
  forest.base_score = rng->UniformDouble(-10, 10);
  const int num_trees = static_cast<int>(rng->UniformInt(1, 8));
  for (int t = 0; t < num_trees; ++t) {
    Tree tree;
    tree.nodes.push_back(TreeNode{});
    // Grow by splitting random leaves, keeping the node array an
    // already-valid tree after every step.
    std::vector<int> leaves = {0};
    const int splits = static_cast<int>(rng->UniformInt(0, 40));
    for (int s = 0; s < splits; ++s) {
      const size_t pick =
          static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(leaves.size()) - 1));
      const int index = leaves[pick];
      leaves.erase(leaves.begin() + static_cast<ptrdiff_t>(pick));
      const int left = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back(TreeNode{});
      const int right = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back(TreeNode{});
      tree.nodes[static_cast<size_t>(index)] =
          Inner(static_cast<int>(rng->UniformInt(0, forest.num_features - 1)),
                rng->UniformDouble(-100, 100), left, right, rng->Bernoulli(0.3));
      leaves.push_back(left);
      leaves.push_back(right);
    }
    for (const int leaf : leaves) {
      tree.nodes[static_cast<size_t>(leaf)] = Leaf(rng->UniformDouble(-5, 5));
    }
    forest.trees.push_back(std::move(tree));
  }
  return forest;
}

TEST(JitCodeAuditorTest, PassesOnHundredRandomForests) {
  if (!JitSupported()) GTEST_SKIP() << "no x86-64 emitter on this host";
  Rng rng(2025);
  for (int i = 0; i < 100; ++i) {
    const Forest forest = RandomValidForest(&rng);
    ASSERT_TRUE(forest.Validate().ok()) << "sweep " << i;
    Result<JitArtifact> artifact = EmitForestCode(forest);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    const AnalysisReport report =
        JitCodeAuditor().Audit(artifact->code.data(), artifact->code.size(),
                               artifact->entries, artifact->num_features);
    EXPECT_FALSE(report.HasErrors())
        << "sweep " << i << ":\n" << report.ToString();
  }
}

TEST(JitCodeAuditorTest, DecodesEveryEmittedOpcode) {
  if (!JitSupported()) GTEST_SKIP() << "no x86-64 emitter on this host";
  // Feature 20 forces the disp32 load; feature 2 the disp8 load; mixed
  // default_left covers both ucomisd/jcc orientations.
  Forest forest = OneTreeForest(
      {Inner(20, 0.5, 1, 2, /*default_left=*/false), Leaf(1.0),
       Inner(2, 0.25, 3, 4, /*default_left=*/true), Leaf(2.0), Leaf(3.0)},
      /*num_features=*/32);
  Result<JitArtifact> artifact = EmitForestCode(forest);
  ASSERT_TRUE(artifact.ok());
  bool saw[10] = {};
  size_t offset = 0;
  while (offset < artifact->code.size()) {
    JitInstruction instruction;
    ASSERT_TRUE(DecodeInstruction(artifact->code.data(),
                                  artifact->code.size(), offset,
                                  &instruction))
        << "undecodable at offset " << offset;
    saw[static_cast<int>(instruction.op)] = true;
    offset += instruction.length;
  }
  EXPECT_EQ(offset, artifact->code.size());
  for (const JitOp op :
       {JitOp::kMovRaxImm64, JitOp::kMovqXmm0Rax, JitOp::kMovqXmm1Rax,
        JitOp::kLoadFeature8, JitOp::kLoadFeature32, JitOp::kUcomisdXmm1Xmm0,
        JitOp::kUcomisdXmm0Xmm1, JitOp::kJa, JitOp::kJb, JitOp::kRet}) {
    EXPECT_TRUE(saw[static_cast<int>(op)])
        << "emitted code never used op " << static_cast<int>(op);
  }
}

class JitCodeAuditorCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!JitSupported()) GTEST_SKIP() << "no x86-64 emitter on this host";
    Forest forest = OneTreeForest(
        {Inner(20, 0.5, 1, 2), Leaf(1.0), Inner(2, 0.25, 3, 4), Leaf(2.0),
         Leaf(3.0)},
        /*num_features=*/32);
    forest.trees.push_back(forest.trees[0]);  // Two regions.
    Result<JitArtifact> artifact = EmitForestCode(forest);
    ASSERT_TRUE(artifact.ok());
    artifact_ = *std::move(artifact);
  }

  AnalysisReport Audit() const {
    return JitCodeAuditor().Audit(artifact_.code.data(),
                                  artifact_.code.size(), artifact_.entries,
                                  artifact_.num_features);
  }

  /// Offset of the first instruction of kind `op`, or npos.
  size_t FindOp(JitOp op) const {
    size_t offset = 0;
    JitInstruction instruction;
    while (offset < artifact_.code.size() &&
           DecodeInstruction(artifact_.code.data(), artifact_.code.size(),
                             offset, &instruction)) {
      if (instruction.op == op) return offset;
      offset += instruction.length;
    }
    return std::string::npos;
  }

  JitArtifact artifact_;
};

TEST_F(JitCodeAuditorCorruptionTest, CleanBufferPasses) {
  EXPECT_FALSE(Audit().HasErrors()) << Audit().ToString();
}

TEST_F(JitCodeAuditorCorruptionTest, ByteFlipInOpcodeIsRejected) {
  // 0xC3 ret -> 0xC2 ret imm16 is not in the whitelist.
  const size_t ret = FindOp(JitOp::kRet);
  ASSERT_NE(ret, std::string::npos);
  artifact_.code[ret] = 0xC2;
  EXPECT_TRUE(Audit().HasErrors());
}

TEST_F(JitCodeAuditorCorruptionTest, BranchRetargetedMidInstructionIsRejected) {
  const size_t branch = FindOp(JitOp::kJa);
  ASSERT_NE(branch, std::string::npos);
  // rel32 currently lands on a boundary; nudge it one byte forward.
  artifact_.code[branch + 2] = static_cast<uint8_t>(artifact_.code[branch + 2] + 1);
  const AnalysisReport report = Audit();
  EXPECT_TRUE(report.HasErrors());
  bool found = false;
  for (const Diagnostic& d : report.diagnostics()) {
    found = found || d.check == "bad-branch-target";
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST_F(JitCodeAuditorCorruptionTest, BranchOutOfRegionIsRejected) {
  // Retarget the first tree's first branch to the second tree's entry —
  // a valid instruction boundary, but outside the branch's own region.
  const size_t branch = FindOp(JitOp::kJa);
  ASSERT_NE(branch, std::string::npos);
  ASSERT_EQ(artifact_.entries.size(), 2u);
  const int64_t rel = static_cast<int64_t>(artifact_.entries[1]) -
                      (static_cast<int64_t>(branch) + 6);
  for (int i = 0; i < 4; ++i) {
    artifact_.code[branch + 2 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(static_cast<uint64_t>(rel) >> (8 * i));
  }
  const AnalysisReport report = Audit();
  bool found = false;
  for (const Diagnostic& d : report.diagnostics()) {
    found = found || d.check == "bad-branch-target";
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST_F(JitCodeAuditorCorruptionTest, OutOfBoundsFeatureLoadIsRejected) {
  // Patch the disp32 load (feature 20 of 32) to read feature 64.
  const size_t load = FindOp(JitOp::kLoadFeature32);
  ASSERT_NE(load, std::string::npos);
  const uint32_t disp = 64 * 8;
  for (int i = 0; i < 4; ++i) {
    artifact_.code[load + 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(disp >> (8 * i));
  }
  const AnalysisReport report = Audit();
  bool found = false;
  for (const Diagnostic& d : report.diagnostics()) {
    found = found || d.check == "oob-feature-load";
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST_F(JitCodeAuditorCorruptionTest, MisalignedFeatureLoadIsRejected) {
  const size_t load = FindOp(JitOp::kLoadFeature8);
  ASSERT_NE(load, std::string::npos);
  artifact_.code[load + 4] = 13;  // Not a multiple of 8.
  const AnalysisReport report = Audit();
  EXPECT_TRUE(report.HasErrors()) << report.ToString();
}

TEST_F(JitCodeAuditorCorruptionTest, BadEntriesAreRejected) {
  // Entry past the buffer.
  std::vector<size_t> entries = artifact_.entries;
  entries.push_back(artifact_.code.size() + 100);
  EXPECT_TRUE(JitCodeAuditor()
                  .Audit(artifact_.code.data(), artifact_.code.size(),
                         entries, artifact_.num_features)
                  .HasErrors());
  // Entry mid-instruction (offset 1 is inside the first mov imm64).
  EXPECT_TRUE(JitCodeAuditor()
                  .Audit(artifact_.code.data(), artifact_.code.size(),
                         {0, 1}, artifact_.num_features)
                  .HasErrors());
  // Empty entries.
  EXPECT_TRUE(JitCodeAuditor()
                  .Audit(artifact_.code.data(), artifact_.code.size(), {},
                         artifact_.num_features)
                  .HasErrors());
}

TEST_F(JitCodeAuditorCorruptionTest, TruncatedBufferIsRejected) {
  // Chop the final ret: the last path now falls off the end.
  const AnalysisReport report = JitCodeAuditor().Audit(
      artifact_.code.data(), artifact_.code.size() - 1, artifact_.entries,
      artifact_.num_features);
  EXPECT_TRUE(report.HasErrors());
}

// The decoder knows only the scalar emitter's vocabulary: a VEX-encoded
// vector op spliced over a same-length scalar instruction is undecodable, so
// both passes of ProveForestCode reject it.
TEST(JitCodeAuditorTest, SplicedVexOpIsUndecodable) {
  if (!JitSupported()) GTEST_SKIP() << "no x86-64 emitter on this host";
  const Forest forest =
      OneTreeForest({Inner(2, 0.25, 1, 2), Leaf(1.0), Leaf(2.0)});
  Result<JitArtifact> artifact = EmitForestCode(forest);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ASSERT_TRUE(ProveForestCode(forest, *artifact).ToStatus().ok());
  size_t ucomisd = artifact->code.size();
  for (const auto& [at, instruction] :
       DecodeLinear(artifact->code.data(), artifact->code.size())
           .instructions) {
    if (instruction.op == JitOp::kUcomisdXmm1Xmm0) ucomisd = at;
  }
  ASSERT_LT(ucomisd, artifact->code.size());
  // vandpd / vandnpd / vorpd / vxorpd ymm0, ymm0, ymm0: 2-byte VEX, 4 bytes
  // like the ucomisd they replace.
  for (const uint8_t opcode : {0x54, 0x55, 0x56, 0x57}) {
    JitArtifact spliced = *artifact;
    const uint8_t vex[] = {0xC5, 0xFD, opcode, 0xC0};
    std::copy(std::begin(vex), std::end(vex),
              spliced.code.begin() + static_cast<ptrdiff_t>(ucomisd));
    const ForestCodeProof proof = ProveForestCode(forest, spliced);
    EXPECT_TRUE(HasError(proof.audit, "unknown-opcode"))
        << proof.audit.ToString();
    EXPECT_TRUE(HasError(proof.translation, "undecodable-code"))
        << proof.translation.ToString();
    EXPECT_FALSE(proof.ToStatus().ok());
  }
}

// ProveForestCode is the one wiring of the auditor (debug Compile and
// t3_lint gate on it): it must stay clean for healthy forests, on the same
// bytes Compile maps, and the compiled code must match the interpreter.
TEST(JitAuditWiringTest, ProvenCodeMatchesInterpreter) {
  if (!JitSupported()) GTEST_SKIP() << "no x86-64 emitter on this host";
  Rng rng(99);
  const Forest forest = RandomValidForest(&rng);
  Result<JitArtifact> artifact = EmitForestCode(forest);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  const ForestCodeProof proof = ProveForestCode(forest, artifact.value());
  EXPECT_TRUE(proof.ToStatus().ok()) << proof.ToStatus().ToString();
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ((*compiled)->code_size(), artifact->code.size());
  std::vector<double> row(static_cast<size_t>(forest.num_features));
  for (int i = 0; i < 200; ++i) {
    for (double& v : row) v = rng.UniformDouble(-150, 150);
    ASSERT_EQ((*compiled)->Predict(row.data()), forest.Predict(row.data()));
  }
}

// ---------------------------------------------------------------------------
// BatchDifferentialCheck: the proof of the evaluators that are not compiled
// code. It exercises whatever batched entry point it is handed.

TEST(BatchDifferentialCheckTest, AcceptsFaithfulPredictor) {
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

TEST(BatchDifferentialCheckTest, DetectsSkewedBaseScore) {
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

}  // namespace
}  // namespace t3
