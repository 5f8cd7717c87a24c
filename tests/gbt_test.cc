#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/text_format.h"
#include "gbt/forest.h"
#include "gbt/trainer.h"
#include "model/t3_model.h"

namespace t3 {
namespace {

// Training rows for y = f(x) + noise over uniform features.
struct Problem {
  std::vector<double> rows;
  std::vector<double> targets;
  size_t num_features;
};

Problem MakeMonotoneProblem(size_t num_rows, uint64_t seed) {
  Problem problem;
  problem.num_features = 4;
  Rng rng(seed);
  for (size_t i = 0; i < num_rows; ++i) {
    double x0 = rng.UniformDouble(0, 1);
    problem.rows.push_back(x0);
    for (size_t f = 1; f < problem.num_features; ++f) {
      problem.rows.push_back(rng.UniformDouble(0, 1));
    }
    // Strictly increasing in x0; the other features are noise.
    problem.targets.push_back(5.0 * x0 + rng.Gaussian(0, 0.02));
  }
  return problem;
}

TEST(TrainerTest, FitsMonotoneFunctionWithDecreasingValidationLoss) {
  const Problem problem = MakeMonotoneProblem(2000, 3);
  TrainParams params;
  params.num_trees = 60;
  params.max_leaves = 15;
  params.early_stopping_rounds = 60;  // Keep all trees for this test.
  TrainStats stats;
  Result<Forest> forest = TrainForest(problem.rows, problem.targets,
                                      problem.num_features, params, &stats);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();

  // Validation loss decreases substantially from the first boosting rounds
  // to the last ones.
  ASSERT_GE(stats.valid_loss_history.size(), 10u);
  const double early = stats.valid_loss_history[0];
  const double late = stats.valid_loss_history.back();
  EXPECT_LT(late, early * 0.2);
  EXPECT_LT(stats.final_train_loss, 0.05);

  // The learned function is monotone along x0 at a few probe points.
  std::vector<double> row(problem.num_features, 0.5);
  double previous = -1e300;
  for (double x0 : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    row[0] = x0;
    const double pred = forest->Predict(row.data());
    EXPECT_GT(pred, previous) << "not monotone at x0=" << x0;
    previous = pred;
    // And close to the ground truth 5 * x0.
    EXPECT_NEAR(pred, 5.0 * x0, 0.5);
  }
}

TEST(TrainerTest, EarlyStoppingTriggersOnNoise) {
  // Targets independent of the features: after a couple of trees the
  // validation loss cannot improve, so early stopping must fire long before
  // the 400-tree budget.
  Rng rng(17);
  const size_t num_rows = 600, num_features = 3;
  std::vector<double> rows(num_rows * num_features);
  for (double& v : rows) v = rng.UniformDouble(0, 1);
  std::vector<double> targets(num_rows);
  for (double& v : targets) v = rng.Gaussian(0, 1);

  TrainParams params;
  params.num_trees = 400;
  params.max_leaves = 31;
  params.early_stopping_rounds = 10;
  params.validation_fraction = 0.2;
  TrainStats stats;
  Result<Forest> forest =
      TrainForest(rows, targets, num_features, params, &stats);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  EXPECT_TRUE(stats.early_stopped);
  EXPECT_LT(stats.num_trees, 400);
  EXPECT_EQ(forest->trees.size(), static_cast<size_t>(stats.num_trees));
}

TEST(TrainerTest, MapeObjectiveTrains) {
  const Problem problem = MakeMonotoneProblem(1500, 5);
  // Shift targets positive; MAPE is scale-sensitive around zero.
  std::vector<double> targets = problem.targets;
  for (double& v : targets) v += 10.0;

  TrainParams params;
  params.objective = Objective::kMape;
  params.num_trees = 80;
  TrainStats stats;
  Result<Forest> forest = TrainForest(problem.rows, targets,
                                      problem.num_features, params, &stats);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  // Relative error well under 2% on a probe point.
  std::vector<double> row(problem.num_features, 0.5);
  const double pred = forest->Predict(row.data());
  EXPECT_NEAR(pred, 12.5, 0.25);
}

TEST(TrainerTest, RejectsNonFiniteInputs) {
  const std::vector<double> rows = {1.0, std::nan(""), 2.0, 3.0};
  const std::vector<double> targets = {1.0, 2.0};
  Result<Forest> forest = TrainForest(rows, targets, 2, TrainParams{});
  EXPECT_FALSE(forest.ok());
  EXPECT_EQ(forest.status().code(), StatusCode::kInvalidArgument);
}

TEST(ForestIoTest, TextRoundTripIsBitExact) {
  const Problem problem = MakeMonotoneProblem(800, 11);
  TrainParams params;
  params.num_trees = 20;
  Result<Forest> forest = TrainForest(problem.rows, problem.targets,
                                      problem.num_features, params);
  ASSERT_TRUE(forest.ok());

  const std::string text = forest->ToText();
  Result<Forest> reloaded = Forest::FromText(text);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  // Bit-exact: serializing again yields the identical string, and
  // predictions agree exactly.
  EXPECT_EQ(reloaded->ToText(), text);
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> row(problem.num_features);
    for (double& v : row) v = rng.UniformDouble(-1, 2);
    const double a = forest->Predict(row.data());
    const double b = reloaded->Predict(row.data());
    ASSERT_EQ(a, b);
  }
}

TEST(ForestIoTest, RejectsMalformedText) {
  EXPECT_FALSE(Forest::FromText("garbage").ok());
  EXPECT_FALSE(Forest::FromText("t3gbt v2\n").ok());
  // Tree with an out-of-range child index fails validation.
  EXPECT_FALSE(Forest::FromText("t3gbt v1\nnum_features 2\nbase_score 0\n"
                                "num_trees 1\ntree 1\n0 0 0.5 3 4 0\n")
                   .ok());
  // Counts larger than the text are clean errors, not huge allocations.
  EXPECT_FALSE(Forest::FromText("t3gbt v1\nnum_features 2\nbase_score 0\n"
                                "num_trees 999999999999999999\n")
                   .ok());
  EXPECT_FALSE(Forest::FromText("t3gbt v1\nnum_features 2\nbase_score 0\n"
                                "num_trees 1\ntree 999999999999999999\n")
                   .ok());
}

TEST(ForestIoTest, ParsesTheViewNotTheBufferBehindIt) {
  // The view stops at the end of the last leaf value; the buffer behind it
  // continues with a digit, which must not turn the leaf 2 into 27.
  Forest forest;
  forest.num_features = 1;
  forest.base_score = 0.5;
  Tree tree;
  tree.nodes.resize(1);
  tree.nodes[0].is_leaf = true;
  tree.nodes[0].value = 2.0;
  forest.trees.push_back(tree);
  const std::string text = forest.ToText();
  std::string buffer = text;
  buffer.back() = '7';
  Result<Forest> parsed =
      Forest::FromText(std::string_view(buffer.data(), buffer.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->trees[0].nodes[0].value, 2.0);
  EXPECT_EQ(parsed->ToText(), text);
}

TEST(ForestIoTest, EveryCheckedInFixtureRoundTripsBitExact) {
  // Load(Save(f)) must reproduce every checked-in model bit-exactly: the
  // harness caches trained models through this serializer, and the
  // translation validator proves equivalence against the *loaded* forest —
  // any save/load drift would silently undermine both.
  for (const char* name :
       {"model_ablation_per_pipeline.txt", "model_ablation_per_query.txt",
        "model_autowlm_per_query.txt", "model_loo_airline.txt",
        "cache_model_main.txt"}) {
    const std::string path = std::string(T3_SOURCE_DIR) + "/data/" + name;
    Result<Forest> forest = Forest::LoadFromFile(path);
    // cache_* files are generated by the workbench, not checked in; they
    // are validated when present (local runs) but a fresh checkout lacks
    // them.
    if (!forest.ok() && std::string(name).rfind("cache_", 0) == 0) continue;
    ASSERT_TRUE(forest.ok()) << name << ": " << forest.status().ToString();

    Result<Forest> reloaded = Forest::FromText(forest->ToText());
    ASSERT_TRUE(reloaded.ok()) << name << ": "
                               << reloaded.status().ToString();
    // Text equality is the bit-exactness proof: every number is printed
    // with %.17g, which is injective on doubles (distinguishes -0.0, and
    // all values are finite past Validate).
    EXPECT_EQ(reloaded->ToText(), forest->ToText()) << name;

    // Belt and braces: structural field-by-field equality.
    ASSERT_EQ(reloaded->num_features, forest->num_features) << name;
    ASSERT_EQ(reloaded->base_score, forest->base_score) << name;
    ASSERT_EQ(reloaded->trees.size(), forest->trees.size()) << name;
    for (size_t t = 0; t < forest->trees.size(); ++t) {
      const std::vector<TreeNode>& original = forest->trees[t].nodes;
      const std::vector<TreeNode>& copy = reloaded->trees[t].nodes;
      ASSERT_EQ(copy.size(), original.size()) << name << " tree " << t;
      for (size_t n = 0; n < original.size(); ++n) {
        ASSERT_EQ(copy[n].is_leaf, original[n].is_leaf);
        ASSERT_EQ(copy[n].feature, original[n].feature);
        ASSERT_EQ(copy[n].threshold, original[n].threshold);
        ASSERT_EQ(copy[n].left, original[n].left);
        ASSERT_EQ(copy[n].right, original[n].right);
        ASSERT_EQ(copy[n].value, original[n].value);
        ASSERT_EQ(copy[n].default_left, original[n].default_left);
      }
    }
  }
}

TEST(ForestIoTest, LoadsCheckedInModelFixture) {
  const std::string path =
      std::string(T3_SOURCE_DIR) + "/data/model_autowlm_per_query.txt";
  Result<Forest> forest = Forest::LoadFromFile(path);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();

  // The fixture is the paper configuration: 200 trees, 48 features.
  EXPECT_EQ(forest->num_features, 48);
  EXPECT_EQ(forest->trees.size(), 200u);
  EXPECT_DOUBLE_EQ(forest->base_score, 7.7257788436153465);
  EXPECT_EQ(forest->trees[0].nodes.size(), 61u);
  // Root of the first tree as checked in.
  const TreeNode& root = forest->trees[0].nodes[0];
  EXPECT_FALSE(root.is_leaf);
  EXPECT_EQ(root.feature, 1);
  EXPECT_DOUBLE_EQ(root.threshold, 20000.0);

  // Round-trips exactly through our writer (modulo the t3model header).
  Result<Forest> reloaded = Forest::FromText(forest->ToText());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->ToText(), forest->ToText());

  // And predicts something finite on a plausible feature row.
  std::vector<double> row(48, 1.0);
  EXPECT_TRUE(std::isfinite(forest->Predict(row.data())));
}

TEST(T3ModelTest, LoadsTargetFromModelHeader) {
  const std::string base = std::string(T3_SOURCE_DIR) + "/data/";
  Result<T3Model> per_query =
      T3Model::LoadFromFile(base + "model_autowlm_per_query.txt");
  ASSERT_TRUE(per_query.ok()) << per_query.status().ToString();
  EXPECT_EQ(per_query->target(), PredictionTarget::kPerQuery);

  Result<T3Model> per_tuple =
      T3Model::LoadFromFile(base + "model_loo_airline.txt");
  ASSERT_TRUE(per_tuple.ok());
  EXPECT_EQ(per_tuple->target(), PredictionTarget::kPerTuple);

  Result<T3Model> per_pipeline =
      T3Model::LoadFromFile(base + "model_ablation_per_pipeline.txt");
  ASSERT_TRUE(per_pipeline.ok());
  EXPECT_EQ(per_pipeline->target(), PredictionTarget::kPerPipeline);
}

TEST(T3ModelTest, SaveLoadPreservesTargetAndForest) {
  const Problem problem = MakeMonotoneProblem(500, 31);
  TrainParams params;
  params.num_trees = 5;
  Result<Forest> forest = TrainForest(problem.rows, problem.targets,
                                      problem.num_features, params);
  ASSERT_TRUE(forest.ok());
  const T3Model model(*std::move(forest), PredictionTarget::kPerPipeline);

  const std::string path = testing::TempDir() + "/t3_model_roundtrip.txt";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  Result<T3Model> reloaded = T3Model::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->target(), PredictionTarget::kPerPipeline);
  EXPECT_EQ(reloaded->forest().ToText(), model.forest().ToText());
}

TEST(T3ModelTest, RejectsMalformedTargetHeader) {
  // Regression: the header value was parsed with std::atoi, which silently
  // truncates "2x" to the valid target 2 and reads "" as 0. The strict
  // parser must reject the whole file instead.
  const std::string fixture =
      std::string(T3_SOURCE_DIR) + "/tests/data/model_bad_target.txt";
  Result<T3Model> bad = T3Model::LoadFromFile(fixture);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  Result<T3Model> good_fixture_body = T3Model::LoadFromFile(
      std::string(T3_SOURCE_DIR) + "/tests/data/model_corrupt.txt");
  // The same forest body with target "0" gets past the header (it fails
  // later, in the forest validator) — proof the fixture above fails on the
  // header, not the body.
  if (!good_fixture_body.ok()) {
    EXPECT_EQ(good_fixture_body.status().code(),
              StatusCode::kInvalidArgument);
  }

  // "7" is well-formed but names no PredictionTarget; the forest reader
  // t3_lint uses must refuse it exactly as the loader does.
  for (const char* header : {"t3model target 2x\n", "t3model target \n",
                             "t3model target -0x1\n",
                             "t3model target 99999999999999999999\n",
                             "t3model target 7\n", "t3model target -1\n"}) {
    const std::string path = testing::TempDir() + "/t3_model_bad_header.txt";
    ASSERT_TRUE(WriteStringToFile(path, std::string(header) +
                                            "t3gbt v1\nnum_features 1\n"
                                            "base_score 0\nnum_trees 0\n")
                    .ok());
    Result<T3Model> loaded = T3Model::LoadFromFile(path);
    EXPECT_FALSE(loaded.ok()) << "header accepted: " << header;
    Result<std::string> text = ReadFileToString(path);
    ASSERT_TRUE(text.ok());
    EXPECT_FALSE(Forest::ParseTextUnvalidated(*text).ok())
        << "header parsed: " << header;
  }
}

TEST(T3ModelTest, TargetTransformRoundTrips) {
  for (double seconds : {1e-9, 4.2e-6, 0.37, 12.0}) {
    EXPECT_NEAR(InverseTransformTarget(TransformTarget(seconds)), seconds,
                seconds * 1e-12);
  }
  // Times below the floor clamp instead of producing infinities.
  EXPECT_TRUE(std::isfinite(TransformTarget(0.0)));
}

}  // namespace
}  // namespace t3
