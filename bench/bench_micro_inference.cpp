// Google-benchmark microbenchmarks of the raw forest evaluators: node-
// pointer interpretation, flattened-array interpretation, and JIT-compiled
// native code, across forest sizes. Complements Table 1 with controlled
// synthetic forests (no corpus required).

#include <benchmark/benchmark.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "common/random.h"
#include "gbt/forest.h"
#include "treejit/evaluator.h"
#include "treejit/jit.h"

namespace t3 {
namespace {

constexpr int kFeatures = 46;

Forest MakeForest(int num_trees, int leaves_per_tree, uint64_t seed) {
  Rng rng(seed);
  Forest forest;
  forest.num_features = kFeatures;
  forest.base_score = 0.5;
  for (int t = 0; t < num_trees; ++t) {
    Tree tree;
    std::function<int(int)> build = [&](int leaves) -> int {
      const int index = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back(TreeNode{});
      if (leaves <= 1) {
        tree.nodes[static_cast<size_t>(index)].is_leaf = true;
        tree.nodes[static_cast<size_t>(index)].value = rng.UniformDouble(-1, 1);
        return index;
      }
      const int left_leaves = 1 + static_cast<int>(rng.UniformInt(0, leaves - 2));
      const int feature = static_cast<int>(rng.UniformInt(0, kFeatures - 1));
      const double threshold = rng.UniformDouble(0, 1);
      const int left = build(left_leaves);
      const int right = build(leaves - left_leaves);
      TreeNode& node = tree.nodes[static_cast<size_t>(index)];
      node.is_leaf = false;
      node.feature = feature;
      node.threshold = threshold;
      node.left = left;
      node.right = right;
      return index;
    };
    build(leaves_per_tree);
    forest.trees.push_back(std::move(tree));
  }
  return forest;
}

// Rows the single-row benches cycle through. Timing one fixed row would let
// the branch predictor learn every tree's path; a pool this large spreads
// the paths past what it can memorize, as varied production rows do.
constexpr size_t kPoolRows = 1024;

std::vector<double> MakeRowPool() {
  Rng rng(7);
  std::vector<double> rows(kPoolRows * kFeatures);
  for (double& v : rows) v = rng.UniformDouble(0, 1);
  return rows;
}

void TimePredict(benchmark::State& state, const ForestEvaluator& evaluator) {
  const std::vector<double> rows = MakeRowPool();
  size_t i = 0;
  for (auto _ : state) {
    const double* row = &rows[(i++ % kPoolRows) * kFeatures];
    benchmark::DoNotOptimize(evaluator.Predict(row));
  }
}

void BM_Interpreted(benchmark::State& state) {
  const Forest forest =
      MakeForest(static_cast<int>(state.range(0)), 31, 42);
  TimePredict(state, InterpretedEvaluator(forest));
}
BENCHMARK(BM_Interpreted)->Arg(10)->Arg(50)->Arg(200);

void BM_Flat(benchmark::State& state) {
  const Forest forest =
      MakeForest(static_cast<int>(state.range(0)), 31, 42);
  TimePredict(state, FlatEvaluator(forest));
}
BENCHMARK(BM_Flat)->Arg(10)->Arg(50)->Arg(200);

void BM_Compiled(benchmark::State& state) {
  const Forest forest =
      MakeForest(static_cast<int>(state.range(0)), 31, 42);
  auto compiled = CompiledForest::Compile(forest);
  T3_CHECK(compiled.ok());
  TimePredict(state, **compiled);
}
BENCHMARK(BM_Compiled)->Arg(10)->Arg(50)->Arg(200);

void BM_CompiledBatch(benchmark::State& state) {
  const Forest forest = MakeForest(200, 31, 42);
  auto compiled = CompiledForest::Compile(forest);
  T3_CHECK(compiled.ok());
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(9);
  std::vector<double> rows(batch * kFeatures);
  for (double& v : rows) v = rng.UniformDouble(0, 1);
  std::vector<double> out(batch);
  for (auto _ : state) {
    (*compiled)->PredictBatch(rows.data(), batch, kFeatures, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_CompiledBatch)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace t3

BENCHMARK_MAIN();
