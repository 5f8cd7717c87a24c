// Reproduces Table 2 (tree-model rows): prediction throughput in
// predictions per second of the four forest evaluators on the trained main
// model, swept over batch sizes: back-to-back single-row calls, PredictBatch
// calls of 8, 64 and 1024 rows, and one batched call over the whole
// >1000-row pipeline matrix of the test split. Every call starts where the
// previous one stopped, so no size times one cached row. The paper's
// finding: batching helps even tree models and compiled trees beat
// interpretation. QuickScorer, the serving evaluator, is timed alongside.
// The batched path that serves is the acceptance gate: QuickScorer's
// all-rows throughput must be >= 2x the single-row scalar-JIT throughput,
// or the bench exits 1.

#include <array>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "treejit/jit.h"

namespace t3 {
namespace {

// The batch sizes between the single-row and the all-rows column.
constexpr std::array<size_t, 3> kSweepRows = {8, 64, 1024};

// Exits 1 unless `evaluator`'s PredictBatch over consecutive `batch`-row
// slices of `rows` — the calls the bench times — matches the forest's
// per-row Predict bit for bit.
void CheckBatchMatchesForest(const ForestEvaluator& evaluator,
                             const char* name,
                             const std::vector<double>& rows, size_t dim,
                             const std::vector<double>& expected,
                             size_t batch) {
  std::vector<double> out(batch);
  for (size_t start = 0; start + batch <= expected.size(); start += batch) {
    evaluator.PredictBatch(&rows[start * dim], batch, dim, out.data());
    for (size_t i = 0; i < batch; ++i) {
      if (std::memcmp(&out[i], &expected[start + i], sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "%s PredictBatch(%zu) row %zu: %.17g != forest "
                     "Predict %.17g\n",
                     name, batch, start + i, out[i], expected[start + i]);
        std::exit(1);
      }
    }
  }
}

int Run() {
  Workbench& workbench = bench::SharedWorkbench();
  const Corpus& corpus = workbench.corpus();
  const T3Model& model = workbench.MainModel();
  const auto test_records = SelectRecords(corpus, bench::IsTest);
  T3_CHECK(!test_records.empty());

  // The batch: every pipeline row of 1024 test queries (records repeat if
  // the split is smaller), flattened row-major.
  constexpr size_t kBatchQueries = 1024;
  const size_t dim = test_records[0]->feat_true[0].values.size();
  std::vector<double> rows;
  for (size_t i = 0; i < kBatchQueries; ++i) {
    const QueryRecord* record = test_records[i % test_records.size()];
    for (const auto& features : record->feat_true) {
      rows.insert(rows.end(), features.values.begin(), features.values.end());
    }
  }
  const size_t num_rows = rows.size() / dim;
  constexpr size_t kMaxSweepRows = kSweepRows.back();
  T3_CHECK(num_rows >= kMaxSweepRows);
  // The sweep's slices wrap around the matrix: its first kMaxSweepRows rows
  // are repeated after the end, so a slice starting at any row offset below
  // num_rows is contiguous.
  rows.insert(rows.end(), rows.begin(),
              rows.begin() + static_cast<std::ptrdiff_t>(kMaxSweepRows * dim));
  std::vector<double> out(num_rows);

  const Forest& forest = model.forest();
  const InterpretedEvaluator interpreted(forest);
  const FlatEvaluator flat(forest);
  auto quickscorer = QuickScorerEvaluator::Build(forest);
  T3_CHECK_OK(quickscorer);
  auto compiled = CompiledForest::Compile(forest);
  T3_CHECK(compiled.ok());
  const CompiledForest& jit = **compiled;

  // A throughput only means something for outputs that are right: every
  // evaluator's timed slices are first checked against these.
  std::vector<double> expected(num_rows + kMaxSweepRows);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = forest.Predict(&rows[i * dim]);
  }
  const std::array<const ForestEvaluator*, 4> evaluators = {
      &interpreted, &flat, quickscorer->get(), &jit};
  const std::array<const char*, 4> labels = {"T3 interpreted", "T3 flat",
                                             "T3 QuickScorer", "T3 compiled"};

  volatile double sink = 0;
  size_t cursor = 0;
  auto single = [&](const ForestEvaluator& evaluator) {
    cursor = 0;
    return bench::Throughput([&] {
      sink = evaluator.Predict(&rows[(cursor++ % num_rows) * dim]);
    });
  };
  auto sweep = [&](const ForestEvaluator& evaluator, size_t batch) {
    cursor = 0;
    const int iterations = batch >= 1024 ? 60 : 400;
    return bench::MeasureBatchThroughput(
        [&] {
          evaluator.PredictBatch(&rows[cursor * dim], batch, dim, out.data());
          cursor = (cursor + batch) % num_rows;
          sink = out[batch - 1];
        },
        batch, iterations, iterations / 10);
  };
  auto batched = [&](const ForestEvaluator& evaluator) {
    return bench::MeasureBatchThroughput(
        [&] {
          evaluator.PredictBatch(rows.data(), num_rows, dim, out.data());
          sink = out[num_rows - 1];
        },
        num_rows);
  };

  PrintExperimentHeader(
      "Table 2: Throughput of tree evaluators in predictions per second",
      StrFormat("%zu-tree main model; single-row calls, PredictBatch over "
                "consecutive 8/64/1024-row slices, and one PredictBatch over "
                "all %zu pipeline rows (%zu test queries).",
                forest.trees.size(), num_rows, kBatchQueries));
  std::vector<std::string> header = {"Evaluator", "1 row"};
  for (const size_t batch : kSweepRows) {
    header.push_back(StrFormat("%zu rows", batch));
  }
  header.insert(header.end(), {StrFormat("All %zu rows", num_rows),
                               "All p50", "All p99", "Gain"});
  ReportTable table(header);
  double jit_single = 0.0;
  double quickscorer_all = 0.0;
  for (size_t e = 0; e < evaluators.size(); ++e) {
    const ForestEvaluator& evaluator = *evaluators[e];
    for (const size_t batch : kSweepRows) {
      CheckBatchMatchesForest(evaluator, labels[e], rows, dim, expected, batch);
    }
    CheckBatchMatchesForest(evaluator, labels[e], rows, dim, expected,
                            num_rows);
    const double single_tput = single(evaluator);
    std::vector<std::string> cells = {labels[e],
                                      StrFormat("%.0f", single_tput)};
    for (const size_t batch : kSweepRows) {
      cells.push_back(
          StrFormat("%.0f", sweep(evaluator, batch).preds_per_sec));
    }
    const bench::BatchTiming all = batched(evaluator);
    const double gain = all.preds_per_sec / single_tput;
    cells.insert(cells.end(), {StrFormat("%.0f", all.preds_per_sec),
                               bench::FormatSeconds(all.p50_seconds),
                               bench::FormatSeconds(all.p99_seconds),
                               StrFormat("%.1fx", gain)});
    table.AddRow(cells);
    if (&evaluator == &jit) jit_single = single_tput;
    if (&evaluator == quickscorer->get()) quickscorer_all = all.preds_per_sec;
  }
  table.Print();

  const double ratio = quickscorer_all / jit_single;
  const bool pass = ratio >= 2.0;
  std::printf("\nBatched QuickScorer (all rows) vs single-row JIT: %.2fx "
              "(target >= 2x) [%s]\n",
              ratio, pass ? "ok" : "FAIL");
  (void)sink;
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace t3

int main() { return t3::Run(); }
