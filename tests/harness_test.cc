#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/text_format.h"
#include "gbt/trainer.h"
#include "harness/corpus.h"
#include "harness/evaluate.h"
#include "harness/report.h"
#include "harness/workbench.h"
#include "model/t3_model.h"

namespace t3 {
namespace {

// The tracked mini corpus: a checked-in t3_corpusgen run over tpch_sf0 +
// tpcds_sf0 (groups Se and SeJA plus the fixed suites; see EXPERIMENTS.md
// for the exact invocation). Small enough for git, real enough to pin the
// format end to end.
const Corpus& TestCorpus() {
  static const Corpus* corpus = []() {
    Result<Corpus> loaded = LoadCorpusFromFile(std::string(T3_SOURCE_DIR) +
                                               "/data/corpus_mini.txt");
    T3_CHECK_OK(loaded);
    return new Corpus(*std::move(loaded));
  }();
  return *corpus;
}

#define T3_REQUIRE_CORPUS() const Corpus& corpus = TestCorpus()

TEST(CorpusTest, LoadsCheckedInCorpusFixture) {
  T3_REQUIRE_CORPUS();
  EXPECT_EQ(corpus.records.size(), 24u);

  // Every record is internally consistent.
  size_t test_records = 0;
  for (const QueryRecord& record : corpus.records) {
    ASSERT_FALSE(record.instance.empty());
    ASSERT_EQ(record.total_run_seconds.size(),
              static_cast<size_t>(record.runs));
    ASSERT_EQ(record.feat_true.size(), record.pipeline_times.size());
    ASSERT_EQ(record.feat_est.size(), record.pipeline_times.size());
    ASSERT_GT(record.median_seconds, 0.0);
    for (const PipelineFeatureVector& features : record.feat_true) {
      ASSERT_EQ(features.values.size(), 48u);
    }
    if (record.is_test) ++test_records;
  }
  // The held-out TPC-DS-like instance contributes half the records.
  EXPECT_EQ(test_records, 12u);
  EXPECT_EQ(corpus.NumPipelines(), 61u);
}

TEST(CorpusTest, SaveLoadRoundTripsExactly) {
  // Round-trip the whole fixture through the writer and parser.
  T3_REQUIRE_CORPUS();
  Corpus slice;
  slice.records = corpus.records;

  const std::string text = CorpusToText(slice);
  Result<Corpus> reparsed = ParseCorpus(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->records.size(), slice.records.size());
  // Bit-exact: re-serializing gives the identical text.
  EXPECT_EQ(CorpusToText(*reparsed), text);

  const QueryRecord& a = slice.records[0];
  const QueryRecord& b = reparsed->records[0];
  EXPECT_EQ(b.instance, a.instance);
  EXPECT_EQ(b.median_seconds, a.median_seconds);
  EXPECT_EQ(b.plan_nodes.size(), a.plan_nodes.size());
  EXPECT_EQ(b.feat_true[0].values, a.feat_true[0].values);
}

TEST(CorpusTest, MissingFileIsAnError) {
  Result<Corpus> corpus = LoadCorpusFromFile("/nonexistent/corpus.txt");
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kNotFound);
}

TEST(CorpusTest, RejectsMalformedHeader) {
  EXPECT_FALSE(ParseCorpus("bogus v1\nrecords 0\n").ok());
}

// A minimal valid one-record corpus used as the starting point for the
// corruption tests below.
std::string TinyCorpusText() {
  return "t3corpus v1\nrecords 1\n"
         "R tpch_sf0 0 0 3 0 1 2 1 0.5\n"
         "N 4 -1 -1 100 0 8 0\n"
         "T 0.5 0.6\n"
         "P 0 0.25 0.2 0.3\n"
         "FT 0 100 4 2 0:1.5 2:7\n"
         "FE 0 90 4 1 1:2.5\n";
}

TEST(CorpusTest, TinyCorpusRoundTrips) {
  Result<Corpus> corpus = ParseCorpus(TinyCorpusText());
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_EQ(corpus->records.size(), 1u);
  EXPECT_EQ(corpus->records[0].feat_true[0].values[2], 7.0);
  EXPECT_TRUE(ParseCorpus(CorpusToText(*corpus)).ok());
}

TEST(CorpusTest, TruncatedCorpusIsAnErrorNotACrash) {
  const std::string full = TinyCorpusText();
  // Every prefix cut before the final token must fail with a Status (a cut
  // *inside* the final number is indistinguishable from a shorter value,
  // so the detectable range ends at the last token's first byte).
  const size_t last_token = full.find_last_of(' ') + 1;
  for (size_t cut = 0; cut <= last_token; cut += 3) {
    Result<Corpus> corpus = ParseCorpus(full.substr(0, cut));
    EXPECT_FALSE(corpus.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_EQ(corpus.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CorpusTest, ParsesTheViewNotTheBufferBehindIt) {
  // The view stops at the end of the final "1:2.5"; the buffer behind it
  // continues with a digit, which must not turn 2.5 into 2.57.
  std::string buffer = TinyCorpusText();
  buffer.back() = '7';
  Result<Corpus> corpus =
      ParseCorpus(std::string_view(buffer.data(), buffer.size() - 1));
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(corpus->records[0].feat_est[0].values[1], 2.5);
  Result<Corpus> whole = ParseCorpus(TinyCorpusText());
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(CorpusToText(*corpus), CorpusToText(*whole));
}

TEST(CorpusTest, RejectsForgedCounts) {
  // Counts larger than the text are clean errors, not huge allocations.
  EXPECT_FALSE(ParseCorpus("t3corpus v1\nrecords 999999999999999999\n").ok());
  std::string bad = TinyCorpusText();
  const size_t pos = bad.find("0 1 2 1 0.5");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 11, "0 1 2 999999999999999999 0.5");
  Result<Corpus> corpus = ParseCorpus(bad);
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("R line"), std::string::npos);
}

TEST(CorpusTest, RejectsTrailingGarbage) {
  Result<Corpus> corpus = ParseCorpus(TinyCorpusText() + "R leftover\n");
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("trailing"), std::string::npos);
}

TEST(CorpusTest, RejectsNonNumericFields) {
  // Non-numeric run time on the T line.
  std::string bad = TinyCorpusText();
  const size_t t_pos = bad.find("T 0.5 0.6");
  ASSERT_NE(t_pos, std::string::npos);
  bad.replace(t_pos, 9, "T 0.5 abc");
  Result<Corpus> corpus = ParseCorpus(bad);
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("T line"), std::string::npos);
}

TEST(CorpusTest, RejectsSparseFeatureIndexBeyondDimension) {
  // "2:7" claims index 2 of a dim-4 vector; "9:7" is out of range.
  std::string bad = TinyCorpusText();
  const size_t pos = bad.find("2:7");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 3, "9:7");
  Result<Corpus> corpus = ParseCorpus(bad);
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("sparse"), std::string::npos);
}

TEST(CorpusTest, RejectsNonFiniteDoublesWithLineDiagnostic) {
  // TinyCorpusText's T line is line 5 of the file; a non-finite run value
  // there must be rejected and named by line. NaN/inf in a corpus would
  // otherwise flow silently into every downstream statistic.
  for (const char* bad_value : {"nan", "inf", "-inf", "1e999"}) {
    std::string bad = TinyCorpusText();
    const size_t pos = bad.find("T 0.5 0.6");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 9, std::string("T 0.5 ") + bad_value);
    Result<Corpus> corpus = ParseCorpus(bad);
    ASSERT_FALSE(corpus.ok()) << bad_value << " parsed";
    EXPECT_NE(corpus.status().message().find("T line"), std::string::npos)
        << corpus.status().ToString();
    EXPECT_NE(corpus.status().message().find("line 5"), std::string::npos)
        << corpus.status().ToString();
  }
}

TEST(CorpusTest, RejectsNonFiniteMedianOnRLine) {
  std::string bad = TinyCorpusText();
  const size_t pos = bad.find("0.5\nN");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 3, "nan");
  Result<Corpus> corpus = ParseCorpus(bad);
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("R line"), std::string::npos);
  EXPECT_NE(corpus.status().message().find("line 3"), std::string::npos)
      << corpus.status().ToString();
}

TEST(CorpusTest, RejectsNonFiniteFeatureValue) {
  std::string bad = TinyCorpusText();
  const size_t pos = bad.find("0:1.5");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 5, "0:inf");
  Result<Corpus> corpus = ParseCorpus(bad);
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("sparse"), std::string::npos);
}

TEST(CorpusTest, RejectsNegativeCountsInRecordHeader) {
  // Pipeline count -1 in the R line.
  std::string bad = TinyCorpusText();
  const size_t pos = bad.find("0 1 2 1 0.5");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 11, "0 -1 2 1 0.5");
  EXPECT_FALSE(ParseCorpus(bad).ok());
}

TEST(EvaluateTest, QErrorIsSymmetricRatio) {
  EXPECT_DOUBLE_EQ(QError(2.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(1.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(3.0, 3.0), 1.0);
  // Degenerate actuals are floored, not infinite.
  EXPECT_TRUE(std::isfinite(QError(1.0, 0.0)));
}

TEST(EvaluateTest, SummarizeReducesQErrors) {
  const QErrorSummary summary = Summarize({1, 1, 1, 1, 1, 1, 1, 1, 1, 10});
  EXPECT_DOUBLE_EQ(summary.p50, 1.0);
  EXPECT_NEAR(summary.avg, 1.9, 1e-12);
  EXPECT_GE(summary.p90, 1.0);
}

TEST(EvaluateTest, SelectRecordsFiltersTrainAndTest) {
  T3_REQUIRE_CORPUS();
  const auto train = SelectRecords(
      corpus, [](const QueryRecord& r) { return !r.is_test; });
  const auto test = SelectRecords(
      corpus, [](const QueryRecord& r) { return r.is_test; });
  EXPECT_EQ(train.size() + test.size(), corpus.records.size());
  EXPECT_EQ(test.size(), 12u);
}

TEST(EvaluateTest, TrainedModelBeatsTrivialBaselineOnTrainSet) {
  // Train a small per-tuple model on the fixture and check its q-error is
  // better than predicting the global median for everything.
  T3_REQUIRE_CORPUS();
  std::vector<const QueryRecord*> records;
  for (const QueryRecord& record : corpus.records) records.push_back(&record);

  std::vector<double> rows;
  std::vector<double> targets;
  for (const QueryRecord* record : records) {
    for (size_t p = 0; p < record->feat_true.size(); ++p) {
      const PipelineFeatureVector& features = record->feat_true[p];
      rows.insert(rows.end(), features.values.begin(), features.values.end());
      const double tuples = std::max(features.input_cardinality, 1.0);
      targets.push_back(TransformTarget(
          record->pipeline_times[p].median_seconds / tuples));
    }
  }
  TrainParams params;
  params.num_trees = 60;
  params.objective = Objective::kMape;
  params.min_data_in_leaf = 2;       // 61 training pipelines in the fixture.
  params.validation_fraction = 0.0;  // Too small to split.
  Result<Forest> forest = TrainForest(rows, targets, 48, params);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  const T3Model model(*std::move(forest), PredictionTarget::kPerTuple);

  const QErrorSummary summary = Summarize(EvaluateModel(model, records));
  EXPECT_LT(summary.p50, 2.0);

  std::vector<double> medians;
  for (const QueryRecord* r : records) medians.push_back(r->median_seconds);
  const double global = Median(medians);
  std::vector<double> baseline_errors;
  for (const QueryRecord* r : records) {
    baseline_errors.push_back(QError(global, r->median_seconds));
  }
  const QErrorSummary baseline = Summarize(baseline_errors);
  EXPECT_LT(summary.p50, baseline.p50)
      << "model p50 " << summary.p50 << " vs baseline p50 " << baseline.p50;
}

// --- Workbench: per-config training, caching, and determinism. ---

std::string MiniCorpusPath() {
  return std::string(T3_SOURCE_DIR) + "/data/corpus_mini.txt";
}

/// A fresh (per test-case) scratch data_dir with no stale model caches, so
/// every GetModel call below provably trains rather than reloads.
std::string MakeScratchDataDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/t3_harness_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

WorkbenchOptions MiniCorpusOptions(size_t num_threads = 4) {
  // Hermetic: a capped tree count from the CI bench-smoke environment would
  // change what these tests train and break the byte-level assertions.
  ::unsetenv("T3_QUICK_TREES");
  WorkbenchOptions options;
  options.corpus_path = MiniCorpusPath();
  options.num_threads = num_threads;
  return options;
}

TEST(WorkbenchTest, GetModelCachesEveryNamedConfigBitExactly) {
  const std::string dir = MakeScratchDataDir("named_configs");
  Workbench workbench(dir, MiniCorpusOptions());

  for (NamedModelConfig named : NamedModelConfigs()) {
    // Small forests keep 7 training runs fast; everything else (target,
    // mode, filters, dropped features, runs limit) is the registry entry.
    // Small leaves and no held-out rows make every forest split (the
    // per-query train split is 12 rows), so each cache round-trips inner
    // nodes, not only leaves.
    named.config.train.num_trees = 12;
    named.config.train.min_data_in_leaf = 2;
    named.config.train.validation_fraction = 0.0;
    const T3Model& model = workbench.GetModel(named);
    EXPECT_EQ(model.target(), named.config.target) << named.name;
    EXPECT_GT(model.forest().NumLeaves(), model.forest().trees.size())
        << named.name;

    // The cache file holds exactly the model's text, and reloads into a
    // model with the same text: by ToText's injectivity, one that predicts
    // bit-identically on every input.
    const std::string cache_path = workbench.ModelCachePath(
        named.name, named.mode, named.config, named.runs_limit);
    Result<std::string> bytes = ReadFileToString(cache_path);
    ASSERT_TRUE(bytes.ok()) << named.name << ": " << bytes.status().ToString();
    EXPECT_EQ(*bytes, model.ToText()) << named.name;
    Result<T3Model> reloaded = T3Model::LoadFromFile(cache_path);
    ASSERT_TRUE(reloaded.ok())
        << named.name << ": " << reloaded.status().ToString();
    EXPECT_EQ(reloaded->target(), model.target()) << named.name;
    EXPECT_EQ(reloaded->ToText(), model.ToText()) << named.name;

    // A second request is served from memory: same instance, no retrain.
    EXPECT_EQ(&workbench.GetModel(named), &model) << named.name;
  }
}

TEST(WorkbenchTest, SecondWorkbenchServesTheCacheFileUnchanged) {
  const std::string dir = MakeScratchDataDir("cache_reuse");
  T3Config config;
  config.train.num_trees = 10;

  Workbench first(dir, MiniCorpusOptions());
  const T3Model& trained =
      first.GetModel("main", CardinalityMode::kTrue, nullptr, config);
  const std::string cache_path =
      first.ModelCachePath("main", CardinalityMode::kTrue, config);
  Result<std::string> bytes = ReadFileToString(cache_path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  // A fresh process (modeled by a fresh Workbench) loads the cache instead
  // of retraining: the file is byte-identical afterwards and the served
  // model has the trained one's text.
  Workbench second(dir, MiniCorpusOptions());
  const T3Model& served =
      second.GetModel("main", CardinalityMode::kTrue, nullptr, config);
  Result<std::string> bytes_after = ReadFileToString(cache_path);
  ASSERT_TRUE(bytes_after.ok());
  EXPECT_EQ(*bytes_after, *bytes);
  EXPECT_EQ(served.ToText(), trained.ToText());
}

TEST(WorkbenchTest, TrainingIsByteDeterministicAcrossThreadCounts) {
  // The tentpole determinism contract: the same corpus and config produce
  // byte-identical cache files no matter how many threads assemble the
  // training matrix.
  T3Config config;
  config.train.num_trees = 24;

  std::string reference_bytes;
  size_t thread_counts[] = {1, 5};
  for (size_t i = 0; i < 2; ++i) {
    const std::string dir = MakeScratchDataDir(
        StrFormat("determinism_%zu", thread_counts[i]));
    Workbench workbench(dir, MiniCorpusOptions(thread_counts[i]));
    workbench.GetModel("main", CardinalityMode::kTrue, nullptr, config);
    Result<std::string> bytes = ReadFileToString(
        workbench.ModelCachePath("main", CardinalityMode::kTrue, config));
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ASSERT_FALSE(bytes->empty());
    if (i == 0) {
      reference_bytes = *std::move(bytes);
    } else {
      EXPECT_EQ(*bytes, reference_bytes)
          << "training with " << thread_counts[i]
          << " threads diverged from the single-threaded run";
    }
  }
}

TEST(WorkbenchTest, GetModelIsThreadSafeUnderConcurrentCallers) {
  // Regression: the model-cache map had no locking, so two threads
  // requesting models concurrently raced on `models_` (a crash or a
  // double-train under TSan/ASan). The prediction server trains its
  // serving model while a SIGHUP swap can request another, so GetModel
  // must serialize internally. Hammer it from several threads asking for
  // the same and for different configurations; every same-name call must
  // return the same instance (trained exactly once).
  const std::string dir = MakeScratchDataDir("concurrent_getmodel");
  Workbench workbench(dir, MiniCorpusOptions());

  T3Config small;
  small.train.num_trees = 8;
  T3Config per_pipeline = small;
  per_pipeline.target = PredictionTarget::kPerPipeline;

  constexpr int kThreads = 8;
  const T3Model* mains[kThreads] = {};
  const T3Model* others[kThreads] = {};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      mains[i] = &workbench.GetModel("main", CardinalityMode::kTrue,
                                     nullptr, small);
      others[i] = &workbench.GetModel(
          i % 2 == 0 ? "conc_a" : "conc_b", CardinalityMode::kTrue, nullptr,
          i % 2 == 0 ? small : per_pipeline);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(mains[i], nullptr);
    EXPECT_EQ(mains[i], mains[0]) << "thread " << i;
    ASSERT_NE(others[i], nullptr);
    EXPECT_EQ(others[i], others[i % 2]) << "thread " << i;
  }
  EXPECT_EQ(others[0]->target(), PredictionTarget::kPerTuple);
  EXPECT_EQ(others[1]->target(), PredictionTarget::kPerPipeline);
}

TEST(WorkbenchTest, CorruptCacheIsRejectedAndRetrained) {
  // tests/data/model_corrupt.txt parses but fails validation: a split node
  // reads feature 99 of a 48-feature model. The loader must reject it (as
  // an error, not a missing file) and GetModel must retrain and overwrite
  // it rather than serve the bad model.
  const std::string fixture =
      std::string(T3_SOURCE_DIR) + "/tests/data/model_corrupt.txt";
  Result<std::string> corrupt = ReadFileToString(fixture);
  ASSERT_TRUE(corrupt.ok()) << corrupt.status().ToString();

  Result<T3Model> direct = T3Model::LoadFromFile(fixture);
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.status().code(), StatusCode::kNotFound);
  EXPECT_NE(direct.status().message().find("error[bad-feature-index]"),
            std::string::npos)
      << direct.status().ToString();

  const std::string dir = MakeScratchDataDir("corrupt_cache");
  T3Config config;
  config.train.num_trees = 10;
  Workbench workbench(dir, MiniCorpusOptions());
  const std::string cache_path =
      workbench.ModelCachePath("main", CardinalityMode::kTrue, config);
  ASSERT_TRUE(WriteStringToFile(cache_path, *corrupt).ok());

  const T3Model& model =
      workbench.GetModel("main", CardinalityMode::kTrue, nullptr, config);
  // The served model is a real retrained forest, not the planted stub...
  EXPECT_GT(model.forest().trees.size(), 1u);
  // ...and the cache now holds its exact text.
  Result<std::string> cached = ReadFileToString(cache_path);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(*cached, model.ToText());
}

TEST(WorkbenchTest, CacheFromOtherCorpusOrTreeCapIsNotServed) {
  // Regression: the cache file was keyed on name + mode only, so a 1-tree
  // model cached by a T3_QUICK_TREES run on one corpus was later served,
  // unchanged, for the full config on another corpus.
  const std::string dir = MakeScratchDataDir("corpus_swap");
  T3Config config;
  config.train.num_trees = 10;
  config.train.validation_fraction = 0.0;  // Keep all 10 trees.

  // A second corpus: the mini corpus without its last record.
  Corpus smaller = TestCorpus();
  smaller.records.pop_back();
  const std::string smaller_path = dir + "/corpus_smaller.txt";
  ASSERT_TRUE(SaveCorpusToFile(smaller, smaller_path).ok());

  WorkbenchOptions mini = MiniCorpusOptions();
  ::setenv("T3_QUICK_TREES", "1", 1);
  Workbench quick(dir, mini);
  const T3Model& capped =
      quick.GetModel("main", CardinalityMode::kTrue, nullptr, config);
  const std::string capped_path =
      quick.ModelCachePath("main", CardinalityMode::kTrue, config);
  ::unsetenv("T3_QUICK_TREES");
  EXPECT_EQ(capped.forest().trees.size(), 1u);
  Result<std::string> capped_bytes = ReadFileToString(capped_path);
  ASSERT_TRUE(capped_bytes.ok()) << capped_bytes.status().ToString();

  // Same data dir, name and mode, no cap, another corpus: a cache miss,
  // so the model is retrained and cached under its own key.
  WorkbenchOptions other = mini;
  other.corpus_path = smaller_path;
  Workbench full(dir, other);
  const std::string full_path =
      full.ModelCachePath("main", CardinalityMode::kTrue, config);
  EXPECT_NE(full_path, capped_path);
  EXPECT_FALSE(std::filesystem::exists(full_path));
  const T3Model& retrained =
      full.GetModel("main", CardinalityMode::kTrue, nullptr, config);
  EXPECT_EQ(retrained.forest().trees.size(), 10u);
  EXPECT_TRUE(std::filesystem::exists(full_path));

  // The first cache is left as it was, and the mini corpus without the cap
  // keys yet another file.
  Result<std::string> capped_after = ReadFileToString(capped_path);
  ASSERT_TRUE(capped_after.ok());
  EXPECT_EQ(*capped_after, *capped_bytes);
  Workbench uncapped(dir, mini);
  EXPECT_NE(uncapped.ModelCachePath("main", CardinalityMode::kTrue, config),
            capped_path);
}

TEST(EvaluateTest, EvaluateModelMatchesGoldenFixture) {
  // Digit-level golden for the whole EvaluateModel path: a deterministic
  // 32-tree model trained on the mini corpus train split, evaluated on the
  // 12 held-out records. Regenerate intentionally after a trainer or
  // featurizer change with:
  //   T3_UPDATE_GOLDEN=1 ./build/tests/harness_test
  //     --gtest_filter='*EvaluateModelMatchesGoldenFixture*'
  const std::string dir = MakeScratchDataDir("eval_golden");
  Workbench workbench(dir, MiniCorpusOptions());
  T3Config config;
  config.train.num_trees = 32;
  const T3Model& model =
      workbench.GetModel("golden", CardinalityMode::kTrue, nullptr, config);

  const auto test_records = SelectRecords(
      workbench.corpus(), [](const QueryRecord& r) { return r.is_test; });
  ASSERT_EQ(test_records.size(), 12u);
  const std::vector<RecordEvaluation> evals =
      EvaluateModel(model, test_records);
  ASSERT_EQ(evals.size(), test_records.size());

  std::string text;
  for (const RecordEvaluation& eval : evals) {
    EXPECT_DOUBLE_EQ(
        eval.q_error, QError(eval.predicted_seconds, eval.actual_seconds));
    text += StrFormat("%s g%d predicted=%.17g actual=%.17g q=%.17g\n",
                      eval.record->instance.c_str(),
                      eval.record->structure_group, eval.predicted_seconds,
                      eval.actual_seconds, eval.q_error);
  }
  text += "summary " + Summarize(evals).ToString() + "\n";

  const std::string golden_path =
      std::string(T3_SOURCE_DIR) + "/tests/data/eval_golden.txt";
  if (std::getenv("T3_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteStringToFile(golden_path, text).ok());
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  Result<std::string> golden = ReadFileToString(golden_path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_EQ(text, *golden)
      << "EvaluateModel output drifted from tests/data/eval_golden.txt; "
         "if the trainer/featurizer change is intentional, regenerate with "
         "T3_UPDATE_GOLDEN=1.";
}

TEST(EvaluateTest, EvaluateModelMatchesPerRecordReference) {
  T3_REQUIRE_CORPUS();
  std::vector<const QueryRecord*> records;
  for (const QueryRecord& record : corpus.records) records.push_back(&record);

  TrainParams params;
  params.num_trees = 20;
  params.objective = Objective::kMape;
  params.min_data_in_leaf = 2;
  params.validation_fraction = 0.0;
  std::vector<double> rows;
  std::vector<double> targets;
  for (const QueryRecord* record : records) {
    for (size_t p = 0; p < record->feat_true.size(); ++p) {
      const PipelineFeatureVector& features = record->feat_true[p];
      rows.insert(rows.end(), features.values.begin(), features.values.end());
      const double tuples = std::max(features.input_cardinality, 1.0);
      targets.push_back(TransformTarget(
          record->pipeline_times[p].median_seconds / tuples));
    }
  }
  Result<Forest> forest = TrainForest(rows, targets, 48, params);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  const T3Model model(*std::move(forest), PredictionTarget::kPerTuple);

  // Each evaluation is the per-record reference, bit for bit: the
  // PredictQuerySeconds prediction and its q-error against the median.
  const std::vector<RecordEvaluation> evals = EvaluateModel(model, records);
  ASSERT_EQ(evals.size(), records.size());
  for (size_t i = 0; i < evals.size(); ++i) {
    const double predicted = PredictQuerySeconds(model, *records[i]);
    EXPECT_EQ(evals[i].record, records[i]);
    EXPECT_EQ(evals[i].predicted_seconds, predicted);
    EXPECT_EQ(evals[i].actual_seconds, records[i]->median_seconds);
    EXPECT_EQ(evals[i].q_error, QError(predicted, records[i]->median_seconds));
  }
  const QErrorSummary from_evals = Summarize(evals);
  const QErrorSummary from_errors = Summarize(QErrors(evals));
  EXPECT_EQ(from_evals.ToString(), from_errors.ToString());
}

TEST(EvaluateTest, AblationTargetsMatchTheirQueryFormulas) {
  // The per-pipeline and per-query named configs evaluate to their own
  // formulas, bit for bit: the pipelines' predicted seconds summed in
  // order, and one prediction over the summed query vector.
  const std::string dir = MakeScratchDataDir("ablation_targets");
  Workbench workbench(dir, MiniCorpusOptions());
  std::vector<const QueryRecord*> records;
  for (const QueryRecord& record : workbench.corpus().records) {
    records.push_back(&record);
  }

  for (NamedModelConfig named : NamedModelConfigs()) {
    if (named.name != "ablation_per_pipeline" &&
        named.name != "ablation_per_query") {
      continue;
    }
    // The per-query train split is 12 rows: small leaves and no held-out
    // rows, so that the forest splits and the formulas are told apart.
    named.config.train.num_trees = 12;
    named.config.train.min_data_in_leaf = 2;
    named.config.train.validation_fraction = 0.0;
    const T3Model& model = workbench.GetModel(named);
    ASSERT_GT(model.forest().NumLeaves(), model.forest().trees.size())
        << named.name;
    const std::vector<RecordEvaluation> evals = EvaluateModel(model, records);
    ASSERT_EQ(evals.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      const QueryRecord& record = *records[i];
      double expected = 0.0;
      if (model.target() == PredictionTarget::kPerQuery) {
        const std::vector<double> summed =
            SummedQueryFeatures(record, CardinalityMode::kTrue);
        expected = model.PredictPipelineSeconds(summed.data(), 0.0);
      } else {
        for (const PipelineFeatureVector& features : record.feat_true) {
          expected += model.PredictPipelineSeconds(
              features.values.data(), features.input_cardinality);
        }
      }
      EXPECT_EQ(evals[i].predicted_seconds, expected)
          << named.name << " record " << i;
    }
  }
}

TEST(EvaluateTest, RowNarrowerThanTheModelPredictsZero) {
  // The corpus loader accepts any feature-line width: this record's FT row
  // has 40 values, its FE row 48. Against a 48-feature model the narrow row
  // does not fit and the record predicts 0 s instead of reading past the
  // row; the fitting FE row predicts as usual.
  Result<Corpus> corpus = LoadCorpusFromFile(
      std::string(T3_SOURCE_DIR) + "/tests/data/corpus_bad_dim.txt");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  Result<T3Model> model = T3Model::LoadFromFile(
      std::string(T3_SOURCE_DIR) + "/data/model_loo_airline.txt");
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_EQ(model->forest().num_features, 48);
  ASSERT_EQ(corpus->records.size(), 1u);
  const QueryRecord& record = corpus->records[0];
  ASSERT_EQ(record.feat_true[0].values.size(), 40u);
  ASSERT_EQ(record.feat_est[0].values.size(), 48u);

  EXPECT_EQ(PredictQuerySeconds(*model, record, CardinalityMode::kTrue), 0.0);
  EXPECT_EQ(PredictQuerySeconds(*model, record, CardinalityMode::kEstimated),
            model->PredictPipelineSeconds(record.feat_est[0].values.data(),
                                          record.feat_est[0].input_cardinality));
  const std::vector<RecordEvaluation> evals =
      EvaluateModel(*model, {&record});
  ASSERT_EQ(evals.size(), 1u);
  EXPECT_EQ(evals[0].predicted_seconds, 0.0);
}

TEST(ReportTest, TableFormatsAlignedColumns) {
  ReportTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "20000"});
  const std::string text = table.ToString();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("20000"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

}  // namespace
}  // namespace t3
