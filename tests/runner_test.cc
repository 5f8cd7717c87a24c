#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/thread_pool.h"
#include "harness/corpus.h"
#include "harness/runner.h"
#include "harness/training.h"
#include "querygen/querygen.h"

namespace t3 {
namespace {

const Database& TestDatabase() {
  static const Database* db = []() {
    Result<Database> generated =
        GenerateDatabase("tpch_sf0", /*seed=*/42, /*scale_override=*/0.05,
                         /*pool=*/nullptr);
    T3_CHECK_OK(generated);
    return new Database(*std::move(generated));
  }();
  return *db;
}

TEST(RunnerTest, InstanceSplitBookkeeping) {
  EXPECT_EQ(InstanceScaleIndex("tpch_sf0"), 0);
  EXPECT_EQ(InstanceScaleIndex("tpch_sf2"), 2);
  EXPECT_EQ(InstanceScaleIndex("airline_small"), 1);  // _large sorts first.
  EXPECT_FALSE(InstanceIsTest("tpch_sf1"));
  EXPECT_TRUE(InstanceIsTest("tpcds_sf1"));
  EXPECT_FALSE(InstanceIsTest("imdb_sf1"));
}

TEST(RunnerTest, BenchmarkQueryFillsTheWholeRecord) {
  QueryGenerator generator(&TestDatabase().catalog(), 42);
  Result<GeneratedQuery> query = generator.Generate(QueryGroup::kSeJA, 0);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  Result<QueryRecord> record = BenchmarkQuery(TestDatabase(), *query, 3);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->instance, "tpch_sf0");
  EXPECT_FALSE(record->is_test);
  EXPECT_EQ(record->structure_group,
            static_cast<int>(QueryGroup::kSeJA));
  EXPECT_EQ(record->runs, 3);
  EXPECT_EQ(record->total_run_seconds.size(), 3u);
  EXPECT_GT(record->median_seconds, 0.0);
  EXPECT_FALSE(record->plan_nodes.empty());
  // A SeJA query has a join and an aggregate: at least 3 pipelines.
  EXPECT_GE(record->pipeline_times.size(), 3u);
  ASSERT_EQ(record->feat_true.size(), record->pipeline_times.size());
  ASSERT_EQ(record->feat_est.size(), record->pipeline_times.size());
  for (const PipelineFeatureVector& features : record->feat_true) {
    EXPECT_EQ(features.values.size(), 48u);
    EXPECT_GT(features.input_cardinality, 0.0);
  }
  // Measured (FT) and estimated (FE) features share the layout but differ
  // in content wherever the estimator is imperfect.
  for (size_t p = 0; p < record->feat_true.size(); ++p) {
    EXPECT_EQ(record->feat_est[p].values.size(),
              record->feat_true[p].values.size());
  }
}

// The PR's acceptance bar: a corpus row produced by the live pipeline
// (querygen -> engine -> featurizer) round-trips bit-exactly through the
// harness corpus loader.
TEST(RunnerTest, LiveCorpusRoundTripsBitExactly) {
  LiveCorpusOptions options;
  options.instances = {"tpch_sf0"};
  options.groups = {QueryGroup::kSe, QueryGroup::kSeJA};
  options.queries_per_group = 2;
  options.fixed_suites = true;
  options.runs = 2;
  options.scale_override = 0.05;
  Result<Corpus> corpus = BuildLiveCorpus(options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  // 2 groups x 2 queries + the 6 fixed TPC-H-like queries.
  EXPECT_EQ(corpus->records.size(), 10u);

  const std::string text = CorpusToText(*corpus);
  Result<Corpus> reparsed = ParseCorpus(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->records.size(), corpus->records.size());
  EXPECT_EQ(CorpusToText(*reparsed), text);

  // Spot-check semantic equality, not just textual.
  const QueryRecord& a = corpus->records[0];
  const QueryRecord& b = reparsed->records[0];
  EXPECT_EQ(b.instance, a.instance);
  EXPECT_EQ(b.median_seconds, a.median_seconds);
  EXPECT_EQ(b.plan_nodes.size(), a.plan_nodes.size());
  ASSERT_FALSE(b.feat_true.empty());
  EXPECT_EQ(b.feat_true[0].values, a.feat_true[0].values);
  EXPECT_EQ(b.feat_est[0].values, a.feat_est[0].values);
}

// The harness-side half of this contract (byte-identical cache_model files
// from Workbench::GetModel) lives in harness_test; this pins the layer it
// rests on: the training matrix itself is bit-identical however many
// threads fill it.
TEST(RunnerTest, TrainingMatrixIsBitIdenticalAcrossPoolSizes) {
  Result<Corpus> corpus = LoadCorpusFromFile(std::string(T3_SOURCE_DIR) +
                                             "/data/corpus_mini.txt");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  const T3Config config;
  Result<TrainingMatrix> reference = BuildTrainingMatrix(
      *corpus, nullptr, CardinalityMode::kTrue, config, 0, nullptr);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(reference->num_features, 48u);
  EXPECT_EQ(reference->rows.size(),
            reference->targets.size() * reference->num_features);

  for (const size_t threads : {1u, 3u, 7u}) {
    ThreadPool pool(threads);
    Result<TrainingMatrix> parallel = BuildTrainingMatrix(
        *corpus, nullptr, CardinalityMode::kTrue, config, 0, &pool);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    // std::vector<double> equality is element-wise bitwise equality here:
    // every value must match the sequential fill exactly.
    EXPECT_EQ(parallel->rows, reference->rows) << threads << " threads";
    EXPECT_EQ(parallel->targets, reference->targets) << threads << " threads";
    EXPECT_EQ(parallel->num_features, reference->num_features);
  }
}

TEST(RunnerTest, BenchmarkQueryRejectsZeroRuns) {
  QueryGenerator generator(&TestDatabase().catalog(), 42);
  Result<GeneratedQuery> query = generator.Generate(QueryGroup::kSe, 0);
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(BenchmarkQuery(TestDatabase(), *query, 0).ok());
}

}  // namespace
}  // namespace t3
