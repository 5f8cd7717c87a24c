// corpus_build: the offline path a T3 user pays for before any prediction —
// BuildLiveCorpus (datagen -> querygen -> engine -> featurizer), then
// training on the train split and evaluation on the held-out TPC-DS split.

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "analysis/corpus_auditor.h"
#include "bench.h"
#include "common/stats.h"
#include "datagen/spec.h"
#include "engine/executor.h"
#include "features/featurizer.h"
#include "harness/evaluate.h"
#include "harness/runner.h"
#include "harness/training.h"
#include "plan/pipeline.h"
#include "querygen/querygen.h"
#include "querygen/suites.h"

namespace t3::perfbench {
namespace {

/// The probe of the other workloads: a build of one train and one held-out
/// instance, run several times (main.cc), reporting the best records/s (host
/// interference only slows a build). The full build is corpus_build's own.
/// The probe always builds with the Workbench's default seed: on a few
/// instances the query mix of a seed moves records/s by +-30%, so a
/// seeded probe would measure the seed.
const std::vector<std::string> kProbeInstances = {"tpch_sf1", "tpcds_sf1"};
/// On the probe workloads test_qerror_p50 is the served model's q-error
/// on this tracked corpus's test split: a live build that small gives
/// labels too noisy to compare runs (+-40% across identical builds).
constexpr char kProbeEvalCorpus[] = "data/corpus_mini.txt";

/// Redirects stderr into memory for the duration of a call, so the
/// queries BuildLiveCorpus skips (it reports each on stderr) can be
/// counted; the captured text is replayed to the real stderr.
class StderrCapture {
 public:
  StderrCapture() {
    std::fflush(stderr);
    memfd_ = memfd_create("perfbench-stderr", 0);
    saved_ = dup(STDERR_FILENO);
    if (memfd_ < 0 || saved_ < 0 || dup2(memfd_, STDERR_FILENO) < 0) {
      Fail("cannot capture stderr");
    }
  }
  StderrCapture(const StderrCapture&) = delete;
  StderrCapture& operator=(const StderrCapture&) = delete;
  ~StderrCapture() {
    if (saved_ >= 0) Finish();
  }

  std::string Finish() {
    std::fflush(stderr);
    dup2(saved_, STDERR_FILENO);
    close(saved_);
    saved_ = -1;
    std::string text;
    char buffer[4096];
    lseek(memfd_, 0, SEEK_SET);
    for (ssize_t n; (n = read(memfd_, buffer, sizeof(buffer))) > 0;) {
      text.append(buffer, static_cast<size_t>(n));
    }
    close(memfd_);
    std::fwrite(text.data(), 1, text.size(), stderr);
    return text;
  }

 private:
  int memfd_ = -1;
  int saved_ = -1;
};

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

LiveCorpusOptions BuildOptions(const Context& ctx, bool own) {
  LiveCorpusOptions options;  // The Workbench's defaults...
  options.pool = ctx.threads.get();  // ...with its 4-thread datagen pool.
  if (own) {
    options.seed = ctx.options.seed;
  } else {
    options.instances = kProbeInstances;
  }
  return options;
}

void Audit(const Corpus& corpus) {
  const AnalysisReport audit = CorpusAuditor().Audit(corpus, "(live)");
  if (audit.HasErrors()) Fail("CorpusAuditor:\n%s", audit.ToString().c_str());
}

/// Trains with DefaultT3TrainParams on the train split and evaluates on the
/// test split; returns the test q-error p50.
double TrainAndEvaluate(Context& ctx, const Corpus& corpus) {
  Result<TrainingMatrix> matrix = [&] {
    ScopedSpan span(ctx.tracer, "harness.train_matrix", 0);
    return BuildTrainingMatrix(corpus, nullptr, CardinalityMode::kTrue,
                               T3Config(), 0, ctx.threads.get());
  }();
  if (!matrix.ok()) Fail("BuildTrainingMatrix: %s", matrix.status().ToString().c_str());
  TrainStats stats;
  Result<Forest> forest = [&] {
    ScopedSpan span(ctx.tracer, "gbt.train", 0);
    return TrainForest(matrix->rows, matrix->targets, matrix->num_features,
                       DefaultT3TrainParams(), &stats);
  }();
  if (!forest.ok()) Fail("TrainForest: %s", forest.status().ToString().c_str());
  if (ctx.tracer.enabled()) {
    ctx.report.Add("gbt.trees_kept", stats.num_trees, "count");
  }
  const T3Model model(*std::move(forest), PredictionTarget::kPerTuple);
  ScopedSpan span(ctx.tracer, "harness.evaluate", 0);
  const std::vector<RecordEvaluation> evals = EvaluateModel(
      model, SelectRecords(corpus, [](const QueryRecord& r) { return r.is_test; }));
  if (evals.empty()) Fail("no test records to evaluate");
  return Summarize(evals).p50;
}

/// The BuildLiveCorpus loop repeated from outside, one span per public
/// call, plus one extra instrumented execution per query for the engine
/// and featurizer spans. Returns the corpus and the wall seconds spent in
/// the extra work, which is not part of BuildLiveCorpus.
Corpus TracedBuild(Context& ctx, const LiveCorpusOptions& options,
                   double* extra_seconds) {
  Corpus corpus;
  double rows_in = 0.0, execute_seconds = 0.0;
  std::vector<std::string> instances = options.instances;
  if (instances.empty()) {
    for (const InstanceSpec& spec : AllInstances()) instances.push_back(spec.name);
  }
  uint64_t request = 0;
  for (const std::string& instance : instances) {
    Result<Database> db = [&] {
      ScopedSpan span(ctx.tracer, "datagen.generate", 0);
      return GenerateDatabase(instance, options.seed, options.scale_override,
                              options.pool);
    }();
    if (!db.ok()) Fail("datagen %s", instance.c_str());
    std::vector<GeneratedQuery> generated;
    QueryGenerator generator(&db->catalog(), options.seed);
    for (QueryGroup group : AllQueryGroups()) {
      for (int index = 0; index < options.queries_per_group; ++index) {
        ScopedSpan span(ctx.tracer, "querygen.generate", 0);
        Result<GeneratedQuery> query = generator.Generate(group, index);
        if (query.ok()) generated.push_back(*std::move(query));
      }
    }
    {
      ScopedSpan span(ctx.tracer, "querygen.fixed_suite", 0);
      Result<const InstanceSpec*> spec = FindInstance(instance);
      Result<std::vector<GeneratedQuery>> suite =
          FixedSuiteForFamily(db->catalog(), (*spec)->family);
      if (!suite.ok()) Fail("fixed suite for %s", instance.c_str());
      for (GeneratedQuery& query : *suite) generated.push_back(std::move(query));
    }
    for (const GeneratedQuery& query : generated) {
      ++request;
      Result<QueryRecord> record = [&] {
        ScopedSpan span(ctx.tracer, "harness.benchmark_query", request);
        return BenchmarkQuery(*db, query, options.runs);
      }();
      if (!record.ok()) continue;  // Counted as skipped by the caller.
      corpus.records.push_back(*std::move(record));

      const int64_t extra_start = NowNs();
      PhysicalPlan plan = query.plan;
      Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
      if (!decomposition.ok()) Fail("decompose %s", query.name.c_str());
      AnnotatePipelineStages(&plan, *decomposition);
      const Executor executor(db->catalog());
      const int64_t execute_start = NowNs();
      Result<ExplainAnalyze> executed = [&] {
        ScopedSpan span(ctx.tracer, "engine.execute", request);
        return executor.Execute(plan);
      }();
      execute_seconds += static_cast<double>(NowNs() - execute_start) / 1e9;
      if (!executed.ok()) Fail("execute %s", query.name.c_str());
      std::vector<double> true_rows;
      for (const OperatorStats& stats : executed->operators) {
        true_rows.push_back(static_cast<double>(stats.rows_out));
        rows_in += static_cast<double>(stats.rows_in);
      }
      ScopedSpan span(ctx.tracer, "features.featurize_true", request);
      if (!ComputePipelineFeatures(db->catalog(), plan, *decomposition, true_rows).ok()) {
        Fail("featurize %s", query.name.c_str());
      }
      *extra_seconds += static_cast<double>(NowNs() - extra_start) / 1e9;
    }
  }
  ctx.report.Add("engine.tuples_per_s", rows_in / execute_seconds, "1/s");
  std::vector<double> spread;
  for (const QueryRecord& record : corpus.records) {
    const std::vector<double>& runs = record.total_run_seconds;
    const double median = Median(runs);
    if (median > 0) {
      spread.push_back((*std::max_element(runs.begin(), runs.end()) -
                        *std::min_element(runs.begin(), runs.end())) / median);
    }
  }
  ctx.report.Add("harness.label_spread_p50", Median(spread), "ratio");
  return corpus;
}

}  // namespace

void CorpusPath::Build(bool own) {
  const LiveCorpusOptions options = BuildOptions(ctx_, own);
  StderrCapture capture;
  const int64_t start = NowNs();
  Result<Corpus> corpus = BuildLiveCorpus(options);
  last_wall_ = static_cast<double>(NowNs() - start) / 1e9;
  const std::string log = capture.Finish();
  if (!corpus.ok()) Fail("BuildLiveCorpus: %s", corpus.status().ToString().c_str());
  Audit(*corpus);
  rates_.push_back(static_cast<double>(corpus->records.size()) / last_wall_);
  if (own) {
    records_ += corpus->records.size();
    skipped_ += CountOccurrences(log, "BuildLiveCorpus: skipping");
    qerrors_.push_back(TrainAndEvaluate(ctx_, *corpus));
  }
  std::fprintf(stderr, "corpus_build%s: %zu records in %.2f s (%.2f records/s)\n",
               own ? "" : " probe", corpus->records.size(), last_wall_,
               rates_.back());
}

void CorpusPath::Probe() { Build(false); }

void CorpusPath::Full(double seconds) {
  // Whole builds until `seconds` have passed (at least one).
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    Build(true);
  } while (NowNs() < deadline);
}

void CorpusPath::Report(bool own) {
  if (own) {
    ctx_.report.Add("records_per_s", Median(rates_), "1/s");
    ctx_.report.Add("test_qerror_p50", Median(qerrors_), "ratio");
    ctx_.report.attempted += records_ + skipped_;
    ctx_.report.failed += skipped_;
    return;
  }
  // The best probe build: host interference only ever slows a build.
  ctx_.report.Add("records_per_s",
                  *std::max_element(rates_.begin(), rates_.end()), "1/s");
  Result<Corpus> labeled = LoadCorpusFromFile(kProbeEvalCorpus);
  if (!labeled.ok()) Fail("%s", labeled.status().ToString().c_str());
  ctx_.report.Add(
      "test_qerror_p50",
      Summarize(EvaluateModel(ctx_.model->model,
                              SelectRecords(*labeled, [](const QueryRecord& r) {
                                return r.is_test;
                              })))
          .p50,
      "ratio");
}

void CorpusPath::Trace(bool own) {
  // On the own workload an untraced build first: the base of the overhead.
  ctx_.tracer.set_paused(true);
  if (own) {
    Build(true);
    ctx_.report.attempted += records_ + skipped_;
    ctx_.report.failed += skipped_;
  }
  ctx_.tracer.set_paused(false);
  double extra_seconds = 0.0;
  const int64_t start = NowNs();
  const Corpus corpus = TracedBuild(ctx_, BuildOptions(ctx_, own), &extra_seconds);
  const double traced_seconds =
      static_cast<double>(NowNs() - start) / 1e9 - extra_seconds;
  Audit(corpus);
  TrainAndEvaluate(ctx_, corpus);
  if (own) {
    ctx_.report.Add("trace.overhead_pct",
                    100.0 * (traced_seconds - last_wall_) / last_wall_, "%");
  }
}

}  // namespace t3::perfbench
