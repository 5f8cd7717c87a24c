// Reproduces Table 1: single-query prediction latencies of the model
// hierarchy. Rows: a Zero-Shot-style NN, a Stage-style hierarchy
// (cache + DT + NN with the paper's observed mix), T3 interpreted, and
// T3 compiled.

#include <unordered_map>

#include "baselines/stage.h"
#include "baselines/zeroshot.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/text_format.h"

namespace t3 {
namespace {

void Run() {
  using bench::SharedWorkbench;
  Workbench& workbench = SharedWorkbench();
  const Corpus& corpus = workbench.corpus();
  const T3Model& t3 = workbench.MainModel();

  // The Zero-Shot comparator (trained once, cached on disk).
  const auto train_records = SelectRecords(corpus, bench::IsTrain);
  std::unique_ptr<ZeroShotModel> zero_shot;
  {
    const std::string path = workbench.data_dir() + "/model_zeroshot_main.txt";
    auto cached = ReadFileToString(path);
    if (cached.ok()) {
      auto loaded = ZeroShotModel::Load(cached.value());
      if (loaded.ok()) zero_shot = std::move(loaded).value();
    }
    if (zero_shot == nullptr) {
      auto trained = ZeroShotModel::Train(train_records, CardinalityMode::kTrue,
                                          ZeroShotConfig());
      T3_CHECK(trained.ok()) << trained.status().ToString();
      zero_shot = std::move(trained).value();
      T3_CHECK_OK(WriteStringToFile(path, zero_shot->Serialize()));
    }
  }

  // "The average query": a test record with the corpus-median pipeline
  // count.
  const auto test_records = SelectRecords(corpus, bench::IsTest);
  T3_CHECK(!test_records.empty());
  std::vector<double> pipeline_counts;
  for (const auto* r : test_records) {
    pipeline_counts.push_back(static_cast<double>(r->num_pipelines()));
  }
  const double median_pipelines = Median(pipeline_counts);
  const QueryRecord* average_query = test_records[0];
  for (const auto* r : test_records) {
    if (static_cast<double>(r->num_pipelines()) == median_pipelines) {
      average_query = r;
      break;
    }
  }

  volatile double sink = 0;
  T3Model& model = const_cast<T3Model&>(t3);

  model.set_eval_mode(EvalMode::kCompiled);
  const double t3_compiled = bench::MedianLatencySeconds(
      [&] { sink = model.PredictQuerySeconds(average_query->feat_true); });
  model.set_eval_mode(EvalMode::kInterpreted);
  const double t3_interpreted = bench::MedianLatencySeconds(
      [&] { sink = model.PredictQuerySeconds(average_query->feat_true); });
  model.set_eval_mode(EvalMode::kCompiled);

  const double nn_latency = bench::MedianLatencySeconds(
      [&] {
        sink = zero_shot->PredictQuerySeconds(*average_query,
                                              CardinalityMode::kTrue);
      },
      500, 50);

  // Latency-only probe of a paper-scale NN architecture: the published Zero
  // Shot model uses hidden sizes in the hundreds, ours trains at hidden=64
  // for time budget reasons. Forward latency depends on the architecture,
  // not the weights, so an untrained wide network gives an honest latency
  // estimate for the paper-scale configuration (accuracy columns do NOT
  // apply to it).
  double nn_paper_scale_latency = 0;
  {
    ZeroShotConfig wide;
    wide.hidden = 384;
    wide.epochs = 0;
    wide.max_train_queries = 1;
    std::vector<const QueryRecord*> one = {average_query};
    auto wide_model = ZeroShotModel::Train(one, CardinalityMode::kTrue, wide);
    T3_CHECK(wide_model.ok());
    nn_paper_scale_latency = bench::MedianLatencySeconds(
        [&] {
          sink = (*wide_model)->PredictQuerySeconds(*average_query,
                                                    CardinalityMode::kTrue);
        },
        200, 20);
  }

  // Stage-style hierarchy: a query cache in front of a DT in front of the
  // NN. Cache latency is one hash lookup; the mix follows the paper's
  // narrative (most queries hit the cache, the NN is rare but slow).
  std::unordered_map<uint64_t, double> cache;
  for (uint64_t i = 0; i < 4096; ++i) cache[i * 2654435761ULL] = 1.0;
  uint64_t probe = 0;
  const double cache_latency = bench::MedianLatencySeconds([&] {
    auto it = cache.find((probe++ % 4096) * 2654435761ULL);
    sink = it == cache.end() ? 0.0 : it->second;
  });
  // AutoWLM-style DT on a single query vector, interpreted.
  const T3Config per_query_config = [] {
    T3Config config;
    config.target = PredictionTarget::kPerQuery;
    return config;
  }();
  T3Model& autowlm = const_cast<T3Model&>(workbench.GetModel(
      "autowlm_per_query", CardinalityMode::kTrue, bench::IsTrain,
      per_query_config));
  autowlm.set_eval_mode(EvalMode::kInterpreted);
  const double dt_latency = bench::MedianLatencySeconds(
      [&] { sink = autowlm.PredictQuerySeconds(average_query->feat_true); });
  const double kCacheShare = 0.60;
  const double kDtShare = 0.35;
  const double kNnShare = 0.05;
  const double stage_avg = kCacheShare * cache_latency +
                           kDtShare * dt_latency + kNnShare * nn_latency;

  PrintExperimentHeader(
      "Table 1: Latencies of performance prediction models",
      "Zero Shot NN ~50ms; Stage cache ~2us / DT ~1ms / NN ~30ms, avg "
      "~300us; T3 interpreted 22us; T3 compiled 4us. Absolute values differ "
      "on this substrate; the ordering and the orders-of-magnitude gaps are "
      "the claims under test.");
  ReportTable table({"Model", "Cache", "DT", "NN", "Avg"});
  table.AddRow({"Zero Shot (NN)", "-", "-", bench::FormatSeconds(nn_latency),
                bench::FormatSeconds(nn_latency)});
  table.AddRow({"Zero Shot (paper-scale arch, latency only)", "-", "-",
                bench::FormatSeconds(nn_paper_scale_latency),
                bench::FormatSeconds(nn_paper_scale_latency)});
  table.AddRow({"Stage-style hierarchy", bench::FormatSeconds(cache_latency),
                bench::FormatSeconds(dt_latency),
                bench::FormatSeconds(nn_latency),
                bench::FormatSeconds(stage_avg)});
  table.AddRow({"T3 interpreted", "-", bench::FormatSeconds(t3_interpreted),
                "-", bench::FormatSeconds(t3_interpreted)});
  table.AddRow({"T3 compiled (ours)", "-", bench::FormatSeconds(t3_compiled),
                "-", bench::FormatSeconds(t3_compiled)});
  table.Print();

  std::printf(
      "\nspeedups: compiled vs interpreted %.1fx, compiled vs NN %.0fx\n",
      t3_interpreted / t3_compiled, nn_latency / t3_compiled);

  // A live Stage hierarchy over a realistic query stream: 60% repeats of
  // already-executed queries (cache hits), the rest routed by complexity.
  {
    StagePredictor stage(&autowlm, zero_shot.get(), /*dt_max_pipelines=*/4);
    Rng rng(4242);
    std::vector<const QueryRecord*> stream;
    for (int i = 0; i < 3000; ++i) {
      const QueryRecord* record =
          test_records[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(test_records.size()) - 1))];
      stream.push_back(record);
      if (rng.Bernoulli(0.6)) stage.Observe(*record, record->median_seconds);
    }
    size_t tier_counts[3] = {0, 0, 0};
    Stopwatch timer;
    for (const QueryRecord* record : stream) {
      sink = stage.PredictQuerySeconds(*record, CardinalityMode::kTrue);
      tier_counts[static_cast<size_t>(stage.last_tier())]++;
    }
    const double avg = timer.ElapsedSeconds() /
                       static_cast<double>(stream.size());
    std::printf(
        "live Stage hierarchy over %zu-query stream: avg %s/query "
        "(cache %zu, DT %zu, NN %zu)\n",
        stream.size(), bench::FormatSeconds(avg).c_str(), tier_counts[0],
        tier_counts[1], tier_counts[2]);
  }
  (void)sink;
}

}  // namespace
}  // namespace t3

int main() {
  t3::Run();
  return 0;
}
