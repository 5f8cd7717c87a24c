#include "harness/workbench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "common/text_format.h"
#include "common/timer.h"
#include "features/feature_registry.h"
#include "gbt/trainer.h"
#include "harness/runner.h"

namespace t3 {
namespace {

constexpr char kCorpusFile[] = "corpus_q40_r10.txt";
constexpr char kLiveCorpusCache[] = "cache_corpus_live.txt";

const char* ModeSuffix(CardinalityMode mode) {
  return mode == CardinalityMode::kTrue ? "true" : "est";
}

/// T3_QUICK_TREES=<n> caps every training run at n trees (CI bench smoke);
/// 0 = no cap.
int QuickTreesCap() {
  const char* value = std::getenv("T3_QUICK_TREES");
  if (value == nullptr) return 0;
  int64_t parsed = 0;
  if (!ParseInt64(value, &parsed) || parsed <= 0) {
    std::fprintf(stderr, "Workbench: ignoring invalid T3_QUICK_TREES=%s\n",
                 value);
    return 0;
  }
  return static_cast<int>(parsed);
}

/// Folds everything that shapes a trained forest, apart from the corpus,
/// into `hash`: the target, the dropped features, the runs limit and the
/// effective TrainParams (after the T3_QUICK_TREES cap).
void HashTrainingInputs(const T3Config& config, const TrainParams& params,
                        int runs_limit, Fnv1a* hash) {
  hash->U64(static_cast<uint64_t>(config.target));
  hash->U64(config.drop_features.size());
  for (const int feature : config.drop_features) {
    hash->U64(static_cast<uint64_t>(feature));
  }
  hash->U64(static_cast<uint64_t>(runs_limit));
  hash->U64(static_cast<uint64_t>(params.num_trees));
  hash->U64(static_cast<uint64_t>(params.max_leaves));
  hash->F64(params.learning_rate);
  hash->U64(static_cast<uint64_t>(params.max_bins));
  hash->U64(static_cast<uint64_t>(params.min_data_in_leaf));
  hash->F64(params.l2_reg);
  hash->F64(params.min_split_gain);
  hash->U64(static_cast<uint64_t>(params.objective));
  hash->F64(params.validation_fraction);
  hash->U64(static_cast<uint64_t>(params.early_stopping_rounds));
  hash->U64(params.seed);
}

/// `config.train` with the T3_QUICK_TREES cap applied.
TrainParams EffectiveTrainParams(const T3Config& config) {
  TrainParams params = config.train;
  const int quick_cap = QuickTreesCap();
  if (quick_cap > 0) params.num_trees = std::min(params.num_trees, quick_cap);
  return params;
}

std::string CachePath(const std::string& data_dir, const std::string& key) {
  return data_dir + "/cache_model_" + key + ".txt";
}

}  // namespace

std::vector<NamedModelConfig> NamedModelConfigs() {
  std::vector<NamedModelConfig> configs;

  NamedModelConfig main_config;
  main_config.name = "main";
  configs.push_back(main_config);

  NamedModelConfig per_pipeline;
  per_pipeline.name = "ablation_per_pipeline";
  per_pipeline.config.target = PredictionTarget::kPerPipeline;
  configs.push_back(per_pipeline);

  NamedModelConfig per_query;
  per_query.name = "ablation_per_query";
  per_query.config.target = PredictionTarget::kPerQuery;
  configs.push_back(per_query);

  NamedModelConfig on_estimates;
  on_estimates.name = "t3_trained_on_estimates";
  on_estimates.mode = CardinalityMode::kEstimated;
  configs.push_back(on_estimates);

  NamedModelConfig single_run;
  single_run.name = "runs_1";
  single_run.runs_limit = 1;
  configs.push_back(single_run);

  // Feature ablation: the predicate-class percentage slots zeroed out.
  NamedModelConfig no_predicates;
  no_predicates.name = "ablation_no_predicates";
  const FeatureRegistry& registry = FeatureRegistry::Get();
  for (int i = 0; i < registry.num_features(); ++i) {
    if (registry.def(i).pred_slot >= 0) {
      no_predicates.config.drop_features.push_back(i);
    }
  }
  configs.push_back(no_predicates);

  // Leave-one-out example (Figure 9 builds one per family on the fly).
  NamedModelConfig loo_tpch;
  loo_tpch.name = "loo_tpch";
  loo_tpch.train_filter = [](const QueryRecord& r) {
    return r.instance.rfind("tpch", 0) != 0;
  };
  configs.push_back(loo_tpch);

  return configs;
}

Workbench::Workbench(std::string data_dir)
    : Workbench(std::move(data_dir), WorkbenchOptions()) {}

Workbench::Workbench(std::string data_dir, WorkbenchOptions options)
    : data_dir_(std::move(data_dir)), options_(std::move(options)) {}

Workbench::~Workbench() = default;

ThreadPool& Workbench::PoolLocked() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(std::max<size_t>(
        options_.num_threads, 1));
  }
  return *pool_;
}

const Corpus& Workbench::corpus() {
  std::lock_guard<std::mutex> lock(mu_);
  return CorpusLocked();
}

const Corpus& Workbench::CorpusLocked() {
  if (corpus_ != nullptr) return *corpus_;

  // Preference order: an explicit override (option, then T3_CORPUS env),
  // the full benchmarked fixture (when present), then a previously
  // generated live corpus, then a fresh live build (datagen -> querygen ->
  // engine -> featurizer) cached for subsequent binaries.
  std::string override_path = options_.corpus_path;
  if (override_path.empty()) {
    const char* env = std::getenv("T3_CORPUS");
    if (env != nullptr && env[0] != '\0') override_path = env;
  }
  if (!override_path.empty()) {
    Result<Corpus> loaded = LoadCorpusFromFile(override_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "Workbench: cannot load corpus override %s: %s\n",
                   override_path.c_str(), loaded.status().ToString().c_str());
      T3_CHECK(loaded.ok());
    }
    corpus_ = std::make_unique<Corpus>(*std::move(loaded));
    return *corpus_;
  }

  const std::string fixture_path = data_dir_ + "/" + kCorpusFile;
  Result<Corpus> loaded = LoadCorpusFromFile(fixture_path);
  if (!loaded.ok()) {
    const std::string cache_path = data_dir_ + "/" + kLiveCorpusCache;
    loaded = LoadCorpusFromFile(cache_path);
    if (!loaded.ok()) {
      std::fprintf(stderr,
                   "Workbench: no corpus fixture at %s; generating a live "
                   "corpus (all instances; this takes a few minutes on "
                   "first run)...\n",
                   fixture_path.c_str());
      LiveCorpusOptions options;
      options.pool = &PoolLocked();
      Stopwatch timer;
      Result<Corpus> live = BuildLiveCorpus(options);
      if (!live.ok()) {
        std::fprintf(stderr, "Workbench: live corpus build failed: %s\n",
                     live.status().ToString().c_str());
        T3_CHECK(live.ok());
      }
      std::fprintf(stderr,
                   "Workbench: built live corpus: %zu records in %.1fs\n",
                   live->records.size(), timer.ElapsedSeconds());
      const Status saved = SaveCorpusToFile(*live, cache_path);
      if (!saved.ok()) {
        std::fprintf(stderr, "Workbench: cannot cache live corpus: %s\n",
                     saved.ToString().c_str());
      }
      loaded = *std::move(live);
    }
  }
  corpus_ = std::make_unique<Corpus>(*std::move(loaded));
  return *corpus_;
}

const T3Model& Workbench::MainModel() {
  return GetModel("main", CardinalityMode::kTrue);
}

const T3Model& Workbench::GetModel(const NamedModelConfig& named) {
  return GetModel(named.name, named.mode, named.train_filter, named.config,
                  named.runs_limit);
}

const T3Model& Workbench::GetModel(const std::string& name,
                                   CardinalityMode mode,
                                   const RecordFilter& train_filter,
                                   const T3Config& config, int runs_limit) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetModelLocked(name, mode, train_filter, config, runs_limit);
}

std::string Workbench::ModelCachePath(const std::string& name,
                                      CardinalityMode mode,
                                      const T3Config& config,
                                      int runs_limit) {
  std::lock_guard<std::mutex> lock(mu_);
  return CachePath(data_dir_, ModelKeyLocked(name, mode, config, runs_limit));
}

std::string Workbench::ModelKeyLocked(const std::string& name,
                                      CardinalityMode mode,
                                      const T3Config& config,
                                      int runs_limit) {
  if (!corpus_fingerprint_.has_value()) {
    Fnv1a corpus_hash;
    const std::string text = CorpusToText(CorpusLocked());
    corpus_hash.Bytes(text.data(), text.size());
    corpus_fingerprint_ = corpus_hash.hash();
  }
  Fnv1a hash;
  hash.U64(*corpus_fingerprint_);
  HashTrainingInputs(config, EffectiveTrainParams(config), runs_limit,
                     &hash);
  return StrFormat("%s_%s_%016llx", name.c_str(), ModeSuffix(mode),
                   static_cast<unsigned long long>(hash.hash()));
}

const T3Model& Workbench::GetModelLocked(const std::string& name,
                                         CardinalityMode mode,
                                         const RecordFilter& train_filter,
                                         const T3Config& config,
                                         int runs_limit) {
  const std::string key = ModelKeyLocked(name, mode, config, runs_limit);
  auto it = models_.find(key);
  if (it != models_.end()) return *it->second;

  const std::string cache_path = CachePath(data_dir_, key);
  Result<T3Model> cached = T3Model::LoadFromFile(cache_path);
  if (cached.ok() && cached->target() == config.target) {
    return *(models_[key] =
                 std::make_unique<T3Model>(*std::move(cached)));
  }
  if (cached.ok()) {
    std::fprintf(stderr,
                 "Workbench: cached model %s has target %d, config wants "
                 "%d; retraining.\n",
                 cache_path.c_str(), static_cast<int>(cached->target()),
                 static_cast<int>(config.target));
  } else if (cached.status().code() != StatusCode::kNotFound) {
    // A cache file that exists but fails the loader's validation is never
    // served: report it and retrain from the corpus.
    std::fprintf(stderr,
                 "Workbench: rejecting cached model %s (%s); retraining.\n",
                 cache_path.c_str(), cached.status().ToString().c_str());
  }

  const Corpus& data = CorpusLocked();
  Result<TrainingMatrix> matrix = BuildTrainingMatrix(
      data, train_filter, mode, config, runs_limit, &PoolLocked());
  T3_CHECK_OK(matrix);

  const TrainParams params = EffectiveTrainParams(config);
  std::fprintf(stderr,
               "Workbench: training model %s on %zu rows x %zu features...\n",
               key.c_str(), matrix->targets.size(), matrix->num_features);
  Stopwatch timer;
  TrainStats stats;
  Result<Forest> forest =
      TrainForest(matrix->rows, matrix->targets, matrix->num_features, params,
                  &stats);
  T3_CHECK_OK(forest);
  std::fprintf(stderr,
               "Workbench: trained %s: %d trees in %.1fs (valid MAPE %.3f)\n",
               key.c_str(), stats.num_trees, timer.ElapsedSeconds(),
               stats.best_valid_loss);

  // Dropped-feature invariant: a column zeroed during training is constant,
  // so the trainer must never have split on it — which is what makes the
  // ablation sound at evaluation time (the forest cannot read the feature).
  const std::vector<int> split_counts = FeatureSplitCounts(*forest);
  for (const int dropped : config.drop_features) {
    if (dropped >= 0 &&
        static_cast<size_t>(dropped) < split_counts.size()) {
      T3_CHECK(split_counts[static_cast<size_t>(dropped)] == 0);
    }
  }

  auto model =
      std::make_unique<T3Model>(*std::move(forest), config.target);
  const T3Model& result = *(models_[key] = std::move(model));

  const std::string text = result.ToText();
  const Status saved = WriteStringToFile(cache_path, text);
  if (!saved.ok()) {
    std::fprintf(stderr, "Workbench: cannot cache model %s: %s\n",
                 key.c_str(), saved.ToString().c_str());
    return result;
  }

  // Bit-exactness proof for the cache just written: the file reads back as
  // exactly the trained model's text, and that text reparses into the same
  // bytes (ProveTextRoundTrip). Anything else means future runs would
  // silently benchmark a model that diverges from the one just trained.
  Result<std::string> reread = ReadFileToString(cache_path);
  const Status proven =
      !reread.ok() ? reread.status()
      : *reread != text
          ? InternalError("the file differs from the text written")
          : ProveTextRoundTrip(text, cache_path);
  if (!proven.ok()) {
    std::fprintf(stderr,
                 "Workbench: cached model %s fails its round-trip proof: "
                 "%s\n",
                 cache_path.c_str(), proven.ToString().c_str());
    T3_CHECK_OK(proven);
  }
  return result;
}

}  // namespace t3
