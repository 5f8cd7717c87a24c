#include "server/serving_model.h"

#include <utility>

#include "analysis/differential_check.h"
#include "common/check.h"
#include "common/string_util.h"

namespace t3 {

Result<std::shared_ptr<const ServingModel>> MakeServingModel(
    T3Model model, uint32_t version, std::string source) {
  // Re-prove the text round trip before this model can ever be published:
  // a model whose text does not reparse into the same bytes would not
  // survive a cache write/reload cycle, so it is refused.
  const Status same = ProveTextRoundTrip(model.ToText(), source);
  if (!same.ok()) return same;

  auto serving = std::make_shared<ServingModel>();
  serving->model = std::move(model);
  serving->version = version;
  serving->source = std::move(source);
  const Forest& forest = serving->model.forest();
  serving->flat = std::make_unique<FlatEvaluator>(forest);
  Result<std::unique_ptr<QuickScorerEvaluator>> quickscorer =
      QuickScorerEvaluator::Build(forest);
  // A tree wider than the leaf mask is not fatal: the flat fallback is
  // bit-identical, just slower.
  if (quickscorer.ok()) {
#ifndef NDEBUG
    // One witness row per leaf cell, bit-compared against Forest::Predict.
    const QuickScorerEvaluator* qs = quickscorer->get();
    const AnalysisReport differential = BatchDifferentialCheck(
        forest, [qs](const double* rows, size_t num_rows,
                     size_t num_features, double* out) {
          qs->PredictBatch(rows, num_rows, num_features, out);
        });
    if (differential.HasErrors()) {
      return InternalError(StrFormat(
          "model %s: differential check rejected QuickScorer: %s",
          serving->source.c_str(),
          differential.ToStatus().message().c_str()));
    }
#endif
    serving->quickscorer = *std::move(quickscorer);
  }
  return std::shared_ptr<const ServingModel>(std::move(serving));
}

Result<std::shared_ptr<const ServingModel>> LoadServingModel(
    const std::string& path, uint32_t version) {
  Result<T3Model> model = T3Model::LoadFromFile(path);
  if (!model.ok()) return model.status();
  return MakeServingModel(*std::move(model), version, path);
}

ModelRegistry::ModelRegistry(std::shared_ptr<const ServingModel> initial) {
  T3_CHECK(initial != nullptr);
  next_version_.store(initial->version + 1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(initial);
}

Result<uint32_t> ModelRegistry::SwapFromFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  const std::shared_ptr<const ServingModel> serving = Current();
  const uint32_t version = next_version_.load(std::memory_order_relaxed);
  Result<std::shared_ptr<const ServingModel>> loaded =
      LoadServingModel(path, version);
  if (!loaded.ok()) return loaded.status();
  if ((*loaded)->num_features() != serving->num_features()) {
    return FailedPreconditionError(StrFormat(
        "hot swap rejected: %s has %d features, the served model has %d",
        path.c_str(), (*loaded)->num_features(), serving->num_features()));
  }
  next_version_.store(version + 1, std::memory_order_relaxed);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = *std::move(loaded);
  }
  return version;
}

}  // namespace t3
