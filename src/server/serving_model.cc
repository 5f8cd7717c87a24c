#include "server/serving_model.h"

#include <utility>

#include "analysis/forest_diff.h"
#include "common/check.h"
#include "common/string_util.h"

namespace t3 {

Result<std::shared_ptr<const ServingModel>> MakeServingModel(
    T3Model model, uint32_t version, std::string source) {
  // Re-prove the text-format round trip before this model can ever be
  // published: serialize, reparse, and statically bound the divergence over
  // the whole feature space. The serializer is %.17g-bit-exact, so anything
  // but a proven zero means the artifact would not survive a cache
  // write/reload cycle — refuse to serve it.
  Result<Forest> reparsed = Forest::FromText(model.forest().ToText());
  if (!reparsed.ok()) {
    return InternalError(StrFormat(
        "model %s fails its own serialization round trip: %s",
        source.c_str(), reparsed.status().ToString().c_str()));
  }
  const Status same = ProveForestsEqual(model.forest(), *reparsed);
  if (!same.ok()) {
    return Status(same.code(),
                  StrFormat("model %s drifts from its serialized form: %s",
                            source.c_str(), same.message().c_str()));
  }

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
