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
  serving->flat = std::make_unique<FlatEvaluator>(serving->model.forest());
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(serving->model.forest());
  if (compiled.ok()) {
    serving->compiled = *std::move(compiled);
  }
  // Compile failure (non-x86-64, mmap denial) is not fatal: the flat
  // fallback is bit-identical, just slower.
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
