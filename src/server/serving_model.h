#ifndef T3_SERVER_SERVING_MODEL_H_
#define T3_SERVER_SERVING_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "model/t3_model.h"
#include "treejit/evaluator.h"

namespace t3 {

/// One immutable, versioned model snapshot the server predicts with: the
/// T3Model plus its row evaluators. Snapshots are shared read-only
/// across worker threads via shared_ptr<const ServingModel>; a hot swap
/// publishes a new snapshot and requests being predicted finish on the old
/// one (the shared_ptr keeps it alive), so no request is ever dropped or
/// served by a half-swapped model.
struct ServingModel {
  T3Model model;
  /// QuickScorer bitvector evaluator; null when a tree has more leaves
  /// than its 64-bit leaf mask holds.
  std::unique_ptr<QuickScorerEvaluator> quickscorer;
  /// Flattened-interpreter fallback; always present, bit-identical.
  std::unique_ptr<FlatEvaluator> flat;
  uint32_t version = 0;
  std::string source;  ///< File path or a descriptive tag, for stats.

  /// The evaluator that serves: QuickScorer, else flat. Every
  /// ForestEvaluator is bit-identical to Forest::Predict, so the choice
  /// never changes results.
  const ForestEvaluator& evaluator() const {
    return quickscorer != nullptr
               ? static_cast<const ForestEvaluator&>(*quickscorer)
               : *flat;
  }

  /// Name of the evaluator that serves, for stats: "quickscorer" or "flat".
  const char* evaluator_name() const {
    return quickscorer != nullptr ? "quickscorer" : "flat";
  }

  int num_features() const { return model.forest().num_features; }

  /// Raw forest output -> predicted pipeline seconds through
  /// T3Model::SecondsFromRaw, so served predictions bit-match the direct
  /// model call.
  double RowSeconds(double raw, double input_cardinality) const {
    return model.SecondsFromRaw(raw, input_cardinality);
  }
};

/// Wraps `model` as a serving snapshot: re-proves text-format bit-exactness
/// (ProveTextRoundTrip over model.ToText(), the same proof
/// Workbench::GetModel runs on freshly written caches), then builds the
/// flat and QuickScorer evaluators. Debug builds also run
/// BatchDifferentialCheck over QuickScorer. InternalError when a proof or
/// the check fails; a model that cannot be proven is never published. A
/// tree wider than QuickScorer's leaf mask is not an error: flat serves.
Result<std::shared_ptr<const ServingModel>> MakeServingModel(
    T3Model model, uint32_t version, std::string source);

/// MakeServingModel over T3Model::LoadFromFile(path) — the hot-swap loader.
Result<std::shared_ptr<const ServingModel>> LoadServingModel(
    const std::string& path, uint32_t version);

/// The server's versioned model slot. Publish/Current form a
/// release/acquire pair through `mu_` (mutex unlock releases, the next
/// lock acquires):
///
///  - publishing under the lock makes every write that built the snapshot
///    (forest arrays, evaluator tables) visible
///    to any thread whose Current() observes the new pointer;
///  - readers copy the shared_ptr inside the critical section and hold the
///    reference outside it, so the old snapshot outlives every request
///    still predicting with it and is freed when the last reference drops.
///
/// Current() is one lock + shared_ptr copy, taken once per request — not
/// per row — so it is never on the per-prediction hot path.
/// (std::atomic<std::shared_ptr> would make the read lock-free, but
/// libstdc++'s lock-bit implementation is opaque to ThreadSanitizer and CI
/// runs the server tests under TSan.)
///
/// Swap versions continue strictly increasing from the initial snapshot's.
class ModelRegistry {
 public:
  /// Takes the initial snapshot (conventionally version 1).
  explicit ModelRegistry(std::shared_ptr<const ServingModel> initial);

  /// The current snapshot (never null).
  std::shared_ptr<const ServingModel> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Loads `path`, re-proves bit-exactness, rejects a model whose feature
  /// count differs from the currently served one (in-flight requests were
  /// validated against that width), assigns the next version, and
  /// publishes. Serialized internally; concurrent swaps queue.
  Result<uint32_t> SwapFromFile(const std::string& path);

  uint32_t num_swaps() const {
    return swaps_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex swap_mu_;  ///< Serializes SwapFromFile (not the readers).
  mutable std::mutex mu_;  ///< Guards `current_`.
  std::shared_ptr<const ServingModel> current_;
  std::atomic<uint32_t> next_version_{2};
  std::atomic<uint32_t> swaps_{0};
};

}  // namespace t3

#endif  // T3_SERVER_SERVING_MODEL_H_
