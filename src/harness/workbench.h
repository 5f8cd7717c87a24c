#ifndef T3_HARNESS_WORKBENCH_H_
#define T3_HARNESS_WORKBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "harness/corpus.h"
#include "harness/evaluate.h"
#include "harness/training.h"
#include "model/t3_model.h"

namespace t3 {

struct WorkbenchOptions {
  /// Explicit corpus file to load. Empty = the standard search order: the
  /// T3_CORPUS environment override, the full benchmarked fixture
  /// (corpus_q40_r10.txt), a previously cached live corpus, then a fresh
  /// live build.
  std::string corpus_path;
  /// Worker threads for training-row assembly and live corpus generation.
  /// Training output is bit-identical for every value (see
  /// BuildTrainingMatrix).
  size_t num_threads = 4;
};

/// One entry of the named model-configuration registry: everything
/// GetModel needs to (re)produce the model byte-identically.
struct NamedModelConfig {
  std::string name;
  CardinalityMode mode = CardinalityMode::kTrue;
  RecordFilter train_filter;  ///< Null = the train split (!is_test).
  T3Config config;
  int runs_limit = 0;  ///< 0 = stored medians (see BuildTrainingMatrix).
};

/// The named model configurations of the paper's experiment grid — the
/// ablation targets (Figure 13), estimated-cardinality training
/// (Figure 11), a leave-one-out example (Figure 9), a single-run target
/// (Figure 14), and a predicate-feature ablation. The harness test battery
/// trains every entry and proves the cache round-trip bit-exact; benches
/// construct further configs (e.g. per-family leave-one-out) on the fly.
std::vector<NamedModelConfig> NamedModelConfigs();

/// Shared cache of expensive experiment artifacts (DESIGN.md "Shared
/// experiment state"). Every bench binary works from the same `data_dir`:
/// the corpus is loaded (or live-built) once, and every trained model
/// configuration is cached as `cache_model_<name>_<mode>_<fingerprint>.txt`
/// (gitignored) so only the first binary pays the training cost. The
/// fingerprint hashes every training input (see ModelCachePath), so a
/// cache built from another corpus or config is a miss, never served.
///
/// Training is bit-deterministic per configuration: the same corpus and
/// config produce byte-identical cache files regardless of thread count or
/// process. Every freshly written cache is read back and proven bit-exact by
/// its bytes: the file equals the in-memory model's ToText(), which
/// ProveTextRoundTrip reparses into the same bytes; a cache file the loader
/// rejects (corrupt, truncated, wrong target) is discarded and the model
/// retrained, never served.
///
/// The T3_QUICK_TREES environment variable (a positive integer) caps the
/// tree count of every training run — CI smoke-runs the paper benches this
/// way against the mini corpus.
///
/// Accessors T3_CHECK on missing artifacts — bench binaries have no
/// recovery path; library code should use the Status-returning loaders in
/// harness/corpus.h and harness/training.h instead.
///
/// Thread-safe: corpus() and GetModel() may be called concurrently (the
/// prediction-server tools train the serving model while a SIGHUP swap can
/// request another). Calls serialize on one internal mutex — concurrent
/// requests for the same configuration train it exactly once and share the
/// cached instance; returned references stay valid for the Workbench's
/// lifetime (entries are never evicted).
class Workbench {
 public:
  explicit Workbench(std::string data_dir);
  Workbench(std::string data_dir, WorkbenchOptions options);
  ~Workbench();

  const std::string& data_dir() const { return data_dir_; }

  /// The benchmarked query corpus; loaded lazily, then cached.
  const Corpus& corpus();

  /// The main T3 model: GetModel("main", kTrue) — per-tuple target, MAPE
  /// objective, 200 trees of <= 31 leaves on the corpus train split
  /// (true-cardinality features).
  const T3Model& MainModel();

  /// The model of one named configuration, trained on the `train_filter`
  /// subset (null = !is_test) with `mode` features; `config` and
  /// `runs_limit` follow BuildTrainingMatrix. Trains on first use, caches
  /// in memory and at ModelCachePath under data_dir; later calls (and
  /// processes) reuse the cache. The name must uniquely identify the
  /// train_filter, which the cache key cannot hash.
  const T3Model& GetModel(const std::string& name, CardinalityMode mode,
                          const RecordFilter& train_filter = nullptr,
                          const T3Config& config = T3Config(),
                          int runs_limit = 0);

  /// GetModel over a registry entry.
  const T3Model& GetModel(const NamedModelConfig& named);

  /// The cache file GetModel reads and writes for one configuration:
  /// data_dir/cache_model_<name>_<mode>_<fingerprint>.txt. The fingerprint
  /// is an Fnv1a hash of the corpus content, the T3Config (TrainParams
  /// included, after the T3_QUICK_TREES cap) and `runs_limit`. Loads the
  /// corpus on first use.
  std::string ModelCachePath(const std::string& name, CardinalityMode mode,
                             const T3Config& config = T3Config(),
                             int runs_limit = 0);

 private:
  // The *Locked variants require mu_ to be held; the public accessors are
  // thin locking wrappers around them.
  ThreadPool& PoolLocked();
  const Corpus& CorpusLocked();
  const T3Model& GetModelLocked(const std::string& name,
                                CardinalityMode mode,
                                const RecordFilter& train_filter,
                                const T3Config& config, int runs_limit);
  /// "<name>_<mode>_<fingerprint>": the in-memory and on-disk model key.
  std::string ModelKeyLocked(const std::string& name, CardinalityMode mode,
                             const T3Config& config, int runs_limit);

  std::string data_dir_;
  WorkbenchOptions options_;

  mutable std::mutex mu_;  ///< Guards everything below.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Corpus> corpus_;
  std::optional<uint64_t> corpus_fingerprint_;  ///< Fnv1a of CorpusToText.
  std::map<std::string, std::unique_ptr<T3Model>> models_;  // by cache key
};

}  // namespace t3

#endif  // T3_HARNESS_WORKBENCH_H_
