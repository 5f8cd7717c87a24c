#ifndef T3_SERVER_BATCHER_H_
#define T3_SERVER_BATCHER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "server/serving_model.h"

namespace t3 {

class ThreadPool;

/// Counters of the batching engine, for the kStats response and the
/// loadgen/bench reports. `max_batch_rows_seen` shows whether concurrent
/// load actually coalesces (the whole point of the batcher).
struct BatcherStats {
  uint64_t jobs = 0;
  uint64_t rows = 0;
  uint64_t batches = 0;
  uint64_t max_batch_rows_seen = 0;

  double RowsPerBatch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(rows) /
                              static_cast<double>(batches);
  }
};

/// Coalesces concurrent prediction requests into single PredictBatch calls
/// on the serving evaluator. Connection workers submit jobs (feature rows + a
/// completion callback) and continue serving other sockets; one inference
/// loop drains the queue, packs every waiting job into one row-major matrix
/// (up to a fixed row cap), snapshots the current model once, runs one
/// PredictBatch, and invokes the callbacks. Coalescing therefore scales
/// with the number of requests in flight, not with worker count.
///
/// Contract:
///  - jobs are processed FIFO, callbacks invoked in submission order (the
///    per-connection response-ordering guarantee of the protocol);
///  - every job of one batch is served by the same model snapshot; a hot
///    swap between batches never splits a batch across versions;
///  - Stop() drains: every job submitted before Stop returns is completed,
///    never dropped. Jobs submitted after Stop fail with Unavailable.
///
/// Callbacks run on the inference loop and must be quick (encode + enqueue
/// bytes); anything slow would stall batching for every connection.
class RequestBatcher {
 public:
  /// A completed job: the snapshot that served it plus the raw forest
  /// outputs (transformed domain) for the job's rows, in row order.
  struct Reply {
    std::shared_ptr<const ServingModel> model;
    std::vector<double> raw;
  };
  using Callback = std::function<void(Result<Reply>)>;

  explicit RequestBatcher(const ModelRegistry* registry);
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Runs the inference loop on `pool` until Stop(). Call exactly once.
  void Start(ThreadPool* pool);

  /// Drains the queue (completing every submitted job), then stops the
  /// inference loop and joins it. Idempotent.
  void Stop();

  /// Enqueues `num_rows` rows (row-major, `rows.size() == num_rows * dim`
  /// where dim is the serving model's feature count — validated against
  /// the snapshot that ends up serving the batch). `done` is invoked
  /// exactly once, on the inference thread.
  void Submit(std::vector<double> rows, size_t num_rows, Callback done);

  BatcherStats stats() const;

 private:
  struct Job {
    std::vector<double> rows;
    size_t num_rows = 0;
    Callback done;
  };

  void Loop();

  const ModelRegistry* registry_;

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;  ///< Signals queue drained + loop parked.
  std::deque<Job> queue_;
  bool stopping_ = false;
  bool loop_running_ = false;
  BatcherStats stats_;
};

}  // namespace t3

#endif  // T3_SERVER_BATCHER_H_
