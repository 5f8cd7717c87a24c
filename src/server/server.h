#ifndef T3_SERVER_SERVER_H_
#define T3_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/net.h"
#include "common/status.h"
#include "server/protocol.h"
#include "server/serving_model.h"

namespace t3 {

class ThreadPool;

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via PredictionServer::port().
  uint16_t port = 0;
  /// Accept/worker event loops (thread-per-core); 0 = hardware concurrency.
  size_t num_workers = 0;
  /// Honor kShutdown frames (CI smoke and tests); off for long-lived
  /// deployments where only the operator may stop the process.
  bool allow_remote_shutdown = true;
  /// Default model file of kSwapModel frames with an empty payload and of
  /// RequestSwap() (the SIGHUP path). Empty = such swaps are rejected.
  std::string default_swap_path;
};

/// Prediction counters under the names of the request batcher this server
/// once had, kept so that perfbench's serve phase reads them unchanged. Each
/// request is predicted on its own, so it counts as one batch: `jobs` and
/// `batches` both equal ServerStats::predict_requests, `rows` equals
/// ServerStats::rows_predicted, and `max_batch_rows_seen` is the largest
/// request.
struct BatcherStats {
  uint64_t jobs = 0;
  uint64_t rows = 0;
  uint64_t batches = 0;
  uint64_t max_batch_rows_seen = 0;
};

/// Monotonic counters across all workers.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t predict_requests = 0;
  uint64_t rows_predicted = 0;
  uint64_t protocol_errors = 0;
  BatcherStats batcher;
  uint32_t model_version = 0;
};

/// The T3 prediction service: a long-running TCP server answering "t3p1"
/// frames (server/protocol.h) with model predictions.
///
/// Architecture (DESIGN.md "Prediction service"):
///  - N worker threads on an internal ThreadPool, each running a poll()
///    event loop over non-blocking sockets; all workers poll the shared
///    listener, so accepted connections spread across loops;
///  - a connection belongs to the worker that accepted it. That worker
///    decodes each request, predicts it in line (one model snapshot, one
///    PredictBatch over the request's own rows), and queues the response,
///    so responses leave in request order and a large request delays only
///    the connections of its own worker;
///  - models are versioned snapshots swapped atomically through the
///    ModelRegistry (release/acquire shared_ptr publish) — swaps never
///    drop or stall requests;
///  - client misbehavior (disconnects mid-frame, oversized or malformed
///    frames) costs at most that connection: bad frames get a kError
///    response and a close, aborted sockets are reaped, SIGPIPE is ignored
///    process-wide.
class PredictionServer {
 public:
  /// Binds, spawns the workers, and starts serving `initial`.
  static Result<std::unique_ptr<PredictionServer>> Start(
      std::shared_ptr<const ServingModel> initial, ServerOptions options);

  ~PredictionServer();
  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// The bound port (resolves port 0).
  uint16_t port() const { return port_; }

  /// Blocks until Stop() is called (by any thread, or by a kShutdown
  /// frame).
  void Wait();

  /// Graceful stop: stop accepting, flush the response of every request a
  /// worker has decoded, join the workers. Idempotent.
  void Stop();

  /// Hot-swaps to the model at `path`, re-proving serialization
  /// bit-exactness before the atomic publish. Thread-safe; callable while
  /// serving at full load.
  Result<uint32_t> SwapFromFile(const std::string& path);

  /// Signal-safe swap trigger: queues a swap to the options' default swap
  /// path, executed by a worker on its next loop iteration. The t3_serve
  /// SIGHUP handler calls this.
  void RequestSwap() { swap_requested_.store(true, std::memory_order_release); }

  const ModelRegistry& registry() const { return registry_; }

  ServerStats stats() const;

  /// The kStatsOk text: one "key value" pair per line.
  std::string StatsText() const;

 private:
  struct Connection;
  struct Worker;

  PredictionServer(std::shared_ptr<const ServingModel> initial,
                   ServerOptions options);

  void WorkerLoop(Worker* worker);
  void HandleFrame(Connection* conn, MessageType type,
                   std::vector<uint8_t> payload);
  /// Predicts `num_rows` row-major rows on one snapshot of the current
  /// model and returns the response frame: per-row seconds, or their sum
  /// for a plan (`sum_to_one`), or a kError when the rows do not fit the
  /// model.
  Frame Predict(const std::vector<double>& rows, size_t num_rows,
                const std::vector<double>& cardinalities, bool sum_to_one);
  void ExecuteQueuedSwap();
  /// Writes as much pending output as the socket accepts; false when the
  /// connection failed (peer reset / EPIPE) and must be reaped.
  static bool FlushWrites(Connection* conn);

  ServerOptions options_;
  ModelRegistry registry_;
  ScopedFd listener_;
  uint16_t port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> swap_requested_{false};
  std::mutex state_mu_;
  std::condition_variable stop_requested_cv_;
  bool stop_requested_ = false;
  std::mutex teardown_mu_;
  bool workers_joined_ = false;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> predict_requests_{0};
  std::atomic<uint64_t> rows_predicted_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> max_request_rows_{0};
};

}  // namespace t3

#endif  // T3_SERVER_SERVER_H_
