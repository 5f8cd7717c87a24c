#include "server/batcher.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace t3 {
namespace {

/// Row cap of one coalesced PredictBatch call; jobs beyond it wait for the
/// next batch (one job is never split).
constexpr size_t kMaxBatchRows = 16384;

}  // namespace

RequestBatcher::RequestBatcher(const ModelRegistry* registry)
    : registry_(registry) {
  T3_CHECK(registry_ != nullptr);
}

RequestBatcher::~RequestBatcher() { Stop(); }

void RequestBatcher::Start(ThreadPool* pool) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    T3_CHECK(!loop_running_);
    loop_running_ = true;
  }
  pool->Submit([this] { Loop(); });
}

void RequestBatcher::Stop() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  work_available_.notify_all();
  idle_.wait(lock, [this] { return !loop_running_ && queue_.empty(); });
}

void RequestBatcher::Submit(std::vector<double> rows, size_t num_rows,
                            Callback done) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      Job job;
      job.rows = std::move(rows);
      job.num_rows = num_rows;
      job.done = std::move(done);
      queue_.push_back(std::move(job));
      stats_.jobs++;
      work_available_.notify_one();
      return;
    }
  }
  done(UnavailableError("prediction batcher is shutting down"));
}

BatcherStats RequestBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void RequestBatcher::Loop() {
  std::vector<Job> batch;
  std::vector<double> matrix;
  std::vector<double> raw;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        // Stopping with a drained queue: park and wake Stop().
        loop_running_ = false;
        idle_.notify_all();
        return;
      }
      // Coalesce every waiting job up to the row cap; a single oversized
      // job still forms its own batch (never split, never starved).
      size_t batch_rows = 0;
      while (!queue_.empty()) {
        Job& next = queue_.front();
        if (!batch.empty() &&
            batch_rows + next.num_rows > kMaxBatchRows) {
          break;
        }
        batch_rows += next.num_rows;
        batch.push_back(std::move(next));
        queue_.pop_front();
      }
      stats_.batches++;
      stats_.rows += batch_rows;
      stats_.max_batch_rows_seen =
          std::max<uint64_t>(stats_.max_batch_rows_seen, batch_rows);
    }

    // One model snapshot per batch: every job in it is answered by the
    // same version, and a concurrent hot swap only affects later batches.
    const std::shared_ptr<const ServingModel> model = registry_->Current();
    const size_t dim = static_cast<size_t>(model->num_features());

    matrix.clear();
    size_t total_rows = 0;
    for (const Job& job : batch) {
      if (job.rows.size() != job.num_rows * dim) continue;
      matrix.insert(matrix.end(), job.rows.begin(), job.rows.end());
      total_rows += job.num_rows;
    }

    raw.assign(total_rows, 0.0);
    if (total_rows > 0) {
      model->evaluator().PredictBatch(matrix.data(), total_rows, dim,
                                      raw.data());
    }

    size_t cursor = 0;
    for (Job& job : batch) {
      if (job.rows.size() != job.num_rows * dim) {
        job.done(InvalidArgumentError(StrFormat(
            "request rows have %zu values for %zu rows of the served "
            "model's %zu features",
            job.rows.size(), job.num_rows, dim)));
        continue;
      }
      Reply reply;
      reply.model = model;
      reply.raw.assign(raw.begin() + static_cast<ptrdiff_t>(cursor),
                       raw.begin() +
                           static_cast<ptrdiff_t>(cursor + job.num_rows));
      cursor += job.num_rows;
      job.done(std::move(reply));
    }
    batch.clear();
  }
}

}  // namespace t3
