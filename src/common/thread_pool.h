#ifndef T3_COMMON_THREAD_POOL_H_
#define T3_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace t3 {

/// Fixed-size worker pool with a FIFO task queue. Used for multi-threaded
/// forest interpretation (Figure 5 "Interpreted MT") and, later, parallel
/// corpus benchmarking.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `fn`; it runs on some worker thread.
  void Submit(std::function<void()> fn);

  /// Enqueues a callable and returns a future for its result.
  template <typename F>
  auto Async(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    Submit([task] { (*task)(); });
    return task->get_future();
  }

  /// Blocks until every submitted task has finished running.
  void Wait();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t unfinished_ = 0;  // queued + currently running tasks
  bool shutdown_ = false;
};

}  // namespace t3

#endif  // T3_COMMON_THREAD_POOL_H_
