#include "common/thread_pool.h"

#include <utility>

namespace t3 {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
    ++unfinished_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return unfinished_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--unfinished_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace t3
