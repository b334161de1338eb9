#include "core/parallel.hpp"

#include <exception>
#include <mutex>
#include <thread>

namespace uno {

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

WorkerPool::WorkerPool(int threads) {
  threads = resolve_jobs(threads);
  workers_.reserve(threads > 0 ? threads - 1 : 0);
  for (int w = 1; w < threads; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::work_one_epoch() {
  std::unique_lock<std::mutex> lock(mu_);
  while (next_ < n_) {
    const std::size_t i = next_++;
    const std::function<void(std::size_t)>* fn = fn_;
    lock.unlock();
    std::exception_ptr err;
    try {
      (*fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err && !first_error_) first_error_ = err;
    if (++completed_ == n_) cv_done_.notify_all();
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
    }
    // A straggler from the previous epoch may still be claiming indices when
    // a new run() resets next_; that is benign — indices are claimed exactly
    // once per epoch under mu_, whoever claims them.
    work_one_epoch();
  }
}

void WorkerPool::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    next_ = 0;
    completed_ = 0;
    first_error_ = nullptr;
    ++epoch_;
  }
  cv_start_.notify_all();
  work_one_epoch();  // the caller's thread is worker 0
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return completed_ == n_; });
    fn_ = nullptr;
    err = first_error_;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace uno
