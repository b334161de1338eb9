// Worker threads for one simulation run, and the --jobs rule.
//
// Parallelism lives in two places. Within a run, the conservative-PDES
// shard runner (sim/shard.hpp) fans each synchronization window out over a
// WorkerPool. Across runs, uno_farm runs each cell as its own uno_sim
// process (farm/driver.hpp); resolve_jobs sizes both.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace uno {

/// Clamp a --jobs style request: 0 (or negative) means "one per core"
/// (std::thread::hardware_concurrency, at least 1).
int resolve_jobs(int requested);

/// Persistent worker pool for fine-grained repeated fan-outs.
///
/// The shard runner fans out once per synchronization window (hundreds of
/// microseconds of work per call), too often to spawn threads each time.
/// WorkerPool keeps `threads - 1` workers parked on a condition variable and
/// reuses them across run() calls; the caller's thread participates as
/// worker 0. run(n, fn) calls fn(i) for every i in [0, n); `fn` must be
/// self-contained per index (writing to distinct slots of a pre-sized
/// vector is fine). Workers claim indices one at a time. With one thread,
/// or n == 1, everything runs inline on the caller's thread. If any
/// invocation throws, the first exception (by completion order) is
/// rethrown on the caller after the fan-out completes.
class WorkerPool {
 public:
  explicit WorkerPool(int threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void run(std::size_t n, const std::function<void(std::size_t)>& fn);
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

 private:
  void worker_loop();
  void work_one_epoch();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  // Per-epoch state (guarded by mu_ for publication; indices are claimed
  // lock-free via next_).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t next_ = 0;       // claimed under mu_ (windows are tiny fan-outs)
  std::size_t completed_ = 0;  // indices finished this epoch
  std::exception_ptr first_error_;
};

}  // namespace uno
