// Thread-pool driver for embarrassingly parallel simulation batches.
//
// A sweep (seeds, load points, RTT ratios, ...) is a list of independent
// simulations: each job owns its Experiment — and therefore its EventQueue
// and Rng streams — so jobs never share mutable state and the per-job result
// is bit-identical whether it ran alone or next to seven siblings. The
// driver only decides *where* each job runs; results are always collected in
// submission (index) order, so output is deterministic regardless of worker
// interleaving and `jobs=1` vs `jobs=N` produce identical merged results.
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

/// Run `fn(i)` for every i in [0, n) on up to `jobs` worker threads: one
/// WorkerPool::run on a pool of min(jobs, n) threads built for this call.
///
/// `fn` must be self-contained per index (no shared mutable state except
/// what it synchronizes itself; writing to distinct slots of a pre-sized
/// vector is fine). With jobs <= 1 everything runs inline on the caller's
/// thread. Workers claim indices one at a time, so long and short jobs
/// interleave without static partitioning imbalance. If any invocation
/// throws, the first exception (by completion order) is rethrown on the
/// caller's thread after all workers finish.
void parallel_for(int jobs, std::size_t n, const std::function<void(std::size_t)>& fn);

/// Persistent worker pool for fine-grained repeated fan-outs.
///
/// parallel_for spawns threads per call, which is fine for a sweep (seconds
/// of work per call) but not for the shard runner, which fans out once per
/// synchronization window (hundreds of microseconds of work per call).
/// WorkerPool keeps `threads - 1` workers parked on a condition variable and
/// reuses them across run() calls; the caller's thread participates as
/// worker 0, same as parallel_for. run() has the same contract as
/// parallel_for: fn(i) for i in [0, n), self-contained per index, first
/// exception rethrown on the caller after the fan-out completes.
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

/// Map `fn` over [0, n) and collect the results in index order.
template <typename Fn>
auto parallel_map(int jobs, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> out(n);
  parallel_for(jobs, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace uno
