// Flow-completion-time collection and summarization.
//
// The experiments report mean and 99th-percentile FCT split by flow class
// (intra- vs inter-DC), and Fig. 11 reports *slowdown* — FCT divided by the
// flow's ideal (unloaded) completion time.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/time.hpp"
#include "transport/flow.hpp"

namespace uno {

struct FctSummary {
  std::size_t count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
  double mean_slowdown = 0;
  double p99_slowdown = 0;
};

class FctCollector {
 public:
  /// `ideal_fn` computes a flow's unloaded FCT (used for slowdowns); pass
  /// nullptr to skip slowdown reporting.
  using IdealFn = std::function<Time(const FlowResult&)>;
  explicit FctCollector(IdealFn ideal_fn = nullptr) : ideal_fn_(std::move(ideal_fn)) {}

  void add(const FlowResult& r) {
    if (count_ == capacity_) grow();
    results_[count_++] = r;
  }

  std::size_t count() const { return count_; }
  std::span<const FlowResult> results() const { return {results_.get(), count_}; }

  /// Sort the records from position `first` on into canonical order
  /// (finishes_before). Completion *recording* order is a shard-count
  /// artifact under conservative PDES (per-shard completions drain at
  /// barriers), so an Experiment sorts each step's batch as it appends it.
  /// Each of them must finish after every record before `first` (asserted
  /// in Debug), so the whole record stays canonical.
  void sort_from(std::size_t first);
  /// Capacity the record holds, in bytes.
  std::size_t bytes() const { return capacity_ * sizeof(FlowResult); }

  enum class Class { kAll, kIntra, kInter };
  FctSummary summarize(Class cls = Class::kAll) const;
  /// Summary over an arbitrary subset.
  FctSummary summarize_if(const std::function<bool(const FlowResult&)>& pred) const;

  /// Ideal FCT model: store-and-forward pipe of `rate` with base RTT —
  /// size/rate + rtt (the paper's Fig. 1 completion-time model).
  static IdealFn pipe_ideal(Bandwidth rate, Time intra_rtt, Time inter_rtt);

 private:
  template <typename Pred>
  FctSummary summarize_where(Pred pred) const;
  /// Double the capacity with realloc.
  void grow();

  IdealFn ideal_fn_;
  /// The records, in a buffer realloc grows: the allocator grows a large
  /// one by remapping its pages instead of copying them next to the old
  /// ones, so growing the record does not double its footprint for a
  /// moment, as a vector's growth does.
  struct Free {
    void operator()(FlowResult* p) const { std::free(p); }
  };
  std::unique_ptr<FlowResult[], Free> results_;
  std::size_t count_ = 0;
  std::size_t capacity_ = 0;
};

/// p-th percentile (p in [0,100]) of a copy of `values`, interpolated
/// linearly between the two nearest ranks: rank p/100 * (n - 1), as numpy's
/// default method.
double percentile(std::vector<double> values, double p);
/// percentile() of values already sorted ascending, without copying them.
double percentile_sorted(const std::vector<double>& sorted, double p);

}  // namespace uno
