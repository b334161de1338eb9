#include "stats/fct.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <new>
#include <type_traits>

namespace uno {

namespace {

/// The two ranks p/100 * (n - 1) falls between, and its weight on the upper.
struct Ranks {
  std::size_t lo, hi;
  double t;
};
Ranks ranks(std::size_t n, double p) {
  const double rank = p / 100.0 * (static_cast<double>(n) - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  return {lo, static_cast<std::size_t>(std::ceil(rank)), rank - static_cast<double>(lo)};
}

/// percentile_sorted() of non-empty `v` by selection, reordering v:
/// nth_element puts the rank-lo value in place with only values >= it
/// after it, so the rank-hi value is the least of those.
double percentile_select(std::vector<double>& v, double p) {
  assert(!v.empty());
  const Ranks r = ranks(v.size(), p);
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(v.begin(), nth, v.end());
  const double hi = r.hi == r.lo ? *nth : *std::min_element(nth + 1, v.end());
  return *nth * (1.0 - r.t) + hi * r.t;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const Ranks r = ranks(sorted.size(), p);
  return sorted[r.lo] * (1.0 - r.t) + sorted[r.hi] * r.t;
}

void FctCollector::grow() {
  static_assert(std::is_trivially_copyable_v<FlowResult>, "realloc moves records bytewise");
  const std::size_t cap = capacity_ == 0 ? 1024 : 2 * capacity_;
  void* p = std::realloc(results_.get(), cap * sizeof(FlowResult));
  if (p == nullptr) throw std::bad_alloc();
  (void)results_.release();
  results_.reset(static_cast<FlowResult*>(p));
  capacity_ = cap;
}

void FctCollector::sort_from(std::size_t first) {
  // Each flow completes once, so ids are distinct and finishes_before is a
  // strict total order: every correct sort yields the same permutation, and
  // an in-place one needs no merge buffer (stable_sort's takes n/2 records).
  FlowResult* const batch = results_.get() + first;
  FlowResult* const end = results_.get() + count_;
  std::sort(batch, end, finishes_before);
  assert((first == 0 || batch == end || finishes_before(batch[-1], *batch)) &&
         "a step's completion finished before the previous step's");
}

template <typename Pred>
FctSummary FctCollector::summarize_where(Pred pred) const {
  // One buffer serves both passes, the FCTs and then the slowdowns: this
  // runs after the run, next to the whole FCT record, so a second vector
  // would set the process's peak. Percentiles select instead of sorting.
  std::vector<double> v;
  v.reserve(count_);
  for (const FlowResult& r : results())
    if (pred(r)) v.push_back(to_microseconds(r.completion_time));
  FctSummary s;
  s.count = v.size();
  if (v.empty()) return s;
  // Means sum in record order, before any reordering, so they stay bit-exact.
  double sum = 0;
  for (double f : v) sum += f;
  s.mean_us = sum / static_cast<double>(v.size());
  s.max_us = *std::max_element(v.begin(), v.end());
  s.p99_us = percentile_select(v, 99);
  s.p50_us = percentile_select(v, 50);
  if (!ideal_fn_) return s;
  v.clear();
  for (const FlowResult& r : results()) {
    if (!pred(r)) continue;
    const Time ideal = ideal_fn_(r);
    if (ideal > 0)
      v.push_back(static_cast<double>(r.completion_time) / static_cast<double>(ideal));
  }
  if (!v.empty()) {
    double ss = 0;
    for (double x : v) ss += x;
    s.mean_slowdown = ss / static_cast<double>(v.size());
    s.p99_slowdown = percentile_select(v, 99);
  }
  return s;
}

FctSummary FctCollector::summarize(Class cls) const {
  switch (cls) {
    case Class::kIntra:
      return summarize_where([](const FlowResult& r) { return !r.interdc; });
    case Class::kInter:
      return summarize_where([](const FlowResult& r) { return r.interdc; });
    default:
      return summarize_where([](const FlowResult&) { return true; });
  }
}

FctSummary FctCollector::summarize_if(const std::function<bool(const FlowResult&)>& pred) const {
  return summarize_where(pred);
}

FctCollector::IdealFn FctCollector::pipe_ideal(Bandwidth rate, Time intra_rtt, Time inter_rtt) {
  return [rate, intra_rtt, inter_rtt](const FlowResult& r) {
    const Time rtt = r.interdc ? inter_rtt : intra_rtt;
    return serialization_time(static_cast<std::int64_t>(r.size_bytes), rate) + rtt;
  };
}

}  // namespace uno
