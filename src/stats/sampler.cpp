#include "stats/sampler.hpp"

#include <algorithm>
#include <cassert>

namespace uno {

double TimeSeries::max() const {
  double m = 0;
  for (double x : v) m = std::max(m, x);
  return m;
}

double TimeSeries::mean() const {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- QueueSampler -----------------------------------------------------------

void QueueSampler::watch(Queue* q) {
  queues_.push_back(q);
  physical_.push_back(TimeSeries{q->name(), {}, {}});
  phantom_.push_back(TimeSeries{q->name() + ".phantom", {}, {}});
}

void QueueSampler::start() {
  running_ = true;
  eq_.schedule_in(period_, this);
}

void QueueSampler::on_event(std::uint64_t) {
  if (!running_) return;
  const Time now = eq_.now();
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    physical_[i].add(now, static_cast<double>(queues_[i]->occupancy()));
    phantom_[i].add(now, static_cast<double>(queues_[i]->phantom_occupancy(now)));
  }
  eq_.schedule_in(period_, this);
}

// --- RateSampler ------------------------------------------------------------

void RateSampler::watch(const FlowSender* flow, std::string label) {
  flows_.push_back(flow);
  last_bytes_.push_back(0);
  series_.push_back(TimeSeries{std::move(label), {}, {}});
}

void RateSampler::start() {
  running_ = true;
  eq_.schedule_in(period_, this);
}

void RateSampler::on_event(std::uint64_t) {
  if (!running_) return;
  const Time now = eq_.now();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const std::uint64_t bytes = flows_[i]->acked_bytes();
    const double gbps = static_cast<double>(bytes - last_bytes_[i]) * 8.0 /
                        (to_seconds(period_) * 1e9);
    last_bytes_[i] = bytes;
    series_[i].add(now, gbps);
  }
  eq_.schedule_in(period_, this);
}

// --- CwndSampler ------------------------------------------------------------

void CwndSampler::watch(const FlowSender* flow, std::string label) {
  flows_.push_back(flow);
  series_.push_back(TimeSeries{std::move(label), {}, {}});
}

void CwndSampler::start() {
  running_ = true;
  eq_.schedule_in(period_, this);
}

void CwndSampler::on_event(std::uint64_t) {
  if (!running_) return;
  const Time now = eq_.now();
  // A flow has a window only while it runs: 0 before its start and after
  // its completion.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowSender& f = *flows_[i];
    series_[i].add(now, f.started() && !f.done() ? static_cast<double>(f.cc().cwnd()) : 0.0);
  }
  eq_.schedule_in(period_, this);
}

double jain_index(const std::vector<double>& rates) {
  if (rates.empty()) return 1.0;
  double sum = 0, sq = 0;
  for (double r : rates) {
    sum += r;
    sq += r * r;
  }
  if (sq <= 0) return 1.0;
  return sum * sum / (static_cast<double>(rates.size()) * sq);
}

double RateSampler::jain_latest() const {
  std::vector<double> rates;
  for (const TimeSeries& s : series_)
    if (!s.v.empty()) rates.push_back(s.v.back());
  return jain_index(rates);
}

Time RateSampler::convergence_time(double jain_threshold) const {
  if (series_.empty() || series_[0].v.empty()) return kTimeInfinity;
  const std::size_t samples = series_[0].v.size();
  // A flow stops contributing once it has finished sending (rate ~ 0 at the
  // tail of its series); only compare flows that are still active.
  std::vector<std::size_t> last_active(series_.size(), 0);
  for (std::size_t f = 0; f < series_.size(); ++f) {
    for (std::size_t i = 0; i < series_[f].v.size(); ++i)
      if (series_[f].v[i] > 0.01) last_active[f] = i;
  }
  std::size_t converged_from = samples;
  for (std::size_t i = samples; i-- > 0;) {
    std::vector<double> rates;
    for (std::size_t f = 0; f < series_.size(); ++f)
      if (i <= last_active[f] && i < series_[f].v.size()) rates.push_back(series_[f].v[i]);
    if (rates.size() < 2) {
      converged_from = i;  // nothing left to be unfair about
      continue;
    }
    if (jain_index(rates) >= jain_threshold)
      converged_from = i;
    else
      break;
  }
  if (converged_from >= samples) return kTimeInfinity;
  return series_[0].t[converged_from];
}

}  // namespace uno
