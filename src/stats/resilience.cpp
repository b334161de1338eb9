#include "stats/resilience.hpp"

#include <algorithm>

namespace uno {

void ResilienceTracker::watch(FlowSender* flow) {
  flows_.push_back(flow);
  last_acked_.push_back(0);
  pre_goodput_.push_back(-1.0);
  FlowRecovery r;
  r.flow_id = flow->params().id;
  recovery_.push_back(r);
}

void ResilienceTracker::note_fault(Time onset) {
  if (onset >= onset_) return;
  onset_ = onset;
  eq_.schedule_at(std::max(onset_, eq_.now()), this, kTagSnapshot);
}

void ResilienceTracker::start() {
  if (running_) return;
  running_ = true;
  eq_.schedule_in(period_, this, kTagSample);
}

void ResilienceTracker::on_event(std::uint64_t tag) {
  if (tag == kTagSnapshot) {
    snapshot();
    return;
  }
  if (!running_) return;
  sample();
  eq_.schedule_in(period_, this, kTagSample);
}

void ResilienceTracker::snapshot() {
  if (snapshot_taken_) return;  // a later (stale) note_fault snapshot
  snapshot_taken_ = true;
  const Time now = eq_.now();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowSender* f = flows_[i];
    const Time active = now - f->params().start_time;
    if (f->done() || active <= 0) continue;  // fault cannot disturb this flow
    recovery_[i].affected = true;
    // Average goodput from the flow's start to the fault onset. A flow that
    // has not acked anything yet recovers on its first real progress.
    pre_goodput_[i] =
        static_cast<double>(f->acked_bytes()) * kSecond / static_cast<double>(active);
  }
}

void ResilienceTracker::sample() {
  const Time now = eq_.now();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    FlowSender* f = flows_[i];
    const std::uint64_t acked = f->acked_bytes();
    const std::uint64_t delta = acked - last_acked_[i];
    last_acked_[i] = acked;
    FlowRecovery& r = recovery_[i];
    if (!r.affected || r.recovered || now <= onset_) continue;
    if (f->done()) {
      // Completion is the strongest form of recovery.
      r.recovered = true;
      const Time done_at = f->params().start_time + f->fct();
      r.recovery_time = done_at > onset_ ? done_at - onset_ : 0;
      continue;
    }
    const double goodput = static_cast<double>(delta) * kSecond / static_cast<double>(period_);
    if (goodput >= recover_fraction_ * pre_goodput_[i] && delta > 0) {
      r.recovered = true;
      r.recovery_time = now - onset_;
    }
  }
}

ResilienceSummary ResilienceTracker::summarize() const {
  ResilienceSummary s;
  s.flows_tracked = flows_.size();
  double sum = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    FlowSender* f = flows_[i];
    s.retransmits += f->retransmits();
    s.fec_masked += f->fec_masked();
    s.reroutes += f->reroutes();
    const FlowRecovery& r = recovery_[i];
    if (!r.affected) continue;
    ++s.flows_affected;
    if (!r.recovered) continue;
    ++s.flows_recovered;
    const double us = to_microseconds(r.recovery_time);
    sum += us;
    s.max_recovery_us = std::max(s.max_recovery_us, us);
  }
  if (s.flows_recovered > 0) s.mean_recovery_us = sum / static_cast<double>(s.flows_recovered);
  return s;
}

}  // namespace uno
