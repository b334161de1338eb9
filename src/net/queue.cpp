#include "net/queue.hpp"

#include <algorithm>
#include <cassert>

namespace uno {

namespace {
/// Linear RED probability for an instantaneous occupancy.
double red_probability(const RedConfig& red, std::int64_t occ) {
  if (occ <= red.min_bytes) return 0.0;
  if (occ >= red.max_bytes) return 1.0;
  return static_cast<double>(occ - red.min_bytes) /
         static_cast<double>(red.max_bytes - red.min_bytes);
}
}  // namespace

Queue::Queue(EventQueue& eq, PacketPool& pool, std::string name, const QueueConfig& cfg,
             PacketSink& next, Rng rng)
    : eq_(eq), pool_(pool), next_(next), name_(std::move(name)), cfg_(cfg), rng_(rng) {
  assert(cfg_.rate > 0);
  assert(cfg_.capacity_bytes > 0);
  phantom_rate_ = static_cast<Bandwidth>(static_cast<double>(cfg_.rate) *
                                         cfg_.phantom.drain_fraction);
  if ((8 * kSecond) % cfg_.rate == 0) ser_ps_per_byte_ = (8 * kSecond) / cfg_.rate;
}

std::int64_t Queue::phantom_occupancy(Time now) const {
  if (!cfg_.phantom.enabled) return 0;
  if (now > phantom_last_) {
    const std::int64_t drained = bytes_in_interval(now - phantom_last_, phantom_rate_);
    phantom_bytes_ = std::max<std::int64_t>(0, phantom_bytes_ - drained);
    phantom_last_ = now;
  }
  return phantom_bytes_;
}

bool Queue::should_mark(std::int64_t occupancy_after, Time now, bool* phantom_source) {
  *phantom_source = false;
  if (force_ecn_) return true;  // gray failure: marking stuck on
  double p = 0.0;
  if (cfg_.red.enabled) p = red_probability(cfg_.red, occupancy_after);
  if (cfg_.phantom.enabled) {
    // Update the lazily-drained counter, then account for this packet.
    const std::int64_t phantom = phantom_occupancy(now);
    const double pp = red_probability(cfg_.phantom.red, phantom);
    if (pp >= p && pp > 0.0) {
      p = pp;
      *phantom_source = true;
    }
  }
  return p > 0.0 && rng_.chance(p);
}

void Queue::discard(PacketHandle h, Time now) {
  ++drops_;
  const Packet& p = pool_[h];
  UNO_TRACE_EVENT(trace_, TraceKind::kQueueDrop, now, p.flow_id, p.seq);
  if (drop_hook_) drop_hook_(p);
  pool_.drop(h);
}

void Queue::receive(Packet&& p) { receive(pool_, pool_.put(p)); }

void Queue::receive([[maybe_unused]] PacketPool& pool, PacketHandle h) {
  assert(&pool == &pool_);
  // Read and marked in place: the lanes take only the handle.
  Packet& p = pool_[h];
  const Time now = eq_.now();
  const bool is_data = p.type == PacketType::kData && !p.trimmed;

  if (!is_data) {
    // Control traffic (ACK/NACK/trimmed headers): strict-priority lane with
    // its own small buffer.
    if (ctrl_occupancy_ + p.size > cfg_.control_capacity_bytes) return discard(h, now);
    ctrl_occupancy_ += p.size;
    ctrl_q_.push_back({h, p.size});
    if (!busy_) start_service();
    return;
  }

  if (occupancy_ + p.size > cfg_.capacity_bytes) {
    if (cfg_.trim && ctrl_occupancy_ + kTrimSize <= cfg_.control_capacity_bytes) {
      // NDP-style trimming: keep the header, drop the payload, and let the
      // header overtake the queued data on the priority lane.
      p.size = kTrimSize;
      p.trimmed = true;
      p.payload = nullptr;  // the payload is exactly what trimming discards
      ++trims_;
      UNO_TRACE_EVENT(trace_, TraceKind::kQueueTrim, now, p.flow_id, p.seq);
      ctrl_occupancy_ += p.size;
      ctrl_q_.push_back({h, p.size});
      if (!busy_) start_service();
      return;
    }
    return discard(h, now);
  }
  // The phantom counter tracks *arrivals* at the port, including packets
  // that fit the physical buffer, and is charged before the marking
  // decision so a burst marks its own tail.
  if (cfg_.phantom.enabled) {
    phantom_occupancy(now);  // lazy drain
    phantom_bytes_ = std::min<std::int64_t>(phantom_bytes_ + p.size,
                                            cfg_.phantom.effective_cap());
  }
  bool phantom_mark = false;
  if (p.ecn_capable && should_mark(occupancy_ + p.size, now, &phantom_mark)) {
    p.ecn_ce = true;
    ++ecn_marked_;
    UNO_TRACE_EVENT(trace_, TraceKind::kEcnMark, now, p.flow_id, phantom_mark ? 1 : 0);
  }
  if (cfg_.qcn.enabled && qcn_hook_ && occupancy_ + p.size > cfg_.qcn.threshold_bytes &&
      (last_qcn_ < 0 || now - last_qcn_ >= cfg_.qcn.min_interval)) {
    last_qcn_ = now;
    ++qcn_sent_;
    UNO_TRACE_EVENT(trace_, TraceKind::kQcnNotify, now, p.flow_id, occupancy_ + p.size);
    qcn_hook_(p);
  }
  occupancy_ += p.size;
  max_occupancy_ = std::max(max_occupancy_, occupancy_);
#if UNO_TRACE_COMPILED
  // Depth samples are decimated in simulated time: one counter point per
  // depth_sample_interval per port bounds the trace volume (an enqueue-rate
  // sample stream would dominate every other category combined and blow the
  // <3% tracing overhead budget on cache misses alone).
  if (trace_.tracer != nullptr && now >= trace_depth_next_) {
    trace_depth_next_ = now + trace_depth_interval_;
    UNO_TRACE_EVENT(trace_, TraceKind::kQueueDepth, now, occupancy_,
                    cfg_.phantom.enabled ? phantom_bytes_ : 0);
  }
#endif
  q_.push_back({h, p.size});
  if (!busy_) start_service();
}

void Queue::start_service() {
  assert(!q_.empty() || !ctrl_q_.empty());
  busy_ = true;
  serving_ctrl_ = !ctrl_q_.empty();
  const Entry head = serving_ctrl_ ? ctrl_q_.front() : q_.front();
  // The lane slot carries the size, so serialization needs no body; pull the
  // body in now for whoever reads it after the hand-off.
  __builtin_prefetch(&pool_[head.handle]);
  const Time st = ser_ps_per_byte_ ? head.size * ser_ps_per_byte_
                                   : serialization_time(head.size, cfg_.rate);
  eq_.schedule_in(st, this);
}

void Queue::on_event(std::uint64_t) {
  assert(busy_ && (!q_.empty() || !ctrl_q_.empty()));
  // Dequeue from the lane whose head we committed to serializing; a control
  // packet arriving *during* a data packet's serialization does not preempt
  // it, it just goes first on the next service round. Keeping the hand-off
  // to the pipe's link last, after the next service is scheduled, fixes the
  // event-seq assignment order, so same-timestamp ties dispatch identically;
  // busy_ stays set until after the pop so a synchronous re-entrant
  // receive() cannot start service while the stale head still occupies the
  // lane.
  PodRing<Entry>& lane = serving_ctrl_ ? ctrl_q_ : q_;
  const Entry head = lane.front();
  (serving_ctrl_ ? ctrl_occupancy_ : occupancy_) -= head.size;
  ++forwarded_;
  bytes_forwarded_ += head.size;
  lane.pop_front();
  busy_ = false;
  if (!q_.empty() || !ctrl_q_.empty()) start_service();
  next_.receive(pool_, head.handle);
}

}  // namespace uno
