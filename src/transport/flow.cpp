#include "transport/flow.hpp"

#include <algorithm>
#include <cassert>

namespace uno {

// ---------------------------------------------------------------------------
// FlowSender
// ---------------------------------------------------------------------------

FlowSender::FlowSender(EventQueue& eq, const FlowParams& params, const PathSet* paths,
                       std::unique_ptr<CongestionControl> cc, std::unique_ptr<LoadBalancer> lb,
                       CompletionCallback on_complete, SlabPool* pool)
    : eq_(eq),
      params_(params),
      paths_(paths),
      pool_(pool),
      cc_(std::move(cc)),
      lb_(std::move(lb)),
      on_complete_(std::move(on_complete)),
      frame_(params.size_bytes, params.mtu, params.ec_enabled, params.ec_data,
             params.ec_parity, BlockFrame::Deferred{}),
      rto_timer_(eq, this, kTagRto) {
  assert(paths_ != nullptr && !paths_->empty());
  assert(cc_ != nullptr && lb_ != nullptr);
  if (params_.verify_payload && frame_.ec_enabled())
    payload_store_ = std::make_unique<PayloadStore>(params_.id, frame_,
                                                    params_.payload_shard_bytes);
}

void FlowSender::start() {
  assert(!started_);
  if (params_.start_time <= eq_.now())
    begin();
  else
    eq_.schedule_at(params_.start_time, this, kTagStart);
}

void FlowSender::begin() {
  // Open-loop scenarios spawn every flow up front; drawing per-packet state
  // only now keeps the pools sized to flows in progress, not flows spawned.
  started_ = true;
  frame_.acquire(pool_);
  meta_.assign(frame_.total_packets(), PktMeta{}, pool_);
  try_send();
}

void FlowSender::on_event(std::uint64_t tag) {
  switch (tag) {
    case kTagStart:
      begin();
      break;
    case kTagPacing:
      pacing_timer_armed_ = false;
      try_send();
      break;
    case kTagRto:
      on_rto();
      break;
    default:
      assert(false && "unknown sender event tag");
  }
}

std::int64_t FlowSender::next_seq_to_send() {
  // Retransmissions take priority over first transmissions.
  while (!rtx_queue_.empty()) {
    const std::uint64_t seq = rtx_queue_.front();
    if (meta_[seq].state != PktState::kLost ||
        (frame_.ec_enabled() && frame_.block_complete(frame_.shard_of(seq).block))) {
      rtx_queue_.pop_front();  // acked meanwhile, or its block became decodable
      continue;
    }
    return static_cast<std::int64_t>(seq);
  }
  while (next_new_seq_ < frame_.total_packets()) {
    if (frame_.ec_enabled() &&
        frame_.block_complete(frame_.shard_of(next_new_seq_).block)) {
      ++next_new_seq_;  // block already decodable; its tail is redundant
      continue;
    }
    return static_cast<std::int64_t>(next_new_seq_);
  }
  return -1;
}

void FlowSender::try_send() {
  if (!started_ || done_) return;
  const double rate = cc_->pacing_rate();
  while (true) {
    const std::int64_t seq = next_seq_to_send();
    if (seq < 0) break;
    const std::uint32_t size = frame_.shard_of(seq).size;
    if (bytes_in_flight_ > 0 && bytes_in_flight_ + size > cc_->cwnd()) break;
    if (rate > 0.0) {
      const Time now = eq_.now();
      if (now < next_send_time_) {
        if (!pacing_timer_armed_) {
          pacing_timer_armed_ = true;
          eq_.schedule_at(next_send_time_, this, kTagPacing);
        }
        break;
      }
      next_send_time_ = std::max(now, next_send_time_) +
                        static_cast<Time>(static_cast<double>(size) * kSecond / rate);
    }
    const bool rtx = meta_[seq].state == PktState::kLost;
    if (rtx)
      rtx_queue_.pop_front();
    else
      ++next_new_seq_;
    send_packet(seq, rtx);
  }
}

bool FlowSender::send_packet(std::uint64_t seq, bool is_retransmit) {
  const BlockFrame::Shard shard = frame_.shard_of(seq);
  const std::uint16_t entropy =
      static_cast<std::uint16_t>(lb_->pick(seq) % paths_->size());
  Packet p = make_data_packet(params_.id, seq, shard.size);
  p.block_id = shard.block;
  p.shard = shard.index;
  p.is_parity = shard.parity;
  p.retransmit = is_retransmit;
  p.src_host = params_.src;
  if (payload_store_) p.payload = payload_store_->shard(seq).data();
  p.sent_time = eq_.now();
  p.entropy = entropy;
  p.subflow = static_cast<std::uint8_t>(entropy & 0xFF);
  p.route = &paths_->forward[entropy];
  p.hop = 0;

  meta_[seq] = PktMeta{eq_.now(), entropy, PktState::kInflight};
  send_order_.emplace_back(eq_.now(), seq);
  bytes_in_flight_ += shard.size;
  bytes_sent_ += shard.size;
  ++packets_sent_;
  if (is_retransmit) {
    ++retransmits_;
    UNO_TRACE_EVENT(trace_, TraceKind::kRetransmit, eq_.now(), seq, entropy);
  }
  if (first_send_time_ < 0) first_send_time_ = eq_.now();
  // The loss timer fires at expiry granularity (tail losses produce no ACKs
  // to clock detect_losses) and escalates to a full RTO on real silence.
  if (!rto_timer_.armed()) rto_timer_.arm_in(params_.effective_loss_expiry());

  forward(std::move(p));
  return true;
}

void FlowSender::receive(Packet&& p) {
  if (p.type == PacketType::kAck)
    handle_ack(p);
  else if (p.type == PacketType::kNack)
    handle_nack(p);
  else if (p.type == PacketType::kTrimNack)
    handle_trim_nack(p);
  else if (p.type == PacketType::kQcn && !done_)
    cc_->on_qcn(eq_.now());
  // Data packets can only arrive here if a route was miswired; drop them.
}

void FlowSender::handle_trim_nack(const Packet& nack) {
  if (done_) return;
  const std::uint64_t seq = nack.ack_seq;
  assert(seq < frame_.total_packets());
  // Only authoritative for the transmission it refers to: if the shard was
  // meanwhile acked, declared lost, or retransmitted, ignore the stale trim.
  if (meta_[seq].state != PktState::kInflight || meta_[seq].sent != nack.echo_sent_time)
    return;
  meta_[seq].state = PktState::kLost;
  bytes_in_flight_ -= frame_.shard_of(seq).size;
  rtx_queue_.push_back(seq);
  signal_loss_to_cc();
  try_send();
}

void FlowSender::handle_ack(const Packet& ack) {
  if (done_) return;
  const std::uint64_t seq = ack.ack_seq;
  assert(seq < frame_.total_packets());
  lb_->on_ack(ack.entropy, ack.ecn_echo, eq_.now());

  PktMeta& m = meta_[seq];
  if (m.state == PktState::kAcked) return;  // duplicate delivery
  if (m.state == PktState::kInflight) bytes_in_flight_ -= frame_.shard_of(seq).size;
  m.state = PktState::kAcked;
  const std::uint32_t size = frame_.shard_of(seq).size;
  acked_bytes_ += size;
  last_progress_ = eq_.now();
  frame_.mark(seq);

  AckEvent ev;
  ev.now = eq_.now();
  ev.bytes_acked = size;
  ev.ecn = ack.ecn_echo;
  ev.rtt = eq_.now() - ack.echo_sent_time;
  ev.pkt_sent_time = ack.echo_sent_time;
  cc_->on_ack(ev);

  if (frame_.complete()) {
    complete();
    return;
  }
  highest_acked_sent_ = std::max(highest_acked_sent_, ack.echo_sent_time);
  detect_losses();
  try_send();
}

Time FlowSender::oldest_inflight_sent() {
  while (!send_order_.empty()) {
    const auto [sent, seq] = send_order_.front();
    if (meta_[seq].state != PktState::kInflight || meta_[seq].sent != sent) {
      send_order_.pop_front();
      continue;
    }
    return sent;
  }
  return -1;
}

void FlowSender::detect_losses() {
  const Time window = params_.effective_rack_window();
  const Time expiry = params_.effective_loss_expiry();
  const Time now = eq_.now();
  bool lost_any = false;
  while (!send_order_.empty()) {
    const auto [sent, seq] = send_order_.front();
    if (meta_[seq].state != PktState::kInflight || meta_[seq].sent != sent) {
      send_order_.pop_front();  // acked, already queued for rtx, or resent
      continue;
    }
    const bool rack_lost = sent + window < highest_acked_sent_;
    const bool expired = sent + expiry <= now;
    if (!rack_lost && !expired) break;  // still plausibly in flight
    send_order_.pop_front();
    meta_[seq].state = PktState::kLost;
    bytes_in_flight_ -= frame_.shard_of(seq).size;
    rtx_queue_.push_back(seq);
    if (!lost_any) {
      // First detected loss of this batch: hint the load balancer about the
      // path it died on. UnoLB treats it like a NACK (rate-limited reroute
      // away from failed links even when EC/NACKs are off); PLB and RPS
      // ignore loss hints by design.
      lb_->on_nack(meta_[seq].entropy, now);
    }
    lost_any = true;
  }
  if (lost_any) signal_loss_to_cc();
}

void FlowSender::signal_loss_to_cc() {
  // Losses signal congestion, but at most once per RTT (like a DCTCP
  // loss-round); the NACK hook gives each CC its moderate-reduction path.
  if (eq_.now() - last_fast_loss_signal_ <= params_.base_rtt) return;
  last_fast_loss_signal_ = eq_.now();
  cc_->on_nack(eq_.now());
}

void FlowSender::handle_nack(const Packet& nack) {
  if (done_) return;
  ++nacks_received_;
  const std::uint32_t block = nack.nack_block;
  assert(block < frame_.num_blocks());
  if (frame_.block_complete(block)) return;  // stale NACK; already decodable

  // Declare the block's *stale* in-flight shards lost and queue them for
  // retransmission; shards sent within the last block_timeout are likely
  // still in transit and are left alone (the receiver re-NACKs if they
  // never land). Blame the path of the first missing shard.
  const std::uint64_t first = frame_.first_seq_of_block(block);
  const std::uint64_t end = first + frame_.shards_in_block(block);
  const Time stale_before = eq_.now() - params_.block_timeout;
  bool blamed = false;
  std::uint64_t requeued = 0;
  for (std::uint64_t seq = first; seq < end; ++seq) {
    if (meta_[seq].state == PktState::kInflight && meta_[seq].sent <= stale_before) {
      meta_[seq].state = PktState::kLost;
      bytes_in_flight_ -= frame_.shard_of(seq).size;
      rtx_queue_.push_back(seq);
      ++requeued;
      if (!blamed) {
        lb_->on_nack(meta_[seq].entropy, eq_.now());
        blamed = true;
      }
    }
  }
  if (!blamed) lb_->on_nack(nack.entropy, eq_.now());
  UNO_TRACE_EVENT(trace_, TraceKind::kNackReceived, eq_.now(), block, requeued);
  signal_loss_to_cc();
  try_send();
}

void FlowSender::on_rto() {
  if (done_) return;
  // Lazy two-stage loss timer, anchored to the oldest outstanding
  // transmission:
  //  * at oldest + loss_expiry: run the expiry scan (recovers tail losses
  //    that produce no ACKs to clock detect_losses) and retransmit under
  //    the current window — no window collapse;
  //  * at oldest + RTO with ACKs genuinely silent: classic full RTO —
  //    declare everything lost and let the CC collapse.
  const Time now = eq_.now();
  Time oldest = oldest_inflight_sent();
  if (oldest < 0) {
    try_send();  // nothing outstanding; flush any queued retransmissions
    return;
  }
  // Full RTO keys on ACK *silence*, not packet age: the expiry scan keeps
  // retransmitting (refreshing packet ages), so a truly dead path would
  // otherwise never escalate to the CC/LB timeout reaction.
  const Time last_heard = std::max(last_progress_, first_send_time_);
  if (now - last_heard >= params_.effective_rto()) {
    // Everything outstanding is presumed lost (selective-repeat recovery:
    // any shard acked in the meantime is skipped when the queue drains).
    for (std::uint64_t seq = 0; seq < frame_.total_packets(); ++seq) {
      if (meta_[seq].state == PktState::kInflight) {
        meta_[seq].state = PktState::kLost;
        rtx_queue_.push_back(seq);
      }
    }
    bytes_in_flight_ = 0;
    send_order_.clear();
    cc_->on_loss(now);
    lb_->on_timeout(now);
    try_send();
    return;
  }
  if (now >= oldest + params_.effective_loss_expiry()) {
    detect_losses();
    try_send();
    oldest = oldest_inflight_sent();
  }
  if (oldest >= 0) {
    const Time next = std::max(oldest + params_.effective_loss_expiry(), now + 1);
    rto_timer_.arm_at(std::min(next, last_heard + params_.effective_rto()));
  }
}

void FlowSender::complete() {
  done_ = true;
  fct_ = eq_.now() - params_.start_time;
  rto_timer_.cancel();
  // Shards still in kLost were never retransmitted, yet every block is
  // decodable: parity masked those losses.
  for (const PktMeta& m : meta_)
    if (m.state == PktState::kLost) ++fec_masked_;
  if (fec_masked_ > 0)
    UNO_TRACE_EVENT(trace_, TraceKind::kFecMasked, eq_.now(), fec_masked_,
                    frame_.total_packets());
  release_state();
  if (on_complete_) {
    FlowResult r;
    r.id = params_.id;
    r.src = params_.src;
    r.dst = params_.dst;
    r.interdc = params_.interdc;
    r.size_bytes = params_.size_bytes;
    r.start_time = params_.start_time;
    r.completion_time = fct_;
    r.packets_sent = packets_sent_;
    r.retransmits = retransmits_;
    r.nacks = nacks_received_;
    r.fec_masked = fec_masked_;
    on_complete_(r);
  }
}

void FlowSender::release_state() {
  meta_.release();
  rtx_queue_.release();
  send_order_.release();
  frame_.release();
  // payload_store_ stays: in-flight packets still point into its shard slab
  // (verify-mode only, so the retention is test-scoped by construction).
}

// ---------------------------------------------------------------------------
// FlowReceiver
// ---------------------------------------------------------------------------

FlowReceiver::FlowReceiver(EventQueue& eq, const FlowParams& params, const PathSet* paths,
                           SlabPool* pool)
    : eq_(eq),
      params_(params),
      paths_(paths),
      pool_(pool),
      frame_(params.size_bytes, params.mtu, params.ec_enabled, params.ec_data,
             params.ec_parity, BlockFrame::Deferred{}),
      block_timer_(eq, this, 1) {
  if (params_.verify_payload && frame_.ec_enabled())
    verifier_ = std::make_unique<PayloadVerifier>(params_.id, frame_,
                                                  params_.payload_shard_bytes);
}

void FlowReceiver::receive(Packet&& p) {
  if (p.type != PacketType::kData) return;  // miswired route
  if (p.trimmed) {
    // Payload was discarded in-network; tell the sender which transmission
    // died so it can retransmit without waiting for RACK/RTO.
    last_entropy_ = p.entropy;
    ++trims_seen_;
    Packet nack = make_trim_nack_packet(p, &paths_->reverse[p.entropy]);
    forward(std::move(nack));
    return;
  }
  const std::uint64_t seq = p.seq;
  assert(seq < frame_.total_packets());
  last_entropy_ = p.entropy;

  if (frame_.complete() && !verifier_) {
    // Message already finished and per-shard state released: any further
    // arrival (redundant EC shard, crossed retransmission) just gets its
    // ACK. Indistinguishable on the wire from the pre-release duplicate
    // path — only receiver-local tallies differ.
    ++duplicates_;
    send_ack(p);
    return;
  }
  if (!acquired_) {
    // First data packet: the delivery bitmap lives from here to completion.
    acquired_ = true;
    frame_.acquire(pool_);
  }

  if (frame_.mark(seq)) {
    ++received_count_;
    const std::uint32_t block = p.block_id;
    if (verifier_ && p.payload != nullptr)
      verifier_->on_shard(block, p.shard, p.payload);
    if (frame_.ec_enabled()) {
      if (frame_.block_complete(block)) {
        block_deadline_.erase(block);
        UNO_TRACE_EVENT(trace_, TraceKind::kBlockDecoded, eq_.now(), block,
                        received_count_);
      } else {
        // (Re)start the reassembly timer: any arrival is progress, so the
        // NACK deadline counts from the latest shard, not the first.
        block_deadline_.set(block, eq_.now() + params_.block_timeout);
        arm_block_timer();
      }
    }
    if (frame_.complete() && !verifier_) release_state();
  } else {
    ++duplicates_;
  }
  send_ack(p);
}

void FlowReceiver::release_state() { frame_.release(); }

void FlowReceiver::send_ack(const Packet& data) {
  Packet ack = make_ack_packet(data, &paths_->reverse[data.entropy]);
  forward(std::move(ack));
}

void FlowReceiver::send_nack(std::uint32_t block, std::uint16_t entropy) {
  ++nacks_sent_;
  UNO_TRACE_EVENT(trace_, TraceKind::kNackSent, eq_.now(), block, entropy);
  Packet nack = make_nack_packet(params_.id, block, &paths_->reverse[entropy]);
  nack.entropy = entropy;
  forward(std::move(nack));
}

void FlowReceiver::arm_block_timer() {
  const Time earliest = block_deadline_.earliest();
  if (earliest == kTimeInfinity) {
    block_timer_.cancel();
    return;
  }
  if (!block_timer_.armed() || block_timer_.deadline() > earliest)
    block_timer_.arm_at(earliest);
}

void FlowReceiver::on_event(std::uint64_t) {
  const Time now = eq_.now();
  block_deadline_.expire(now, [&](std::uint32_t block) {
    send_nack(block, last_entropy_);
    // Re-NACK later if the retransmission round trip also fails.
    return now + params_.base_rtt + params_.block_timeout;
  });
  arm_block_timer();
}

// ---------------------------------------------------------------------------
// Flow
// ---------------------------------------------------------------------------

Flow::Flow(EventQueue& eq, Host& src_host, Host& dst_host, const FlowParams& params,
           const PathSet* paths, std::unique_ptr<CongestionControl> cc,
           std::unique_ptr<LoadBalancer> lb, FlowSender::CompletionCallback on_complete)
    : Flow(eq, eq, src_host, dst_host, params, paths, std::move(cc), std::move(lb),
           std::move(on_complete)) {}

Flow::Flow(EventQueue& snd_eq, EventQueue& rcv_eq, Host& src_host, Host& dst_host,
           const FlowParams& params, const PathSet* paths,
           std::unique_ptr<CongestionControl> cc, std::unique_ptr<LoadBalancer> lb,
           FlowSender::CompletionCallback on_complete, SlabPool* snd_pool,
           SlabPool* rcv_pool)
    : src_host_(src_host), dst_host_(dst_host), id_(params.id) {
  receiver_ = std::make_unique<FlowReceiver>(rcv_eq, params, paths, rcv_pool);
  sender_ = std::make_unique<FlowSender>(snd_eq, params, paths, std::move(cc),
                                         std::move(lb), std::move(on_complete), snd_pool);
  src_host_.register_flow(id_, sender_.get());
  dst_host_.register_flow(id_, receiver_.get());
}

Flow::~Flow() {
  src_host_.unregister_flow(id_);
  dst_host_.unregister_flow(id_);
}

}  // namespace uno
