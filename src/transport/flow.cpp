#include "transport/flow.hpp"

#include <algorithm>
#include <cassert>

#include "core/ring.hpp"
#include "fec/block.hpp"
#include "fec/payload.hpp"
#include "transport/deadline_ring.hpp"

namespace uno {

namespace {

/// UnoLB's re-route count; 0 for every other load balancer.
std::uint64_t unolb_reroutes(const LoadBalancer& lb) {
  const auto* uno = dynamic_cast<const UnoLb*>(&lb);
  return uno != nullptr ? uno->reroutes() : 0;
}

BlockFrame framing_of(const FlowParams& p) {
  return BlockFrame(p.size_bytes, p.mtu, p.ec_enabled, p.ec_data, p.ec_parity,
                    BlockFrame::Deferred{});
}

}  // namespace

// ---------------------------------------------------------------------------
// FlowSender
// ---------------------------------------------------------------------------

/// Everything only a running sender reads: built at the start time, dropped
/// at completion.
struct FlowSender::Engine {
  enum class PktState : std::uint8_t { kUnsent, kInflight, kLost, kAcked };
  /// Per-seq transmission record, packed into 16 bytes so the per-ACK path
  /// (state check, send-time compare, path blame) touches one cache line
  /// instead of three parallel arrays.
  struct PktMeta {
    Time sent = -1;             // last transmission time (-1 = never sent)
    std::uint16_t entropy = 0;  // path the seq was last sent on
    PktState state = PktState::kUnsent;
  };
  /// One transmission in time order (see send_order). An entry is
  /// authoritative only while meta[seq].sent still equals its timestamp
  /// (a retransmission supersedes earlier entries for the same seq).
  struct SendRec {
    Time sent;
    std::uint64_t seq;
  };

  Engine(FlowSender& s, FlowStack stack)
      : cc(std::move(stack.cc)),
        lb(std::move(stack.lb)),
        frame(framing_of(s.params_)),
        rto_timer(s.env_->eq, &s, kTagRto) {
    assert(cc != nullptr && lb != nullptr);
    cc->set_trace(s.trace());
    lb->set_trace(s.trace());
    frame.acquire(s.env_->pool);
    meta.assign(frame.total_packets(), PktMeta{}, s.env_->pool);
    if (s.params_.verify_payload && frame.ec_enabled())
      payload_store = std::make_unique<PayloadStore>(s.params_.id, frame,
                                                     s.params_.payload_shard_bytes);
  }

  /// Next sequence due for (re)transmission, or -1 when nothing is pending.
  std::int64_t next_seq_to_send();
  /// Send time of the oldest authoritative in-flight transmission, or -1.
  Time oldest_inflight_sent();

  std::unique_ptr<CongestionControl> cc;
  std::unique_ptr<LoadBalancer> lb;
  BlockFrame frame;
  std::unique_ptr<PayloadStore> payload_store;  // only with verify_payload
  SlabVec<PktMeta> meta;
  PodRing<std::uint64_t> rtx_queue;
  PodRing<SendRec> send_order;
  Time highest_acked_sent = -1;     // newest send time seen in an ACK
  Time last_fast_loss_signal = -1;  // rate-limits CC loss signals
  Time last_progress = -1;          // last new ACK (RTO escalates on silence)
  Time first_send_time = -1;
  Time next_send_time = 0;          // pacing gate
  std::uint64_t next_new_seq = 0;
  std::int64_t bytes_in_flight = 0;
  Timer rto_timer;
};

FlowSender::FlowSender(const FlowEnv& env, const FlowParams& params, const PathSet* paths)
    : env_(&env), paths_(paths), params_(params) {
  assert(paths_ != nullptr && !paths_->empty());
}

FlowSender::~FlowSender() = default;

const std::string& FlowSender::name() const {
  static const std::string kName = "flow.snd";
  return kName;
}

const CongestionControl& FlowSender::cc() const {
  assert(engine_ && "cc() is valid only while the flow runs");
  return *engine_->cc;
}

LoadBalancer& FlowSender::lb() {
  assert(engine_ && "lb() is valid only while the flow runs");
  return *engine_->lb;
}

std::uint64_t FlowSender::reroutes() const {
  return engine_ ? unolb_reroutes(*engine_->lb) : reroutes_;
}

std::uint64_t FlowSender::total_packets() const {
  return framing_of(params_).total_packets();
}

void FlowSender::set_trace(TraceContext tc) {
  assert(tc.tracer == env_->tracer && "a flow traces into its shard's tracer");
  trace_id_ = tc.id;
  if (engine_) {
    engine_->cc->set_trace(tc);
    engine_->lb->set_trace(tc);
  }
}

void FlowSender::start() {
  assert(!started_);
  if (params_.start_time <= env_->eq.now())
    begin();
  else
    env_->eq.schedule_at(params_.start_time, this, kTagStart);
}

void FlowSender::start(std::uint64_t seq) {
  assert(!started_ && params_.start_time > env_->eq.now());
  env_->eq.schedule_keyed(params_.start_time, this, kTagStart, seq);
}

void FlowSender::begin() {
  // A flow may be spawned well before it starts (up to one sync window for
  // a streamed open-loop flow, a whole run for a scenario that spawns its
  // list up front); building the engine only now keeps CC, LB and
  // per-packet state sized to flows in progress, not flows spawned.
  started_ = true;
  engine_ = std::make_unique<Engine>(
      *this, env_->stacks.build(params_, static_cast<std::uint16_t>(paths_->size())));
  try_send();
}

void FlowSender::on_event(std::uint64_t tag) {
  switch (tag) {
    case kTagStart:
      begin();
      break;
    case kTagPacing:
      pacing_timer_armed_ = false;
      // A wakeup that outlived the flow is its last pending event: the
      // sender's queue slot goes back with it, and the sender is quiet.
      if (done_) {
        env_->eq.unbind(this);
        env_->note_quiet(params_.id);
      } else {
        try_send();
      }
      break;
    case kTagRto:
      on_rto();
      break;
    default:
      assert(false && "unknown sender event tag");
  }
}

std::int64_t FlowSender::Engine::next_seq_to_send() {
  // Retransmissions take priority over first transmissions.
  while (!rtx_queue.empty()) {
    const std::uint64_t seq = rtx_queue.front();
    if (meta[seq].state != PktState::kLost ||
        (frame.ec_enabled() && frame.block_complete(frame.shard_of(seq).block))) {
      rtx_queue.pop_front();  // acked meanwhile, or its block became decodable
      continue;
    }
    return static_cast<std::int64_t>(seq);
  }
  while (next_new_seq < frame.total_packets()) {
    if (frame.ec_enabled() && frame.block_complete(frame.shard_of(next_new_seq).block)) {
      ++next_new_seq;  // block already decodable; its tail is redundant
      continue;
    }
    return static_cast<std::int64_t>(next_new_seq);
  }
  return -1;
}

void FlowSender::try_send() {
  assert(started_ && !done_);
  Engine& e = *engine_;
  EventQueue& eq = env_->eq;
  const double rate = e.cc->pacing_rate();
  while (true) {
    const std::int64_t seq = e.next_seq_to_send();
    if (seq < 0) break;
    const std::uint32_t size = e.frame.shard_of(seq).size;
    if (e.bytes_in_flight > 0 && e.bytes_in_flight + size > e.cc->cwnd()) break;
    if (rate > 0.0) {
      const Time now = eq.now();
      if (now < e.next_send_time) {
        if (!pacing_timer_armed_) {
          pacing_timer_armed_ = true;
          eq.schedule_at(e.next_send_time, this, kTagPacing);
        }
        break;
      }
      e.next_send_time = std::max(now, e.next_send_time) +
                         static_cast<Time>(static_cast<double>(size) * kSecond / rate);
    }
    const bool rtx = e.meta[seq].state == Engine::PktState::kLost;
    if (rtx)
      e.rtx_queue.pop_front();
    else
      ++e.next_new_seq;
    send_packet(e, seq, rtx);
  }
}

void FlowSender::send_packet(Engine& e, std::uint64_t seq, bool is_retransmit) {
  const BlockFrame::Shard shard = e.frame.shard_of(seq);
  const std::uint16_t entropy =
      static_cast<std::uint16_t>(e.lb->pick(seq) % paths_->size());
  Packet p = make_data_packet(params_.id, seq, shard.size);
  p.block_id = shard.block;
  p.shard = shard.index;
  p.is_parity = shard.parity;
  p.retransmit = is_retransmit;
  p.src_host = params_.src;
  if (e.payload_store) p.payload = e.payload_store->shard(seq).data();
  const Time now = env_->eq.now();
  p.sent_time = now;
  p.entropy = entropy;
  p.subflow = static_cast<std::uint8_t>(entropy & 0xFF);
  p.hops = paths_->forward[entropy].hops.begin();
  p.hop = 0;

  e.meta[seq] = Engine::PktMeta{now, entropy, Engine::PktState::kInflight};
  e.send_order.emplace_back(now, seq);
  e.bytes_in_flight += shard.size;
  bytes_sent_ += shard.size;
  ++packets_sent_;
  if (is_retransmit) {
    ++retransmits_;
    UNO_TRACE_EVENT(trace(), TraceKind::kRetransmit, now, seq, entropy);
  }
  if (e.first_send_time < 0) e.first_send_time = now;
  // The loss timer fires at expiry granularity (tail losses produce no ACKs
  // to clock detect_losses) and escalates to a full RTO on real silence.
  if (!e.rto_timer.armed()) e.rto_timer.arm_in(params_.effective_loss_expiry());

  forward(std::move(p));
}

void FlowSender::receive(Packet&& p) {
  if (p.type == PacketType::kAck)
    handle_ack(p);
  else if (p.type == PacketType::kNack)
    handle_nack(p);
  else if (p.type == PacketType::kTrimNack)
    handle_trim_nack(p);
  else if (p.type == PacketType::kQcn && started_ && !done_)
    engine_->cc->on_qcn(env_->eq.now());
  // Data packets can only arrive here if a route was miswired; drop them.
}

void FlowSender::handle_trim_nack(const Packet& nack) {
  if (done_) return;
  Engine& e = *engine_;
  const std::uint64_t seq = nack.ack_seq;
  assert(seq < e.frame.total_packets());
  // Only authoritative for the transmission it refers to: if the shard was
  // meanwhile acked, declared lost, or retransmitted, ignore the stale trim.
  if (e.meta[seq].state != Engine::PktState::kInflight ||
      e.meta[seq].sent != nack.echo_sent_time)
    return;
  e.meta[seq].state = Engine::PktState::kLost;
  e.bytes_in_flight -= e.frame.shard_of(seq).size;
  e.rtx_queue.push_back(seq);
  signal_loss_to_cc(e);
  try_send();
}

void FlowSender::handle_ack(const Packet& ack) {
  if (done_) return;
  Engine& e = *engine_;
  const std::uint64_t seq = ack.ack_seq;
  assert(seq < e.frame.total_packets());
  const Time now = env_->eq.now();
  e.lb->on_ack(ack.entropy, ack.ecn_echo, now);

  Engine::PktMeta& m = e.meta[seq];
  if (m.state == Engine::PktState::kAcked) return;  // duplicate delivery
  if (m.state == Engine::PktState::kInflight) e.bytes_in_flight -= e.frame.shard_of(seq).size;
  m.state = Engine::PktState::kAcked;
  const std::uint32_t size = e.frame.shard_of(seq).size;
  acked_bytes_ += size;
  e.last_progress = now;
  e.frame.mark(seq);

  AckEvent ev;
  ev.now = now;
  ev.bytes_acked = size;
  ev.ecn = ack.ecn_echo;
  ev.rtt = now - ack.echo_sent_time;
  ev.pkt_sent_time = ack.echo_sent_time;
  e.cc->on_ack(ev);

  if (e.frame.complete()) {
    complete();  // drops the engine: nothing below may touch `e`
    return;
  }
  e.highest_acked_sent = std::max(e.highest_acked_sent, ack.echo_sent_time);
  detect_losses(e);
  try_send();
}

Time FlowSender::Engine::oldest_inflight_sent() {
  while (!send_order.empty()) {
    const auto [sent, seq] = send_order.front();
    if (meta[seq].state != PktState::kInflight || meta[seq].sent != sent) {
      send_order.pop_front();
      continue;
    }
    return sent;
  }
  return -1;
}

void FlowSender::detect_losses(Engine& e) {
  const Time window = params_.effective_rack_window();
  const Time expiry = params_.effective_loss_expiry();
  const Time now = env_->eq.now();
  bool lost_any = false;
  while (!e.send_order.empty()) {
    const auto [sent, seq] = e.send_order.front();
    if (e.meta[seq].state != Engine::PktState::kInflight || e.meta[seq].sent != sent) {
      e.send_order.pop_front();  // acked, already queued for rtx, or resent
      continue;
    }
    const bool rack_lost = sent + window < e.highest_acked_sent;
    const bool expired = sent + expiry <= now;
    if (!rack_lost && !expired) break;  // still plausibly in flight
    e.send_order.pop_front();
    e.meta[seq].state = Engine::PktState::kLost;
    e.bytes_in_flight -= e.frame.shard_of(seq).size;
    e.rtx_queue.push_back(seq);
    if (!lost_any) {
      // First detected loss of this batch: hint the load balancer about the
      // path it died on. UnoLB treats it like a NACK (rate-limited reroute
      // away from failed links even when EC/NACKs are off); PLB and RPS
      // ignore loss hints by design.
      e.lb->on_nack(e.meta[seq].entropy, now);
    }
    lost_any = true;
  }
  if (lost_any) signal_loss_to_cc(e);
}

void FlowSender::signal_loss_to_cc(Engine& e) {
  // Losses signal congestion, but at most once per RTT (like a DCTCP
  // loss-round); the NACK hook gives each CC its moderate-reduction path.
  const Time now = env_->eq.now();
  if (now - e.last_fast_loss_signal <= params_.base_rtt) return;
  e.last_fast_loss_signal = now;
  e.cc->on_nack(now);
}

void FlowSender::handle_nack(const Packet& nack) {
  if (done_) return;
  Engine& e = *engine_;
  ++nacks_received_;
  const std::uint32_t block = nack.nack_block;
  assert(block < e.frame.num_blocks());
  if (e.frame.block_complete(block)) return;  // stale NACK; already decodable

  // Declare the block's *stale* in-flight shards lost and queue them for
  // retransmission; shards sent within the last block_timeout are likely
  // still in transit and are left alone (the receiver re-NACKs if they
  // never land). Blame the path of the first missing shard.
  const std::uint64_t first = e.frame.first_seq_of_block(block);
  const std::uint64_t end = first + e.frame.shards_in_block(block);
  const Time now = env_->eq.now();
  const Time stale_before = now - params_.block_timeout;
  bool blamed = false;
  std::uint64_t requeued = 0;
  for (std::uint64_t seq = first; seq < end; ++seq) {
    Engine::PktMeta& m = e.meta[seq];
    if (m.state == Engine::PktState::kInflight && m.sent <= stale_before) {
      m.state = Engine::PktState::kLost;
      e.bytes_in_flight -= e.frame.shard_of(seq).size;
      e.rtx_queue.push_back(seq);
      ++requeued;
      if (!blamed) {
        e.lb->on_nack(m.entropy, now);
        blamed = true;
      }
    }
  }
  if (!blamed) e.lb->on_nack(nack.entropy, now);
  UNO_TRACE_EVENT(trace(), TraceKind::kNackReceived, now, block, requeued);
  signal_loss_to_cc(e);
  try_send();
}

void FlowSender::on_rto() {
  // complete() cancels the RTO timer, so it never fires on a done flow.
  assert(!done_);
  Engine& e = *engine_;
  // Lazy two-stage loss timer, anchored to the oldest outstanding
  // transmission:
  //  * at oldest + loss_expiry: run the expiry scan (recovers tail losses
  //    that produce no ACKs to clock detect_losses) and retransmit under
  //    the current window — no window collapse;
  //  * at oldest + RTO with ACKs genuinely silent: classic full RTO —
  //    declare everything lost and let the CC collapse.
  const Time now = env_->eq.now();
  Time oldest = e.oldest_inflight_sent();
  if (oldest < 0) {
    try_send();  // nothing outstanding; flush any queued retransmissions
    return;
  }
  // Full RTO keys on ACK *silence*, not packet age: the expiry scan keeps
  // retransmitting (refreshing packet ages), so a truly dead path would
  // otherwise never escalate to the CC/LB timeout reaction.
  const Time last_heard = std::max(e.last_progress, e.first_send_time);
  if (now - last_heard >= params_.effective_rto()) {
    // Everything outstanding is presumed lost (selective-repeat recovery:
    // any shard acked in the meantime is skipped when the queue drains).
    for (std::uint64_t seq = 0; seq < e.frame.total_packets(); ++seq) {
      if (e.meta[seq].state == Engine::PktState::kInflight) {
        e.meta[seq].state = Engine::PktState::kLost;
        e.rtx_queue.push_back(seq);
      }
    }
    e.bytes_in_flight = 0;
    e.send_order.clear();
    e.cc->on_loss(now);
    e.lb->on_timeout(now);
    try_send();
    return;
  }
  if (now >= oldest + params_.effective_loss_expiry()) {
    detect_losses(e);
    try_send();
    oldest = e.oldest_inflight_sent();
  }
  if (oldest >= 0) {
    const Time next = std::max(oldest + params_.effective_loss_expiry(), now + 1);
    e.rto_timer.arm_at(std::min(next, last_heard + params_.effective_rto()));
  }
}

void FlowSender::complete() {
  Engine& e = *engine_;
  const Time now = env_->eq.now();
  done_ = true;
  fct_ = now - params_.start_time;
  // Cancel before the engine drops the timer, so the queue's stale hint
  // counts its pending entry, which then pops as a dead-slot wakeup.
  e.rto_timer.cancel();
  // Shards still in kLost were never retransmitted, yet every block is
  // decodable: parity masked those losses.
  for (const Engine::PktMeta& m : e.meta)
    if (m.state == Engine::PktState::kLost) ++fec_masked_;
  if (fec_masked_ > 0)
    UNO_TRACE_EVENT(trace(), TraceKind::kFecMasked, now, fec_masked_,
                    e.frame.total_packets());
  reroutes_ = unolb_reroutes(*e.lb);
  // done_ short-circuits every handler from here on. Verify mode keeps the
  // engine: in-flight packets still point into its payload store.
  if (!params_.verify_payload) engine_.reset();
  // Nothing but a pacing wakeup can still be pending for the record; with
  // none armed, its queue slot goes back and it is quiet now, else when
  // that wakeup fires.
  if (!pacing_timer_armed_) {
    env_->eq.unbind(this);
    env_->note_quiet(params_.id);
  }
  if (env_->on_complete) {
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
    env_->on_complete(r);
  }
}

// ---------------------------------------------------------------------------
// FlowReceiver
// ---------------------------------------------------------------------------

/// Everything only an active receiver reads: built at the first data
/// packet, dropped once the message is complete and the block timer idle.
/// The block timer targets the engine, which forwards to the receiver.
struct FlowReceiver::Engine final : EventHandler {
  explicit Engine(FlowReceiver& r)
      : receiver(r), frame(framing_of(r.params_)), block_timer(r.env_->eq, this, 0) {
    frame.acquire(r.env_->pool);
    if (r.params_.verify_payload && frame.ec_enabled())
      verifier = std::make_unique<PayloadVerifier>(r.params_.id, frame,
                                                   r.params_.payload_shard_bytes);
  }

  /// May destroy this engine; nothing of it is touched afterwards.
  void on_event(std::uint64_t) override { receiver.on_block_timer(); }

  FlowReceiver& receiver;
  /// Per-block shard accounting (degenerate for non-EC); its bitmap doubles
  /// as the duplicate filter.
  BlockFrame frame;
  std::unique_ptr<PayloadVerifier> verifier;  // only with verify_payload
  /// Pending incomplete blocks and their NACK deadlines (flat, sorted,
  /// allocation-free in steady state — see transport/deadline_ring.hpp).
  DeadlineRing block_deadline;
  Timer block_timer;
};

FlowReceiver::FlowReceiver(const FlowEnv& env, const FlowParams& params, const PathSet* paths)
    : env_(&env), paths_(paths), params_(params) {}

FlowReceiver::~FlowReceiver() = default;

void FlowReceiver::set_trace(TraceContext tc) {
  assert(tc.tracer == env_->tracer && "a flow traces into its shard's tracer");
  trace_id_ = tc.id;
}

const std::string& FlowReceiver::name() const {
  static const std::string kName = "flow.rcv";
  return kName;
}

std::uint32_t FlowReceiver::payload_blocks_verified() const {
  return engine_ && engine_->verifier ? engine_->verifier->blocks_verified() : 0;
}

std::uint32_t FlowReceiver::payload_blocks_corrupt() const {
  return engine_ && engine_->verifier ? engine_->verifier->blocks_corrupt() : 0;
}

std::uint64_t FlowReceiver::payload_pool_acquires() const {
  return engine_ && engine_->verifier ? engine_->verifier->pool_acquires() : 0;
}

std::uint64_t FlowReceiver::payload_pool_heap_allocs() const {
  return engine_ && engine_->verifier ? engine_->verifier->pool_heap_allocs() : 0;
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
    if (quiet()) env_->note_quiet(params_.id);  // may be the flow's last data
    return;
  }
  const std::uint64_t seq = p.seq;
  last_entropy_ = p.entropy;

  if (complete_ && !params_.verify_payload) {
    // Message already finished: any further arrival (redundant EC shard,
    // crossed retransmission) just gets its ACK, whether or not the engine
    // is still waiting for its block timer. Indistinguishable on the wire
    // from the duplicate path below — only receiver-local tallies differ.
    ++duplicates_;
    send_ack(p);
    if (!engine_) env_->note_quiet(params_.id);  // may be the flow's last data
    return;
  }
  // First data packet: the engine lives from here to completion.
  if (!engine_) engine_ = std::make_unique<Engine>(*this);
  Engine& e = *engine_;
  assert(seq < e.frame.total_packets());

  if (e.frame.mark(seq)) {
    ++received_count_;
    const std::uint32_t block = p.block_id;
    if (e.verifier && p.payload != nullptr) e.verifier->on_shard(block, p.shard, p.payload);
    if (e.frame.ec_enabled()) {
      if (e.frame.block_complete(block)) {
        e.block_deadline.erase(block);
        UNO_TRACE_EVENT(trace(), TraceKind::kBlockDecoded, env_->eq.now(), block,
                        received_count_);
      } else {
        // (Re)start the reassembly timer: any arrival is progress, so the
        // NACK deadline counts from the latest shard, not the first.
        e.block_deadline.set(block, env_->eq.now() + params_.block_timeout);
        arm_block_timer(e);
      }
    }
    if (e.frame.complete()) {
      complete_ = true;
      if (!params_.verify_payload) {
        // The bitmap goes back to the pool now, even while the engine waits
        // for its block timer.
        e.frame.release();
        maybe_drop_engine();
      }
    }
  } else {
    ++duplicates_;
  }
  send_ack(p);
}

void FlowReceiver::maybe_drop_engine() {
  if (complete_ && !params_.verify_payload && !engine_->block_timer.armed()) {
    engine_.reset();
    env_->note_quiet(params_.id);
  }
}

void FlowReceiver::send_ack(const Packet& data) {
  Packet ack = make_ack_packet(data, &paths_->reverse[data.entropy]);
  forward(std::move(ack));
}

void FlowReceiver::send_nack(std::uint32_t block, std::uint16_t entropy) {
  ++nacks_sent_;
  UNO_TRACE_EVENT(trace(), TraceKind::kNackSent, env_->eq.now(), block, entropy);
  Packet nack = make_nack_packet(params_.id, block, &paths_->reverse[entropy]);
  nack.entropy = entropy;
  forward(std::move(nack));
}

void FlowReceiver::arm_block_timer(Engine& e) {
  const Time earliest = e.block_deadline.earliest();
  if (earliest == kTimeInfinity) {
    e.block_timer.cancel();
    return;
  }
  if (!e.block_timer.armed() || e.block_timer.deadline() > earliest)
    e.block_timer.arm_at(earliest);
}

void FlowReceiver::on_block_timer() {
  Engine& e = *engine_;
  const Time now = env_->eq.now();
  e.block_deadline.expire(now, [&](std::uint32_t block) {
    send_nack(block, last_entropy_);
    // Re-NACK later if the retransmission round trip also fails.
    return now + params_.base_rtt + params_.block_timeout;
  });
  arm_block_timer(e);
  // The timer and engine running this callback may be destroyed here;
  // neither touches anything of itself after this returns.
  maybe_drop_engine();
}

// ---------------------------------------------------------------------------
// Flow
// ---------------------------------------------------------------------------

Flow::Flow(const FlowEnv& env, Host& src_host, Host& dst_host, const FlowParams& params,
           const PathSet* paths)
    : Flow(env, env, src_host, dst_host, params, paths) {}

Flow::Flow(const FlowEnv& snd_env, const FlowEnv& rcv_env, Host& src_host,
           [[maybe_unused]] Host& dst_host, const FlowParams& params, const PathSet* paths)
    : flows_(src_host.flow_table()),
      sender_(snd_env, params, paths),
      receiver_(rcv_env, sender_.params(), paths) {
  assert(&dst_host.flow_table() == &flows_ && "both hosts belong to one topology");
  flows_.add(params.id, &sender_, &receiver_);
}

Flow::~Flow() { flows_.remove(sender_.params().id); }

}  // namespace uno
