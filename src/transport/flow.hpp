// Reliable message transport: one Flow = one message from src to dst.
//
// The sender segments the message into MTU packets (optionally framed into
// erasure-coded blocks), transmits under the congestion controller's window
// and pacing rate, spreads packets over paths via a load balancer, and
// recovers losses through RTO and receiver NACKs. The receiver ACKs every
// data packet (echoing ECN and the transmission timestamp), tracks EC block
// completeness, and NACKs blocks whose reassembly timer expires.
//
// Flow completion time is measured exactly as in the paper (§1, Fig. 1):
// from the transmission of the first packet to the arrival of the ACK that
// makes the message fully delivered (for EC flows: every block decodable).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bitmap.hpp"
#include "core/ring.hpp"
#include "fec/block.hpp"
#include "fec/payload.hpp"
#include "lb/loadbalancer.hpp"
#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/event.hpp"
#include "topo/pathset.hpp"
#include "transport/cc.hpp"
#include "transport/deadline_ring.hpp"

namespace uno {

class FlowSender;

struct FlowParams {
  std::uint64_t id = 0;
  int src = 0;
  int dst = 0;
  std::uint64_t size_bytes = 0;
  std::int64_t mtu = 4096;
  Time start_time = 0;
  bool interdc = false;

  // Erasure coding (UnoRC). Applied only when enabled (inter-DC flows).
  bool ec_enabled = false;
  int ec_data = 8;
  int ec_parity = 2;
  /// Receiver-side block reassembly timer ("estimated maximum queuing and
  /// transmission delay", §4.2).
  Time block_timeout = 300 * kMicrosecond;
  /// Carry and verify real shard payloads end-to-end (fec/payload.hpp):
  /// the sender Reed–Solomon-encodes actual bytes, the receiver
  /// reconstructs each block from whatever shards arrived and checks them
  /// bit-for-bit. Costs memory/CPU; meant for tests and validation runs.
  bool verify_payload = false;
  std::size_t payload_shard_bytes = 256;

  Time base_rtt = 14 * kMicrosecond;
  /// Retransmission timeout; 0 derives max(4*base_rtt, 1ms). The floor keeps
  /// intra-DC flows from spurious go-back-N under transient full queues
  /// (~84us of queuing per congested 1 MiB hop dwarfs the 14us base RTT).
  Time rto = 0;

  /// RACK-style reordering window: a packet is declared lost once a packet
  /// *sent this much later* has been ACKed. With trimming providing exact
  /// per-packet loss signals, RACK is a backstop for hard drops (failed
  /// links, random WAN loss), so the window is sized generously above
  /// multipath delay spread and transient queueing. 0 derives
  /// max(base_rtt, 300us).
  Time rack_window = 0;

  Time effective_rto() const {
    return rto > 0 ? rto : std::max<Time>(4 * base_rtt, kMillisecond);
  }
  Time effective_rack_window() const {
    return rack_window > 0 ? rack_window : std::max<Time>(base_rtt, 300 * kMicrosecond);
  }
  /// Wall-clock bound: a packet outstanding this long is lost even if no
  /// newer packet has been ACKed (clears "ghost" inflight when sending is
  /// window-blocked, without waiting for the full RTO). Must exceed the
  /// worst-case queueing delay during overload transients or it creates
  /// duplicate-retransmission spirals.
  Time effective_loss_expiry() const {
    return std::max<Time>(3 * base_rtt, 3 * kMillisecond);
  }
};

/// Summary handed to the completion callback.
struct FlowResult {
  std::uint64_t id = 0;
  int src = 0;
  int dst = 0;
  bool interdc = false;
  std::uint64_t size_bytes = 0;
  Time start_time = 0;
  Time completion_time = 0;  // FCT
  std::uint64_t packets_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t nacks = 0;
  /// Shards still marked lost when the message completed: losses the
  /// erasure code masked, sparing a retransmission (0 for non-EC flows).
  std::uint64_t fec_masked = 0;
};

/// Absolute simulation time a flow finished (FlowResult::completion_time is
/// the FCT *duration*).
inline Time flow_finish_time(const FlowResult& r) {
  return r.start_time + r.completion_time;
}

/// The canonical completion order: finish time, then flow id. Ids are
/// unique, so the order is total and a pure function of simulation content,
/// never of shard interleaving (DESIGN.md §14).
inline bool finishes_before(const FlowResult& a, const FlowResult& b) {
  const Time fa = flow_finish_time(a), fb = flow_finish_time(b);
  return fa != fb ? fa < fb : a.id < b.id;
}

class FlowReceiver final : public PacketSink, public EventHandler {
 public:
  /// Per-packet state (the delivery bitmap) is held from the first data
  /// packet to message completion. With a `pool` it is drawn from that slab
  /// pool and recycled to it, so flow churn stops touching the heap
  /// (core/slab.hpp).
  FlowReceiver(EventQueue& eq, const FlowParams& params, const PathSet* paths,
               SlabPool* pool = nullptr);

  void receive(Packet&& p) override;
  void on_event(std::uint64_t tag) override;
  /// Built lazily: a million short flows never ask for their names.
  const std::string& name() const override {
    if (name_.empty()) name_ = "flow" + std::to_string(params_.id) + ".rcv";
    return name_;
  }

  std::uint64_t data_packets_received() const { return received_count_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t nacks_sent() const { return nacks_sent_; }
  std::uint64_t trims_seen() const { return trims_seen_; }
  /// Payload verification outcomes (0 unless FlowParams::verify_payload).
  std::uint32_t payload_blocks_verified() const {
    return verifier_ ? verifier_->blocks_verified() : 0;
  }
  std::uint32_t payload_blocks_corrupt() const {
    return verifier_ ? verifier_->blocks_corrupt() : 0;
  }
  /// Arena-pool counters (0 unless verify_payload): heap allocs flat while
  /// acquires grows is the zero-allocation steady-state contract.
  std::uint64_t payload_pool_acquires() const {
    return verifier_ ? verifier_->pool_acquires() : 0;
  }
  std::uint64_t payload_pool_heap_allocs() const {
    return verifier_ ? verifier_->pool_heap_allocs() : 0;
  }
  bool message_complete() const { return frame_.complete(); }

  /// Attach to a flight recorder (block decode + NACK instants, kRc).
  void set_trace(TraceContext tc) { trace_ = tc; }

 private:
  void send_ack(const Packet& data);
  void send_nack(std::uint32_t block, std::uint16_t entropy);
  void arm_block_timer();
  /// Return per-packet state to the slab pool once the message completed.
  /// Late arrivals afterwards are counted as duplicates and acked without
  /// touching the (released) bitmap — never taken in verify mode, where
  /// the verifier still consumes shard payloads.
  void release_state();

  EventQueue& eq_;
  FlowParams params_;
  const PathSet* paths_;
  SlabPool* pool_;
  mutable std::string name_;
  /// Per-block shard accounting (degenerate for non-EC); its bitmap doubles
  /// as the duplicate filter.
  BlockFrame frame_;
  bool acquired_ = false;  // bitmap drawn (first data packet seen)
  std::unique_ptr<PayloadVerifier> verifier_;  // only with verify_payload

  std::uint64_t received_count_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t trims_seen_ = 0;
  std::uint16_t last_entropy_ = 0;

  /// Pending incomplete blocks and their NACK deadlines (flat, sorted,
  /// allocation-free in steady state — see transport/deadline_ring.hpp).
  DeadlineRing block_deadline_;
  Timer block_timer_;
  TraceContext trace_;
};

class FlowSender final : public PacketSink, public EventHandler {
 public:
  using CompletionCallback = std::function<void(const FlowResult&)>;

  /// Per-packet state (transmission records, delivery bitmap) is held from
  /// the flow's start to its completion. With a `pool` it lives on that
  /// slab pool and is recycled to it.
  FlowSender(EventQueue& eq, const FlowParams& params, const PathSet* paths,
             std::unique_ptr<CongestionControl> cc, std::unique_ptr<LoadBalancer> lb,
             CompletionCallback on_complete = nullptr, SlabPool* pool = nullptr);

  /// Schedule the flow's first transmission at params.start_time.
  void start();

  void receive(Packet&& p) override;  // ACKs and NACKs arrive here
  void on_event(std::uint64_t tag) override;
  /// Built lazily: a million short flows never ask for their names.
  const std::string& name() const override {
    if (name_.empty()) name_ = "flow" + std::to_string(params_.id) + ".snd";
    return name_;
  }

  // --- observability ---------------------------------------------------------
  const FlowParams& params() const { return params_; }
  CongestionControl& cc() { return *cc_; }
  const CongestionControl& cc() const { return *cc_; }
  LoadBalancer& lb() { return *lb_; }
  bool done() const { return done_; }
  Time fct() const { return fct_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t acked_bytes() const { return acked_bytes_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t nacks_received() const { return nacks_received_; }
  /// Losses the erasure code absorbed: shards still marked lost at
  /// completion (their blocks decoded from parity, so no retransmission
  /// was ever needed). 0 until the flow completes, and for non-EC flows.
  std::uint64_t fec_masked() const { return fec_masked_; }
  std::int64_t bytes_in_flight() const { return bytes_in_flight_; }
  std::uint64_t total_packets() const { return frame_.total_packets(); }

  /// Attach the whole sender stack (rtx/NACK instants here, cwnd trace in
  /// the CC, reroutes in the LB) to one flight-recorder component.
  void set_trace(TraceContext tc) {
    trace_ = tc;
    cc_->set_trace(tc);
    lb_->set_trace(tc);
  }

 private:
  enum class PktState : std::uint8_t { kUnsent, kInflight, kLost, kAcked };
  enum : std::uint32_t { kTagStart = 1, kTagPacing = 2, kTagRto = 3 };

  void try_send();
  bool send_packet(std::uint64_t seq, bool is_retransmit);
  void handle_ack(const Packet& ack);
  void handle_nack(const Packet& nack);
  void handle_trim_nack(const Packet& nack);
  /// Time-based (RACK-style) loss detection: packets sent a reordering
  /// window before the newest-acked packet are declared lost without
  /// waiting for the RTO.
  void detect_losses();
  /// Forward a loss indication to the CC, at most once per base RTT.
  void signal_loss_to_cc();
  /// The start time has come: draw per-packet state and start sending.
  void begin();
  void on_rto();
  /// Send time of the oldest authoritative in-flight transmission, or -1.
  Time oldest_inflight_sent();
  void complete();
  /// Recycle per-packet state (meta, rings, bitmap) at completion; the
  /// done_ short-circuit in every handler keeps it untouched afterwards.
  /// Framing scalars survive, so total_packets() stays valid.
  void release_state();
  /// Next sequence due for (re)transmission, or -1 when nothing is pending.
  std::int64_t next_seq_to_send();

  EventQueue& eq_;
  FlowParams params_;
  const PathSet* paths_;
  SlabPool* pool_;
  std::unique_ptr<CongestionControl> cc_;
  std::unique_ptr<LoadBalancer> lb_;
  CompletionCallback on_complete_;
  mutable std::string name_;

  BlockFrame frame_;
  std::unique_ptr<PayloadStore> payload_store_;  // only with verify_payload
  /// Per-seq transmission record, packed into 16 bytes so the per-ACK path
  /// (state check, send-time compare, path blame) touches one cache line
  /// instead of three parallel arrays.
  struct PktMeta {
    Time sent = -1;             // last transmission time (-1 = never sent)
    std::uint16_t entropy = 0;  // path the seq was last sent on
    PktState state = PktState::kUnsent;
  };
  SlabVec<PktMeta> meta_;
  PodRing<std::uint64_t> rtx_queue_;
  /// One transmission in time order (see send_order_). An entry is
  /// authoritative only while meta_[seq].sent still equals its timestamp
  /// (a retransmission supersedes earlier entries for the same seq).
  struct SendRec {
    Time sent;
    std::uint64_t seq;
  };
  PodRing<SendRec> send_order_;
  Time highest_acked_sent_ = -1;     // newest send time seen in an ACK
  Time last_fast_loss_signal_ = -1;  // rate-limits CC loss signals
  Time last_progress_ = -1;          // last new ACK (RTO escalates on silence)
  std::uint64_t next_new_seq_ = 0;
  std::int64_t bytes_in_flight_ = 0;

  Time next_send_time_ = 0;  // pacing gate
  bool pacing_timer_armed_ = false;
  Timer rto_timer_;

  bool started_ = false;
  bool done_ = false;
  Time first_send_time_ = -1;
  Time fct_ = -1;

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t acked_bytes_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t nacks_received_ = 0;
  std::uint64_t fec_masked_ = 0;
  TraceContext trace_;
};

/// Convenience bundle: constructs matching sender/receiver and registers
/// them with the hosts. The caller owns the object; endpoints deregister on
/// destruction.
class Flow {
 public:
  Flow(EventQueue& eq, Host& src_host, Host& dst_host, const FlowParams& params,
       const PathSet* paths, std::unique_ptr<CongestionControl> cc,
       std::unique_ptr<LoadBalancer> lb, FlowSender::CompletionCallback on_complete = nullptr);
  /// Sharded form: the sender lives on the source host's shard queue, the
  /// receiver on the destination host's (the same object when not sharding).
  /// Each endpoint's slab pool must belong to its own shard: the endpoint
  /// acquires and releases there from its shard's thread inside a window
  /// (an immediate start acquires on the spawning thread between windows),
  /// so a pool is never touched by two threads at once.
  Flow(EventQueue& snd_eq, EventQueue& rcv_eq, Host& src_host, Host& dst_host,
       const FlowParams& params, const PathSet* paths,
       std::unique_ptr<CongestionControl> cc, std::unique_ptr<LoadBalancer> lb,
       FlowSender::CompletionCallback on_complete = nullptr,
       SlabPool* snd_pool = nullptr, SlabPool* rcv_pool = nullptr);
  ~Flow();

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  void start() { sender_->start(); }
  FlowSender& sender() { return *sender_; }
  FlowReceiver& receiver() { return *receiver_; }

  /// Both endpoints share one trace component ("flow:N").
  void set_trace(TraceContext tc) {
    sender_->set_trace(tc);
    receiver_->set_trace(tc);
  }
  /// Sharded form: each endpoint emits into its own shard's tracer.
  void set_trace(TraceContext sender_tc, TraceContext receiver_tc) {
    sender_->set_trace(sender_tc);
    receiver_->set_trace(receiver_tc);
  }

 private:
  Host& src_host_;
  Host& dst_host_;
  std::uint64_t id_;
  std::unique_ptr<FlowReceiver> receiver_;
  std::unique_ptr<FlowSender> sender_;
};

}  // namespace uno
