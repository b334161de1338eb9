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

#include "core/slab.hpp"
#include "lb/loadbalancer.hpp"
#include "net/host.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "sim/event.hpp"
#include "topo/pathset.hpp"
#include "transport/cc.hpp"

namespace uno {

struct FlowParams {
  // Fields are ordered by size so the struct has no padding holes (96 B,
  // pinned below): every spawned flow keeps one until the run ends.
  std::uint64_t id = 0;
  std::uint64_t size_bytes = 0;
  std::int64_t mtu = 4096;
  Time start_time = 0;
  /// Receiver-side block reassembly timer ("estimated maximum queuing and
  /// transmission delay", §4.2).
  Time block_timeout = 300 * kMicrosecond;
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

  int src = 0;
  int dst = 0;
  // Erasure coding (UnoRC). Applied only when enabled (inter-DC flows).
  int ec_data = 8;
  int ec_parity = 2;
  bool interdc = false;
  bool ec_enabled = false;
  /// Carry and verify real shard payloads end-to-end (fec/payload.hpp):
  /// the sender Reed–Solomon-encodes actual bytes, the receiver
  /// reconstructs each block from whatever shards arrived and checks them
  /// bit-for-bit. Costs memory/CPU; meant for tests and validation runs.
  bool verify_payload = false;

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

  bool operator==(const FlowParams&) const = default;
};
static_assert(sizeof(FlowParams) == 96, "keep the per-flow parameters free of padding holes");

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

/// A flow's congestion controller and load balancer, built together when
/// its sender starts.
struct FlowStack {
  std::unique_ptr<CongestionControl> cc;
  std::unique_ptr<LoadBalancer> lb;
};

/// Builds flow stacks. The Experiment implements it from its scheme
/// (SchemeStackFactory, core/experiment.hpp); tests may pass their own. A
/// sender calls it at its start time, on its shard's thread in a sharded
/// run, so an implementation may read only what no thread writes: the
/// configuration and the topology.
class FlowStackFactory {
 public:
  virtual ~FlowStackFactory() = default;
  virtual FlowStack build(const FlowParams& params, std::uint16_t num_paths) const = 0;
};

/// What every flow endpoint on one shard shares: its event queue, stack
/// factory, slab pool (core/slab.hpp; null = heap), completion sink, tracer
/// (null = tracing off) and quiet list. An endpoint keeps a pointer to its
/// shard's env instead of a copy, so the env must outlive every flow built
/// on it. Under sharding a sender reads its source shard's env and a
/// receiver its destination shard's, each from its own shard's thread; both
/// only read it, the completion sink is called on the sender's shard thread,
/// and each endpoint appends to its own shard's quiet list.
struct FlowEnv {
  EventQueue& eq;
  const FlowStackFactory& stacks;
  SlabPool* pool = nullptr;
  std::function<void(const FlowResult&)> on_complete = nullptr;
  Tracer* tracer = nullptr;
  /// Ids of flows one of whose endpoints may just have made the flow quiet
  /// (Flow::quiet); whoever owns the flows checks and clears it between
  /// steps. Null = nobody retires flows built on this env.
  std::vector<std::uint64_t>* quiet = nullptr;

  void note_quiet(std::uint64_t id) const {
    if (quiet != nullptr) quiet->push_back(id);
  }
};

// Both endpoints keep their state in two tiers (DESIGN.md §15). The endpoint
// object is the record: parameters, counters and completion state, which
// readers use after the flow is gone from the wire, for as long as its owner
// keeps it (an Experiment retires a quiet flow unless it is pinned). The
// engine holds what only an active endpoint reads (framing, per-packet
// state, timers, and on the sender the CC and LB); it exists only while the
// endpoint is active. In verify-payload mode both engines live until
// destruction, because in-flight packets point into the sender's payload
// store and the receiver's verifier keeps consuming shards.

/// Nothing schedules the receiver: only its block timer wakes it, and that
/// timer targets the engine, which forwards to the receiver.
class FlowReceiver final : public PacketSink {
 public:
  /// `params` is read in place and must outlive the receiver (a Flow passes
  /// its sender's). The engine is built at the first data packet. Its
  /// delivery bitmap is held until the message is complete, drawn from the
  /// env's pool and recycled to it, so flow churn stops touching the heap;
  /// the rest waits until the block timer is idle.
  FlowReceiver(const FlowEnv& env, const FlowParams& params, const PathSet* paths);
  ~FlowReceiver() override;

  void receive(Packet&& p) override;
  /// One name for every receiver: traces name a flow "flow:<id>" through
  /// its trace component, so no per-flow string is kept.
  const std::string& name() const override;

  std::uint64_t data_packets_received() const { return received_count_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t nacks_sent() const { return nacks_sent_; }
  std::uint64_t trims_seen() const { return trims_seen_; }
  /// Payload verification outcomes (0 unless FlowParams::verify_payload).
  std::uint32_t payload_blocks_verified() const;
  std::uint32_t payload_blocks_corrupt() const;
  /// Arena-pool counters (0 unless verify_payload): heap allocs flat while
  /// acquires grows is the zero-allocation steady-state contract.
  std::uint64_t payload_pool_acquires() const;
  std::uint64_t payload_pool_heap_allocs() const;
  bool message_complete() const { return complete_; }
  /// Complete with its engine dropped: only late data (counted, ACKed) can
  /// still reach it. Never true with verify_payload.
  bool quiet() const { return complete_ && !engine_; }

  /// Attach to a flight recorder (block decode + NACK instants, kRc). The
  /// context's tracer must be the env's; only the component id is kept.
  void set_trace(TraceContext tc);

 private:
  struct Engine;

  TraceContext trace() const { return {env_->tracer, trace_id_}; }
  void send_ack(const Packet& data);
  void send_nack(std::uint32_t block, std::uint16_t entropy);
  void arm_block_timer(Engine& e);
  /// The block timer fired: NACK the expired blocks and re-arm.
  void on_block_timer();
  /// Drop the engine once the message is complete and the block timer is
  /// idle. An EC receiver's timer is usually still armed at completion and
  /// fires once more as a no-op, counted like any dispatch; destroying it
  /// would drop that event, so the engine waits for it.
  void maybe_drop_engine();

  // Ordered by size: the 80 B record has no padding holes and spans at
  // most two cache lines.
  const FlowEnv* env_;
  std::unique_ptr<Engine> engine_;
  const PathSet* paths_;
  std::uint64_t received_count_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t trims_seen_ = 0;
  const FlowParams& params_;
  std::uint32_t trace_id_ = 0;
  std::uint16_t last_entropy_ = 0;
  bool complete_ = false;
};

class FlowSender final : public PacketSink, public EventHandler {
 public:
  /// Builds only the record. The start time builds the engine: the CC and
  /// LB from the env's stack factory and the per-packet state from its
  /// pool. Completion drops the engine, hands the result to the env's
  /// completion sink, and returns the sender's queue slot.
  FlowSender(const FlowEnv& env, const FlowParams& params, const PathSet* paths);
  ~FlowSender() override;

  /// Schedule the flow's first transmission at params.start_time.
  void start();
  /// start() for a flow whose start time lies ahead: its start event takes
  /// the sequence number `seq`, reserved earlier on this queue
  /// (EventQueue::reserve_seqs), instead of the next one.
  void start(std::uint64_t seq);

  void receive(Packet&& p) override;  // ACKs and NACKs arrive here
  void on_event(std::uint64_t tag) override;
  /// One name for every sender (see FlowReceiver::name).
  const std::string& name() const override;

  // --- observability ---------------------------------------------------------
  const FlowParams& params() const { return params_; }
  /// The CC and LB exist only while the flow runs, from its start time to
  /// its completion (to destruction with verify_payload); asserted. Read
  /// the record's accessors (reroutes(), ...) after a run.
  const CongestionControl& cc() const;
  LoadBalancer& lb();
  bool started() const { return started_; }
  bool done() const { return done_; }
  /// Done with no pacing wakeup pending: nothing of the sender runs again,
  /// and every packet that still reaches it is ignored.
  bool quiet() const { return done_ && !pacing_timer_armed_; }
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
  /// UnoLB subflow re-routes: the LB's live count while the flow runs, the
  /// count copied at completion afterwards. 0 for other load balancers.
  std::uint64_t reroutes() const;
  /// Derived from params() (BlockFrame arithmetic, no allocation).
  std::uint64_t total_packets() const;

  /// Attach the whole sender stack (rtx/NACK instants here, cwnd trace in
  /// the CC, reroutes in the LB) to one flight-recorder component. The
  /// context's tracer must be the env's; only the component id is kept.
  void set_trace(TraceContext tc);

 private:
  struct Engine;
  enum : std::uint32_t { kTagStart = 1, kTagPacing = 2, kTagRto = 3 };

  TraceContext trace() const { return {env_->tracer, trace_id_}; }
  void try_send();
  void send_packet(Engine& e, std::uint64_t seq, bool is_retransmit);
  void handle_ack(const Packet& ack);
  void handle_nack(const Packet& nack);
  void handle_trim_nack(const Packet& nack);
  /// Time-based (RACK-style) loss detection: packets sent a reordering
  /// window before the newest-acked packet are declared lost without
  /// waiting for the RTO.
  void detect_losses(Engine& e);
  /// Forward a loss indication to the CC, at most once per base RTT.
  void signal_loss_to_cc(Engine& e);
  /// The start time has come: build the engine and start sending.
  void begin();
  void on_rto();
  void complete();

  // What every ACK and transmission touches comes first, in the record's
  // first two cache lines; the rest is read at start, at completion, or by
  // observers.
  const FlowEnv* env_;
  std::unique_ptr<Engine> engine_;
  const PathSet* paths_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t acked_bytes_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t nacks_received_ = 0;
  std::uint32_t trace_id_ = 0;
  /// A pacing wakeup is scheduled on the record, not the engine: one still
  /// pending at completion fires as a (counted) no-op.
  bool pacing_timer_armed_ = false;
  bool started_ = false;
  bool done_ = false;
  FlowParams params_;
  Time fct_ = -1;
  std::uint64_t fec_masked_ = 0;
  std::uint64_t reroutes_ = 0;
};

/// Convenience bundle: one allocation holding both endpoints, registered
/// in their hosts' flow table under the flow's id, and the flow's one
/// FlowParams (the sender's; the receiver reads it in place). The caller
/// owns the object; the table entry is removed on destruction. Every
/// resident flow of an Experiment keeps one, so its size is pinned below.
class Flow {
 public:
  Flow(const FlowEnv& env, Host& src_host, Host& dst_host, const FlowParams& params,
       const PathSet* paths);
  /// Sharded form: the sender runs on `snd_env`, the source host's shard,
  /// and the receiver on `rcv_env`, the destination host's (the same env
  /// when not sharding). Each endpoint builds and drops its engine, drawing
  /// from and returning to its own env's slab pool, from its shard's thread
  /// inside a window (an immediate start builds on the spawning thread
  /// between windows), so a pool is never touched by two threads at once.
  Flow(const FlowEnv& snd_env, const FlowEnv& rcv_env, Host& src_host, Host& dst_host,
       const FlowParams& params, const PathSet* paths);
  ~Flow();

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  void start() { sender_.start(); }
  FlowSender& sender() { return sender_; }
  FlowReceiver& receiver() { return receiver_; }

  /// Nothing can touch the flow again: both endpoints are quiet and every
  /// data packet the sender sent has reached the receiver. Packets still
  /// in flight are ACKs, NACKs and trim-NACKs for the done sender (and QCN
  /// notices), which it ignores, so destroying the flow now changes no
  /// result: they count as strays instead. A flow that lost a data packet
  /// is never quiet.
  bool quiet() const {
    return sender_.quiet() && receiver_.quiet() &&
           sender_.packets_sent() ==
               receiver_.data_packets_received() + receiver_.duplicates() +
                   receiver_.trims_seen();
  }

  /// Both endpoints share one trace component ("flow:N").
  void set_trace(TraceContext tc) {
    sender_.set_trace(tc);
    receiver_.set_trace(tc);
  }
  /// Sharded form: each endpoint emits into its own shard's tracer.
  void set_trace(TraceContext sender_tc, TraceContext receiver_tc) {
    sender_.set_trace(sender_tc);
    receiver_.set_trace(receiver_tc);
  }

 private:
  FlowTable& flows_;
  FlowSender sender_;
  FlowReceiver receiver_;
};
static_assert(sizeof(Flow) <= 320, "the record every resident flow keeps");

}  // namespace uno
