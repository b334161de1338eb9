// Switch output port: drop-tail queue + line-rate serializer + ECN marking.
//
// Two marking sources are supported, matching §4.1.3 of the paper:
//  * RED on the instantaneous *physical* occupancy (min/max thresholds,
//    linear probability in between) — used by DCTCP/MPRDMA/Gemini setups;
//  * a *phantom queue*: a counter incremented on every enqueue and drained
//    at a configurable fraction of line rate (default 90%), with its own
//    RED thresholds sized to the inter-DC BDP — used by Uno so ECN can
//    signal congestion long before a shallow physical buffer fills.
// When both are enabled a packet is marked if either source marks it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/ring.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "sim/event.hpp"
#include "sim/rng.hpp"

namespace uno {

/// RED marking thresholds in bytes. Marking probability is 0 below
/// `min_bytes`, 1 above `max_bytes`, linear in between.
struct RedConfig {
  bool enabled = false;
  std::int64_t min_bytes = 0;
  std::int64_t max_bytes = 0;
};

/// Phantom-queue configuration (HULL-style virtual queue).
struct PhantomConfig {
  bool enabled = false;
  double drain_fraction = 0.9;  // of the physical line rate
  RedConfig red;                // thresholds on the *phantom* occupancy
  /// Upper bound on the virtual occupancy; without it a saturated port's
  /// phantom counter grows without limit and takes arbitrarily long to
  /// drain after the overload ends (marking hysteresis). 0 derives
  /// 2 x red.max_bytes.
  std::int64_t cap_bytes = 0;

  std::int64_t effective_cap() const { return cap_bytes > 0 ? cap_bytes : 2 * red.max_bytes; }
};

struct QueueConfig {
  Bandwidth rate = 100 * kGbps;
  std::int64_t capacity_bytes = 1 << 20;  // 1 MiB/port (paper default)
  RedConfig red;        // physical-occupancy marking
  PhantomConfig phantom;
  /// Packet trimming (htsim/NDP-style): instead of dropping an overflowing
  /// data packet, truncate it to its header and forward it, giving the
  /// sender a per-packet loss notification within one RTT.
  bool trim = false;
  /// Separate strict-priority queue for control traffic (ACKs/NACKs) and
  /// trimmed headers, as in NDP: feedback jumps ahead of queued data.
  /// Sized for ~4k control packets so a whole window's worth of trims from
  /// an incast burst survives (control drops cost an expiry round trip).
  std::int64_t control_capacity_bytes = 256 << 10;

  /// Annulus-style near-source QCN (see §3.2/[59] and the paper's footnote
  /// leaving it as future work): when a *source-side* port exceeds the
  /// threshold, an early congestion notification is sent straight back to
  /// the packet's sender, bypassing the long forward loop.
  struct Qcn {
    bool enabled = false;
    std::int64_t threshold_bytes = 150'000;
    Time min_interval = 10 * kMicrosecond;  // per-queue notification pacing
  } qcn;
};

/// A queue is the head of its pipe: every packet it finishes serializing
/// goes to `next`, the pipe's propagation link (a Link, or a ChannelLink
/// where the port crosses a shard seam), never to the packet's route. A
/// route therefore holds one entry per pipe.
///
/// Packets wait in the shard's PacketPool; the lanes hold only each one's
/// handle and wire size, so serving a packet never touches its body.
class Queue final : public PacketSink, public EventHandler {
 public:
  /// `pool` is the shard's packet pool; it and `next` must outlive the queue.
  Queue(EventQueue& eq, PacketPool& pool, std::string name, const QueueConfig& cfg,
        PacketSink& next, Rng rng = Rng(7));

  /// Put the packet in the pool, then take the handle path.
  void receive(Packet&& p) override;
  /// `pool` must be this queue's own.
  void receive(PacketPool& pool, PacketHandle h) override;
  void on_event(std::uint64_t tag) override;

  const std::string& name() const override { return name_; }

  std::int64_t occupancy() const { return occupancy_; }
  /// Packets waiting in both lanes.
  std::size_t queued() const { return q_.size() + ctrl_q_.size(); }
  std::int64_t control_occupancy() const { return ctrl_occupancy_; }
  std::int64_t capacity() const { return cfg_.capacity_bytes; }
  Bandwidth rate() const { return cfg_.rate; }

  /// Phantom occupancy as of `now` (lazily drained).
  std::int64_t phantom_occupancy(Time now) const;

  std::uint64_t drops() const { return drops_; }
  std::uint64_t trims() const { return trims_; }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t ecn_marked() const { return ecn_marked_; }
  std::int64_t max_occupancy() const { return max_occupancy_; }
  std::uint64_t bytes_forwarded() const { return bytes_forwarded_; }

  const QueueConfig& config() const { return cfg_; }
  /// Where served packets go: the pipe's link.
  PacketSink& next() const { return next_; }
  /// Where queued packets live: the shard's pool.
  const PacketPool& pool() const { return pool_; }

  /// Bytes held by the two lanes' ring capacity.
  std::size_t ring_bytes() const {
    return (q_.capacity() + ctrl_q_.capacity()) * sizeof(Entry);
  }

  /// Optional hook invoked on every drop (used by tests and debugging).
  void set_drop_hook(std::function<void(const Packet&)> hook) { drop_hook_ = std::move(hook); }

  /// Installed by the experiment when the Annulus extension is on: called
  /// (rate-limited) with the offending packet when qcn.threshold is crossed.
  void set_qcn_hook(std::function<void(const Packet&)> hook) { qcn_hook_ = std::move(hook); }
  std::uint64_t qcn_notifications() const { return qcn_sent_; }

  /// Gray-failure injection: a broken port that marks every ECN-capable
  /// packet CE regardless of occupancy (fault-plan `ecn-stuck`).
  void set_force_ecn(bool forced) { force_ecn_ = forced; }
  bool force_ecn() const { return force_ecn_; }

  /// Attach this port to a flight recorder (obs/trace.hpp).
  void set_trace(TraceContext tc) {
    trace_ = tc;
    if (tc.tracer != nullptr)
      trace_depth_interval_ = tc.tracer->options().depth_sample_interval;
  }

 private:
  /// Marking decision for a data packet. When it marks, *phantom_source is
  /// set iff the phantom queue's RED probability dominated the physical one
  /// (i.e. the phantom queue is what caused the mark).
  bool should_mark(std::int64_t occupancy_after, Time now, bool* phantom_source);
  void start_service();
  /// Count, trace and report a drop, and return the handle to the pool.
  void discard(PacketHandle h, Time now);

  /// A lane slot: the packet's handle and its wire size.
  struct Entry {
    PacketHandle handle;
    std::uint32_t size;
  };

  EventQueue& eq_;
  PacketPool& pool_;
  PacketSink& next_;
  std::string name_;
  QueueConfig cfg_;
  Rng rng_;
  /// Exact picoseconds-per-byte when 8*kSecond divides the rate evenly
  /// (every realistic rate: 10G=800, 100G=80, 400G=20, 1.6T=5), else 0 and
  /// service falls back to the 128-bit serialization_time. Avoids a 128-bit
  /// division per served packet on the hot path.
  Time ser_ps_per_byte_ = 0;

  PodRing<Entry> q_;       // data packets
  PodRing<Entry> ctrl_q_;  // control + trimmed headers (strict priority)
  std::int64_t occupancy_ = 0;       // data bytes queued
  std::int64_t ctrl_occupancy_ = 0;  // control bytes queued
  bool busy_ = false;
  bool serving_ctrl_ = false;  // which lane the in-progress serialization uses

  // Kept beside the hot fields above: every enqueue tests trace_.tracer and
  // the depth decimation deadline, and parking them at the end of the class
  // costs an extra cache line per packet.
  TraceContext trace_;
  Time trace_depth_next_ = 0;      // next allowed kQueueDepth sample
  Time trace_depth_interval_ = 0;  // from Tracer::Options::depth_sample_interval

  // Phantom queue state: drained lazily whenever observed.
  mutable std::int64_t phantom_bytes_ = 0;
  mutable Time phantom_last_ = 0;
  Bandwidth phantom_rate_ = 0;

  std::uint64_t drops_ = 0;
  std::uint64_t trims_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t bytes_forwarded_ = 0;
  std::uint64_t ecn_marked_ = 0;
  std::int64_t max_occupancy_ = 0;
  bool force_ecn_ = false;
  std::function<void(const Packet&)> drop_hook_;
  std::function<void(const Packet&)> qcn_hook_;
  Time last_qcn_ = -1;
  std::uint64_t qcn_sent_ = 0;
};

}  // namespace uno
