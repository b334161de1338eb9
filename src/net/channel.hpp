// Cross-shard boundary link: the channel endpoint form of net/link.hpp.
//
// A ChannelLink carries packets across a shard seam (in this topology, the
// WAN links between data centers). Its ingress runs on the *source* shard's
// queue and its egress on the *destination* shard's queue; the propagation
// latency is the conservative lookahead that makes bounded-lag windows safe
// (sim/shard.hpp). In a monolithic run (--shards 1) both queues are the same
// object and the delivery is scheduled immediately at ingress; in a sharded
// run the ingress only stages the packet, and the single-threaded barrier
// coordinator moves it into the destination queue via flush_staged().
//
// The seam is the one place a packet is copied: ingress copies it out of
// the source shard's PacketPool (PacketSink's default handle path), entries
// hold it by value, and egress forwards it to a queue of the destination
// shard, which puts it in that shard's pool. Packets in a pool are touched only by
// their shard's thread, so the barrier moves values, never handles.
//
// Either way the delivery event is keyed with EventQueue::canonical_seq
// (channel id + per-channel sequence), so its position in the global
// (time, seq) dispatch order is identical for every --shards value — this is
// what makes sharded runs bit-identical to sequential ones.
//
// Semantics deliberately differ from Link in one respect: set_up(false)
// drops at ingress only — packets already in flight still deliver their
// tail. Link flushes them synchronously, which would race with the
// destination shard; physically this models severing the wire at the sender
// end. Fault scripts that need flush semantics run monolithic (uno_sim gates
// fault plans to --shards 1).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "net/loss.hpp"
#include "net/packet.hpp"
#include "sim/event.hpp"
#include "sim/shard.hpp"

namespace uno {

class ChannelLink final : public PacketSink,
                          public EventHandler,
                          public CrossShardChannel {
 public:
  /// `src_eq`/`dst_eq` are the shard queues of the two endpoints (the same
  /// object in a monolithic run). `channel_id` must be globally unique and
  /// assigned in a deterministic build order — it is part of the canonical
  /// event key.
  ChannelLink(EventQueue& src_eq, EventQueue& dst_eq, std::string name,
              Time latency, std::uint16_t channel_id);

  /// Ingress: runs on the source shard.
  void receive(Packet&& p) override;
  /// Egress: runs on the destination shard; tag is the per-channel sequence.
  void on_event(std::uint64_t chanseq) override;

  // Link-compatible control surface (used by fault injection and tests).
  const std::string& name() const override { return name_; }
  Time latency() const { return latency_; }
  void set_latency(Time latency) { latency_ = latency; }
  void set_up(bool up) { up_ = up; }  // ingress-only: in-flight tail delivers
  bool up() const { return up_; }
  void set_loss_model(std::unique_ptr<LossModel> model) { loss_ = std::move(model); }
  std::unique_ptr<LossModel> swap_loss_model(std::unique_ptr<LossModel> model) {
    std::swap(loss_, model);
    return model;
  }
  const LossModel* loss_model() const { return loss_.get(); }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint16_t channel_id() const { return id_; }

  // CrossShardChannel (read/called only at barriers; see sim/shard.hpp).
  Time lookahead() const override { return latency_; }
  std::size_t flush_staged() override;
  std::size_t occupancy() const override {
    return staging_.size() + pending_.size();
  }
  std::size_t peak_occupancy() const override { return peak_occupancy_; }

 private:
  struct InFlight {
    Time due = 0;
    std::uint64_t chanseq = 0;
    /// True once this entry's delivery event is in the destination queue.
    /// Only the head of pending_ is scheduled (plus fronts displaced by a
    /// mid-run latency decrease); the rest chain as predecessors deliver.
    bool scheduled = false;
    Packet p;
  };

  /// Keep pending_ in (due, chanseq) order — the order the canonical keys
  /// dispatch in. Dues are monotone except across a latency decrease, so
  /// the back-scan almost always terminates immediately.
  void insert_pending(InFlight&& f);
  /// Put the front entry's delivery event into the destination queue if it
  /// does not have one yet. Head chaining: scheduling one event per channel
  /// instead of one per in-flight packet keeps the destination queue depth
  /// O(channels) rather than O(BDP) — a WAN link at 2 ms holds thousands of
  /// packets — without changing dispatch order, because each event still
  /// carries its entry's own (due, canonical key).
  void schedule_front();

  void note_occupancy() {
    // In split mode the destination shard erases from pending_ while the
    // source shard runs ingress, so ingress must not read pending_.size();
    // pending_at_flush_ (written only at barriers, when shard threads are
    // parked) stands in. The metric stays a deterministic high-water mark,
    // sampled at each ingress and at each barrier.
    const std::size_t occ =
        staging_.size() + (split_ ? pending_at_flush_ : pending_.size());
    if (occ > peak_occupancy_) peak_occupancy_ = occ;
  }

  EventQueue& src_eq_;
  EventQueue& dst_eq_;
  const bool split_;  // src and dst live on different shards
  std::string name_;
  Time latency_;
  bool up_ = true;
  std::unique_ptr<LossModel> loss_;
  const std::uint16_t id_;
  std::uint64_t next_chanseq_ = 0;
  /// Written by the source shard during a window; drained at the barrier.
  std::deque<InFlight> staging_;
  /// In-flight packets in (due, chanseq) order, owned by the destination
  /// shard between barriers. Delivery is looked up by chanseq rather than
  /// popped front — a mid-run latency decrease (edge scripts) can leave a
  /// displaced ex-front with a live event behind the new head.
  std::deque<InFlight> pending_;
  /// pending_.size() snapshot taken at the last barrier flush; the only
  /// pending_ figure the source-side ingress may read (see note_occupancy).
  std::size_t pending_at_flush_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t peak_occupancy_ = 0;
};

}  // namespace uno
