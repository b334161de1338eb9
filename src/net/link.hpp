// Propagation-delay pipe with failure and stochastic-loss injection.
//
// A Link models the wire only: packets entering it emerge `latency` later at
// the next hop of their route, in FIFO order. Serialization happens upstream
// in the Queue feeding the link. Links are unidirectional; a full-duplex
// cable is two Link objects. What is in flight stays in the shard's
// PacketPool; the ring holds each packet's due time and handle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/ring.hpp"
#include "net/loss.hpp"
#include "net/packet.hpp"
#include "sim/event.hpp"

namespace uno {

class Link final : public PacketSink, public EventHandler {
 public:
  /// `pool` is the shard's packet pool and must outlive the link.
  Link(EventQueue& eq, PacketPool& pool, std::string name, Time latency)
      : eq_(eq), pool_(pool), name_(std::move(name)), latency_(latency) {}

  /// Put the packet in the pool, then take the handle path.
  void receive(Packet&& p) override;
  /// `pool` must be this link's own.
  void receive(PacketPool& pool, PacketHandle h) override;
  void on_event(std::uint64_t tag) override;

  const std::string& name() const override { return name_; }
  Time latency() const { return latency_; }
  void set_latency(Time latency) { latency_ = latency; }

  /// Take the link down or back up. Going down drops everything: packets
  /// entering a down link are dropped at ingress, and packets already in
  /// flight are flushed and counted in `dropped()` — a severed wire does not
  /// deliver its tail.
  void set_up(bool up);
  bool up() const { return up_; }

  /// Attach a stochastic loss model (evaluated per packet at ingress).
  void set_loss_model(std::unique_ptr<LossModel> model) { loss_ = std::move(model); }
  /// Replace the loss model, returning the displaced one (fault injection
  /// restores the original after a transient loss spike).
  std::unique_ptr<LossModel> swap_loss_model(std::unique_ptr<LossModel> model) {
    std::swap(loss_, model);
    return model;
  }
  const LossModel* loss_model() const { return loss_.get(); }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Packets propagating now, and the pool they live in.
  std::size_t in_flight() const { return inflight_.size(); }
  const PacketPool& pool() const { return pool_; }
  /// Deliveries that rode along in another packet's event because they
  /// shared its arrival instant (see the drain loop in on_event).
  std::uint64_t coalesced_deliveries() const { return coalesced_; }
  /// Bytes held by the in-flight ring's capacity.
  std::size_t ring_bytes() const { return inflight_.capacity() * sizeof(InFlight); }

 private:
  EventQueue& eq_;
  PacketPool& pool_;
  std::string name_;
  Time latency_;
  bool up_ = true;
  std::unique_ptr<LossModel> loss_;
  struct InFlight {
    Time due = 0;
    PacketHandle handle = 0;
  };
  PodRing<InFlight> inflight_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t coalesced_ = 0;
};

}  // namespace uno
