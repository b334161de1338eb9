// One table of flow endpoints per topology, indexed by flow id.
//
// Every route ends at a `Host` (net/host.hpp), which hands the packet to the
// endpoint this table names for its flow: data to the receiver, every other
// type (ACK, NACK, trim-NACK, QCN) to the sender. For every route the
// topology builds, that is the endpoint the packet is addressed to.
//
// Experiment ids are dense (1..N) and a flow is removed when its record
// retires, so the table keeps 16 B per id from the oldest flow still
// registered to the newest (core/id_window.hpp), not per flow ever added.
// Ids picked by hand widen the window that far. It changes only where flows
// are built and destroyed, on the main thread before a run or between
// sharded windows; shard threads only read it, inside windows.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/id_window.hpp"
#include "net/packet.hpp"

namespace uno {

class FlowTable {
 public:
  /// Register (or re-register) flow `id`'s endpoints.
  void add(std::uint64_t id, PacketSink* sender, PacketSink* receiver) {
    entries_.at(id) = {sender, receiver};
  }

  /// Forget flow `id`: its late packets become strays at whichever host
  /// they reach.
  void remove(std::uint64_t id) {
    if (Entry* e = entries_.find(id)) *e = {};
    entries_.trim_front(
        [](const Entry& e) { return e.sender == nullptr && e.receiver == nullptr; });
  }

  /// The endpoint `p` is addressed to, or null when its flow is unknown or
  /// removed.
  PacketSink* endpoint(const Packet& p) const {
    const Entry* e = entries_.find(p.flow_id);
    if (e == nullptr) return nullptr;
    return p.type == PacketType::kData ? e->receiver : e->sender;
  }

  /// Ids the table spans, and the capacity it holds in bytes.
  std::size_t window() const { return entries_.size(); }
  std::size_t bytes() const { return entries_.bytes(); }

 private:
  /// The two endpoints of one flow; both null once the flow is removed.
  struct Entry {
    PacketSink* sender = nullptr;
    PacketSink* receiver = nullptr;
  };
  IdWindow<Entry> entries_;
};

}  // namespace uno
