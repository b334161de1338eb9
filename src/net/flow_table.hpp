// One table of flow endpoints per topology, indexed by flow id.
//
// Every route ends at a `Host` (net/host.hpp), which hands the packet to the
// endpoint this table names for its flow: data to the receiver, every other
// type (ACK, NACK, trim-NACK, QCN) to the sender. For every route the
// topology builds, that is the endpoint the packet is addressed to.
//
// Experiment ids are dense (1..N), so a vector is the whole structure: 16 B
// per flow; ids picked by hand grow it that far. It grows only where flows
// are built, on the main thread before a run or between sharded windows;
// shard threads only read it, inside windows.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace uno {

class FlowTable {
 public:
  /// Register (or re-register) flow `id`'s endpoints.
  void add(std::uint64_t id, PacketSink* sender, PacketSink* receiver) {
    if (id >= entries_.size()) entries_.resize(id + 1);
    entries_[id] = {sender, receiver};
  }

  /// Forget flow `id`: its late packets become strays at whichever host
  /// they reach.
  void remove(std::uint64_t id) {
    if (id < entries_.size()) entries_[id] = {};
  }

  /// The endpoint `p` is addressed to, or null when its flow is unknown or
  /// removed.
  PacketSink* endpoint(const Packet& p) const {
    if (p.flow_id >= entries_.size()) return nullptr;
    const Entry& e = entries_[p.flow_id];
    return p.type == PacketType::kData ? e.receiver : e.sender;
  }

 private:
  /// The two endpoints of one flow; both null once the flow is removed.
  struct Entry {
    PacketSink* sender = nullptr;
    PacketSink* receiver = nullptr;
  };
  std::vector<Entry> entries_;
};

}  // namespace uno
