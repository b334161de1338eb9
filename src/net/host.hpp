// Host-side packet demultiplexer.
//
// Every cached route terminates at the destination host's `Host` sink, which
// hands the packet to the flow endpoint its topology's FlowTable names for
// the packet's flow (net/flow_table.hpp). This keeps routes flow-agnostic
// and shareable. The host is where a packet leaves its shard's PacketPool:
// PacketSink's default handle path hands the endpoint the packet by value
// and frees its slot once the endpoint returns, a stray's too.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "net/flow_table.hpp"
#include "net/packet.hpp"

namespace uno {

class Host final : public PacketSink {
 public:
  /// `flows` is the topology's table and must outlive the host.
  Host(int id, std::string name, FlowTable& flows)
      : id_(id), name_(std::move(name)), flows_(&flows) {}

  int id() const { return id_; }
  const std::string& name() const override { return name_; }
  /// The table this host delivers through; a Flow adds its endpoints here.
  FlowTable& flow_table() const { return *flows_; }

  void receive(Packet&& p) override {
    if (PacketSink* endpoint = flows_->endpoint(p)) return endpoint->receive(std::move(p));
    ++stray_;  // flow already torn down; late packets are dropped silently
  }

  std::uint64_t stray_packets() const { return stray_; }

 private:
  int id_;
  std::string name_;
  FlowTable* flows_;
  std::uint64_t stray_ = 0;
};

}  // namespace uno
