#include "net/packet.hpp"

#include <stdexcept>

namespace uno {

void PacketPool::grow() {
  // Handles are 32-bit and kNone marks the end of the free list.
  if ((chunks_.size() + 1) * kChunk > kNone)
    throw std::length_error("PacketPool: more than 2^32 - 1 packets");
  // new Slot[] of a trivial type default-initializes: no zero-fill.
  chunks_.push_back(std::unique_ptr<Slot[]>(new Slot[kChunk]));
}

namespace {
PacketSink* const* hops_of(const Route* r) { return r != nullptr ? r->hops.begin() : nullptr; }
}  // namespace

Packet make_data_packet(std::uint64_t flow_id, std::uint64_t seq, std::uint32_t size) {
  Packet p;
  p.flow_id = flow_id;
  p.seq = seq;
  p.size = size;
  p.type = PacketType::kData;
  return p;
}

Packet make_ack_packet(const Packet& data, const Route* reverse) {
  Packet a;
  a.flow_id = data.flow_id;
  a.type = PacketType::kAck;
  a.size = kAckSize;
  a.ecn_capable = false;  // control packets are not ECN-markable
  a.ack_seq = data.seq;
  a.ecn_echo = data.ecn_ce;
  a.echo_sent_time = data.sent_time;
  a.ack_subflow = data.subflow;
  a.entropy = data.entropy;  // lets the sender attribute feedback to a path
  a.block_id = data.block_id;
  a.shard = data.shard;
  a.hops = hops_of(reverse);
  a.hop = 0;
  return a;
}

Packet make_trim_nack_packet(const Packet& trimmed_data, const Route* reverse) {
  Packet n;
  n.flow_id = trimmed_data.flow_id;
  n.type = PacketType::kTrimNack;
  n.size = kAckSize;
  n.ecn_capable = false;
  n.ack_seq = trimmed_data.seq;
  n.echo_sent_time = trimmed_data.sent_time;
  n.entropy = trimmed_data.entropy;
  n.hops = hops_of(reverse);
  n.hop = 0;
  return n;
}

Packet make_nack_packet(std::uint64_t flow_id, std::uint32_t block_id, const Route* reverse) {
  Packet n;
  n.flow_id = flow_id;
  n.type = PacketType::kNack;
  n.size = kAckSize;
  n.ecn_capable = false;
  n.nack_block = block_id;
  n.hops = hops_of(reverse);
  n.hop = 0;
  return n;
}

}  // namespace uno
