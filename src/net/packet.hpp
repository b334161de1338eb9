// Packet representation, the per-shard packet pool, and source routing.
//
// A packet lives in its shard's `PacketPool` from its first queue to its
// destination host: queues and links hold 32-bit handles and read and mark
// the packet in place, so a hop hands over a handle, never the 88-byte body.
// Endpoints see plain values: a sender builds a `Packet` and `forward()`s it
// (its first queue puts it in the pool), and the destination `Host` hands
// its endpoint the packet by value, then frees the slot. A `Route` is a pre-computed sequence of
// `PacketSink*` — one output queue per pipe, then the destination host — in
// the style of htsim's source routing. Each queue hands what it serializes
// to its own pipe's link (net/queue.hpp), and the link passes the packet to
// the route's next entry. Data, ACK and NACK packets share one struct so
// queues and links stay type-agnostic.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace uno {

struct Packet;
class PacketPool;

/// A packet's slot in its shard's PacketPool.
using PacketHandle = std::uint32_t;

/// Anything a packet can be handed to: a queue, a link, or an endpoint.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(Packet&& p) = 0;
  /// The handle path: the packet sits in `pool` at `h`, and the sink now
  /// owns the handle. Queues and links keep it (they take handles from their
  /// own shard's pool only); every other sink receives the packet by value
  /// out of its slot and frees the slot after, which is this default.
  virtual void receive(PacketPool& pool, PacketHandle h);
  /// Human-readable name for traces and assertions.
  virtual const std::string& name() const = 0;
};

/// The hop sequence of one route. Two storage modes behind one interface:
///
///  * owning — one heap array sized exactly, filled by initializer-list or
///    copy assignment. What tests and ad-hoc route construction use.
///  * bound — a non-owning view over hop storage packed by the flyweight
///    path store (topo/pathgen.hpp), where every route of a host pair
///    shares one contiguous PacketSink* slab instead of owning a heap
///    allocation per route. Every route a simulation forwards on is bound,
///    so the list carries no inline buffer.
///
/// The hot path (`forward()` below) is identical for both: one pointer
/// indexed load.
class HopList {
 public:
  HopList() = default;
  HopList(std::initializer_list<PacketSink*> l) { assign(l.begin(), l.size()); }
  HopList& operator=(std::initializer_list<PacketSink*> l) {
    assign(l.begin(), l.size());
    return *this;
  }
  HopList(const HopList& o) { assign(o.data_, o.n_); }
  HopList& operator=(const HopList& o) {
    if (this != &o) assign(o.data_, o.n_);
    return *this;
  }
  HopList(HopList&& o) noexcept { steal(o); }
  HopList& operator=(HopList&& o) noexcept {
    if (this != &o) {
      drop();
      steal(o);
    }
    return *this;
  }
  ~HopList() { drop(); }

  /// Rebind to externally owned hop storage (flyweight mode). The storage
  /// must outlive this list; the previous owned storage is freed.
  void bind(PacketSink* const* hops, std::uint16_t n) {
    drop();
    data_ = const_cast<PacketSink**>(hops);
    n_ = n;
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  PacketSink* operator[](std::size_t i) const {
    assert(i < n_);
    return data_[i];
  }
  PacketSink* back() const {
    assert(n_ > 0);
    return data_[n_ - 1];
  }
  PacketSink* const* begin() const { return data_; }
  PacketSink* const* end() const { return data_ + n_; }

 private:
  void assign(PacketSink* const* hops, std::size_t n) {
    drop();
    if (n == 0) return;
    data_ = new PacketSink*[n];
    owning_ = true;
    n_ = static_cast<std::uint16_t>(n);
    for (std::size_t i = 0; i < n; ++i) data_[i] = hops[i];
  }

  void steal(HopList& o) {
    data_ = o.data_;
    n_ = o.n_;
    owning_ = o.owning_;
    o.data_ = nullptr;
    o.n_ = 0;
    o.owning_ = false;
  }

  /// Free owned storage and become empty.
  void drop() {
    if (owning_) delete[] data_;
    data_ = nullptr;
    n_ = 0;
    owning_ = false;
  }

  PacketSink** data_ = nullptr;
  std::uint16_t n_ = 0;
  bool owning_ = false;  // false: empty or a bound view
};

/// A unidirectional source route: the queue of every pipe the packet
/// traverses, ending at the destination host. Routes are owned by the
/// topology's path tables; packets carry a pointer to their hop array.
struct Route {
  HopList hops;
  /// Index of this route within its (src,dst) path set; used by load
  /// balancers to reason about path identity.
  std::uint16_t path_id = 0;

  std::size_t size() const { return hops.size(); }
};

enum class PacketType : std::uint8_t {
  kData = 0,
  kAck = 1,
  kNack = 2,      // EC block reassembly failed; retransmit the block
  kTrimNack = 3,  // a specific data packet was trimmed (dropped) in-network
  kQcn = 4,       // Annulus-style near-source congestion notification
};

/// Flow-scope constants shared between sender and receiver.
inline constexpr std::uint32_t kAckSize = 64;   // bytes per ACK/NACK
inline constexpr std::uint32_t kTrimSize = 64;  // header left after trimming

/// Fields are ordered by alignment (8-byte words, then 4/2/1-byte members)
/// rather than by topic: every pool slot, channel entry and endpoint copy
/// holds one, so the struct is kept free of padding holes (88 bytes instead
/// of the 112 a topic-grouped layout costs). The comment groups below still
/// mark the logical clusters.
struct Packet {
  // --- 8-byte members -------------------------------------------------------
  std::uint64_t flow_id = 0;  // identity
  std::uint64_t seq = 0;      // data: packet sequence number within the flow
  Time sent_time = 0;         // sender timestamp, echoed back in ACKs for RTT
  /// Real shard bytes when payload verification is on (see fec/payload.hpp):
  /// exactly the flow's payload_shard_bytes of them (both endpoints know the
  /// length, so the packet carries only the pointer). Owned by the sender's
  /// PayloadStore slab, which outlives every packet of the flow — including
  /// late duplicates still sitting in queues after the block completed;
  /// trimming nulls it (the payload is what trimming discards).
  const std::uint8_t* payload = nullptr;
  std::uint64_t ack_seq = 0;   // ACK: sequence number being acknowledged
  Time echo_sent_time = 0;     // ACK: sender timestamp echoed back
  /// Source routing: the route's hop array (Route::hops), which the
  /// topology's path store keeps alive while the packet can be in flight.
  PacketSink* const* hops = nullptr;

  // --- 4-byte members -------------------------------------------------------
  std::uint32_t size = 0;        // bytes on the wire
  std::int32_t src_host = -1;    // sending host (QCN feedback addressing)
  std::uint32_t block_id = 0;    // EC framing: which block the packet belongs to
  std::uint32_t nack_block = 0;  // NACK: block to retransmit

  // --- 2-byte members -------------------------------------------------------
  std::uint16_t entropy = 0;  // path index selected by the load balancer
  std::uint16_t hop = 0;      // next index into hops

  // --- 1-byte members -------------------------------------------------------
  PacketType type = PacketType::kData;
  bool retransmit = false;
  bool ecn_capable = true;
  bool ecn_ce = false;          // congestion-experienced mark (set by queues)
  bool trimmed = false;         // payload discarded by an overflowing queue
  std::uint8_t subflow = 0;     // UnoLB subflow slot this packet was sent on
  std::uint8_t shard = 0;       // EC framing: index within the block [0, n)
  bool is_parity = false;
  bool ecn_echo = false;        // ACK: CE state of the acked data packet
  std::uint8_t ack_subflow = 0; // ACK: subflow of the acked data packet
};
static_assert(sizeof(Packet) == 88, "keep every pool slot free of padding holes");
static_assert(sizeof(Route) == 24, "every route in a path-store slab is a bound view");

/// One shard's packets in flight inside the fabric. Slots sit in chunks of
/// kChunk packets that never move, so a `Packet&` stays valid while the pool
/// grows; a freed slot is the next one reused (LIFO), so the footprint
/// follows the shard's peak of live packets rather than the sum of every
/// ring's peak backlog. The first chunk is allocated by the first put(), and
/// slots are not initialized. A free slot holds the next free handle in its
/// first bytes. One thread at a time: a shard's queues and links share the
/// pool, and only the shard seam (net/channel.hpp) copies a packet out of
/// one pool into another. The pools of a run are built side by side and
/// written on every put and drop, so each gets its own pair of cache lines:
/// sharing one would bounce it between the shard threads.
class alignas(128) PacketPool {
  static_assert(std::is_trivially_copyable_v<Packet>,
                "pool slots are copied in and out and never destroyed");

 public:
  static constexpr unsigned kChunkShift = 8;
  static constexpr std::size_t kChunk = std::size_t{1} << kChunkShift;  // packets

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Store a copy of `p`; the caller owns the returned handle.
  PacketHandle put(const Packet& p) {
    PacketHandle h = free_;
    if (h != kNone) {
      std::memcpy(&free_, slot(h), sizeof free_);
    } else {
      if (used_ == chunks_.size() * kChunk) grow();
      h = static_cast<PacketHandle>(used_++);
    }
    ::new (slot(h)) Packet(p);
    if (++live_ > peak_live_) peak_live_ = live_;
    return h;
  }
  Packet& operator[](PacketHandle h) {
    return *std::launder(reinterpret_cast<Packet*>(slot(h)));
  }
  /// Free the slot: the packet is gone.
  void drop(PacketHandle h) {
    std::memcpy(slot(h), &free_, sizeof free_);
    free_ = h;
    --live_;
  }

  /// Packets stored and not yet dropped.
  std::size_t live() const { return live_; }
  std::size_t peak_live() const { return peak_live_; }
  /// Bytes held by chunks and the chunk table.
  std::size_t bytes() const {
    return chunks_.size() * kChunk * sizeof(Slot) + chunks_.capacity() * sizeof(chunks_[0]);
  }

 private:
  struct Slot {
    alignas(Packet) unsigned char bytes[sizeof(Packet)];
  };
  unsigned char* slot(PacketHandle h) const {
    return chunks_[h >> kChunkShift][h & (kChunk - 1)].bytes;
  }
  /// Add a chunk; throws std::length_error past 2^32 - 1 slots.
  void grow();

  static constexpr PacketHandle kNone = ~PacketHandle{0};
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  PacketHandle free_ = kNone;  // head of the free list
  std::size_t used_ = 0;       // slots ever handed out; the rest are fresh
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

inline void PacketSink::receive(PacketPool& pool, PacketHandle h) {
  // The slot stays live until receive() returns, so nothing the sink puts
  // in the pool meanwhile can reuse it.
  receive(std::move(pool[h]));
  pool.drop(h);
}

/// Hand the packet to its next hop. The caller must ensure the route has
/// remaining hops (endpoints never call this).
inline void forward(Packet&& p) {
  PacketSink* next = p.hops[p.hop++];
  next->receive(std::move(p));
}

/// The same for a packet in `pool`: the next hop gets the handle.
inline void forward(PacketPool& pool, PacketHandle h) {
  Packet& p = pool[h];
  PacketSink* next = p.hops[p.hop++];
  next->receive(pool, h);
}

/// Build a data packet skeleton (sender fills CC/EC fields).
Packet make_data_packet(std::uint64_t flow_id, std::uint64_t seq, std::uint32_t size);

/// Build the ACK for `data`, to be sent on `reverse` (null: the caller sets
/// the hops).
Packet make_ack_packet(const Packet& data, const Route* reverse);

/// Build a NACK requesting retransmission of `block_id`.
Packet make_nack_packet(std::uint64_t flow_id, std::uint32_t block_id, const Route* reverse);

/// Build the per-packet loss notification for a trimmed data packet.
Packet make_trim_nack_packet(const Packet& trimmed_data, const Route* reverse);

}  // namespace uno
