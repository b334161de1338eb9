// Path sets: the bundle of source routes between one ordered host pair.
//
// `forward[i]` and `reverse[i]` are paired: a flow that sends data on
// entropy i returns its ACKs on reverse[i], so control traffic experiences
// the same multipath diversity as data.
//
// A PathSet is a *view*: the Route storage lives in the topology's path
// store (topo/pathgen.hpp), which packs all routes of a host pair into one
// compact slab and — in flyweight mode — shares that slab between the
// (a,b) and (b,a) ordered pairs, since route construction is a pure
// function of the ordered pair: (a,b).forward and (b,a).reverse are the
// same route family by construction.
#pragma once

#include <cassert>
#include <cstdint>

#include "net/packet.hpp"

namespace uno {

/// A read-only run of routes inside the path store's per-pair slab.
struct RouteSpan {
  const Route* data = nullptr;
  std::uint16_t n = 0;

  std::size_t size() const { return n; }
  bool empty() const { return n == 0; }
  const Route& operator[](std::size_t i) const {
    assert(i < n);
    return data[i];
  }
  const Route* begin() const { return data; }
  const Route* end() const { return data + n; }
};

struct PathSet {
  RouteSpan forward;
  RouteSpan reverse;

  std::size_t size() const { return forward.size(); }
  bool empty() const { return forward.empty(); }
};

/// One route under construction: fixed-capacity scratch the topology's
/// route builders fill hop by hop, committed into per-pair slab storage by
/// the path store. Capacity covers the deepest route shape — an inter-DC
/// path is 9 pipes (one queue each) plus the destination host — independent
/// of fabric arity or DC count.
struct RouteScratch {
  static constexpr int kMaxHops = 10;

  PacketSink* hops[kMaxHops];
  int n = 0;

  void push(PacketSink* s) {
    assert(n < kMaxHops);
    hops[n++] = s;
  }
};

/// Key for an ordered (src,dst) pair.
constexpr std::uint64_t path_key(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

/// Key for the unordered pair {a,b} — what the flyweight store caches on,
/// so both directions of a conversation share one route slab.
constexpr std::uint64_t unordered_path_key(int a, int b) {
  return a < b ? path_key(a, b) : path_key(b, a);
}

}  // namespace uno
