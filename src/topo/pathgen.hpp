// Flyweight path storage: O(active pairs) compact route slabs.
//
// The eager design materialized a PathSet per *ordered* host pair — two
// vector<Route> with one heap-allocated hop vector per route, cached
// forever. At k=16 with 4 DCs (4096 hosts) an all-to-all workload would
// approach O(hosts^2) pairs x 64 routes x ~150 bytes of hop storage each:
// gigabytes of route tables for state that is pure function output.
//
// `PathStore` replaces that with three ideas:
//
//  1. One slab per pair. All routes of a host pair live in two contiguous
//     arrays (Route metadata + shared PacketSink* hop storage) — one
//     allocation pair instead of 2 + 2*paths.
//  2. Unordered-pair sharing. Route construction is a pure function of the
//     ordered pair, so PathSet(a,b).forward == PathSet(b,a).reverse route
//     for route — byte-equal by construction, not by copy. The store
//     builds each *unordered* pair once and hands out mirrored PathSet
//     views for the two directions: half the pairs, and bit-identical
//     simulation results (DESIGN.md §15).
//  3. Reference counting + time quarantine. Experiments acquire a pair per
//     spawned flow and release on completion. A pair whose refcount hits
//     zero is not freed immediately — in-flight packets (late duplicates,
//     queued ACKs) still hold Route pointers — but parked for a quarantine
//     period comfortably above the worst-case packet residency, then its
//     storage is recycled for the next pair built. Steady-state churn over
//     a bounded working set of pairs stops allocating entirely.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "topo/pathset.hpp"

namespace uno {

class PathStore {
 public:
  /// Whoever can enumerate the routes of an ordered pair (the topology).
  class Source {
   public:
    virtual ~Source() = default;
    /// Append every route for ordered (src,dst) to `out` (pre-cleared).
    virtual void generate_routes(int src, int dst,
                                 std::vector<RouteScratch>& out) = 0;
  };

  PathStore(Source& source, Time quarantine)
      : source_(source), quarantine_after_(quarantine) {}

  PathStore(const PathStore&) = delete;
  PathStore& operator=(const PathStore&) = delete;

  /// Pinned lookup: never evicted (what tests and ad-hoc callers use).
  const PathSet& get(int src, int dst);
  /// Refcounted lookup for a flow's lifetime; pair with release().
  const PathSet& acquire(int src, int dst, Time now);
  /// Drop one reference. At zero the pair enters quarantine and its slab is
  /// recycled once `now` passes released_at + quarantine.
  void release(int src, int dst, Time now);

  Time quarantine_after() const { return quarantine_after_; }

  // --- observability (topo.paths.* metrics) ---------------------------------
  std::uint64_t pairs_built() const { return pairs_built_; }
  std::uint64_t routes_built() const { return routes_built_; }
  /// Released pairs re-acquired before eviction (cache revives).
  std::uint64_t pairs_revived() const { return pairs_revived_; }
  /// Builds that recycled a retired pair's slab instead of allocating.
  std::uint64_t slabs_reused() const { return slabs_reused_; }
  std::uint64_t evictions() const { return evictions_; }
  std::size_t live_pairs() const { return cache_.size(); }
  std::size_t slab_bytes() const { return slab_bytes_; }
  std::size_t peak_slab_bytes() const { return peak_slab_bytes_; }
  /// Pending quarantine records: at most one per pair.
  std::size_t quarantine_records() const { return quarantine_.size(); }

 private:
  /// Owning storage for one pair's routes: `routes` holds both direction
  /// families back to back; every route's HopList is bound into `hops`.
  struct Slab {
    std::unique_ptr<Route[]> routes;
    std::unique_ptr<PacketSink*[]> hops;
    std::uint32_t routes_cap = 0;
    std::uint32_t hops_cap = 0;

    std::size_t bytes() const {
      return routes_cap * sizeof(Route) + hops_cap * sizeof(PacketSink*);
    }
  };

  struct Entry {
    Slab slab;
    PathSet ab;  // lo->hi view
    PathSet ba;  // hi->lo mirror
    std::uint32_t refs = 0;
    bool pinned = false;
    bool queued = false;  // has a record in quarantine_
    Time released_at = -1;
  };

  Entry& lookup(int src, int dst, Time now);
  void build(int fwd_src, int fwd_dst, Entry& e);
  void sweep(Time now);

  Source& source_;
  Time quarantine_after_;

  std::unordered_map<std::uint64_t, Entry> cache_;
  /// (time, key) records in push order, at most one per pair: a pair gets
  /// one when its refcount drops to zero and none is pending. `time` is a
  /// lower bound on the pair's latest release, which sweep() checks before
  /// evicting, so churn over a fixed set of pairs cannot grow the queue.
  std::deque<std::pair<Time, std::uint64_t>> quarantine_;
  std::vector<Slab> retired_;  // slabs awaiting reuse

  std::vector<RouteScratch> scratch_fwd_, scratch_rev_;  // reused per build

  std::uint64_t pairs_built_ = 0;
  std::uint64_t routes_built_ = 0;
  std::uint64_t pairs_revived_ = 0;
  std::uint64_t slabs_reused_ = 0;
  std::uint64_t evictions_ = 0;
  std::size_t slab_bytes_ = 0;
  std::size_t peak_slab_bytes_ = 0;
};

}  // namespace uno
