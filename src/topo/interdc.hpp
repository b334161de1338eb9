// N fat-tree datacenters joined by border switches. The paper's setup is
// the N=2 instance: "two 8-ary fat-tree datacenters ... connected through
// two border switches that are interconnected through eight links. Also,
// every core switch is connected to a border switch" (§5.1). With more DCs
// the borders form a full mesh: `cross_links` parallel links per ordered
// DC pair, each pair's WAN latency individually configurable.
//
// The topology owns all queues/links/hosts, the flow table its hosts
// deliver through, and one packet pool per shard that the shard's queues
// and links keep their packets in (net/packet.hpp); source routes are
// produced on demand by a flyweight PathStore (topo/pathgen.hpp) that packs
// each host pair's routes into one shared slab. Inter-DC path diversity
// (agg x core x cross-link x remote core) is sampled down to
// `max_paths_inter` entropies.
#pragma once

#include <memory>
#include <vector>

#include "net/channel.hpp"
#include "topo/fattree.hpp"
#include "topo/pathgen.hpp"
#include "topo/pathset.hpp"

namespace uno {

/// A border-crossing pipe: serializing queue (owned by the source DC's
/// shard) feeding a ChannelLink that spans the shard seam; the queue runs
/// the link's ingress on the source shard.
struct ChannelPipe {
  std::unique_ptr<ChannelLink> link;
  std::unique_ptr<Queue> queue;  // feeds `link`

  void append_to(RouteScratch& r) const { r.push(queue.get()); }
};

struct InterDcConfig {
  int k = 8;      // fat-tree arity per DC
  int num_dcs = 2;  // the paper's setup; >2 builds a full mesh of borders
  int cross_links = 8;  // parallel links between each pair of borders
  Bandwidth link_rate = 100 * kGbps;

  // Latencies chosen so the propagation-only base RTTs match Table 2:
  // intra cross-pod RTT = 2*(2*host + 4*fabric) = 14 us,
  // inter RTT = 2*(2*host + 6*fabric + cross) = 2 ms.
  Time host_link_latency = 500 * kNanosecond;
  Time fabric_link_latency = 1500 * kNanosecond;
  Time cross_link_latency = 990 * kMicrosecond;
  /// Optional per-pair WAN latency override, row-major num_dcs x num_dcs;
  /// entries <= 0 (and a missing/odd-sized matrix) fall back to
  /// cross_link_latency. The diagonal is ignored.
  std::vector<Time> cross_latency_matrix;

  QueueConfig queue;         // intra-DC ports
  QueueConfig uplink_queue;  // edge->agg / agg->core ports
  QueueConfig border_queue;  // WAN-facing ports (core<->border, cross links)
  QueueConfig nic_queue;     // host TX buffer: deep, software-backpressured

  int max_paths_intra = 16;
  int max_paths_inter = 32;
  std::uint64_t seed = 42;

  /// How long a fully released pair's routes stay valid before their slab
  /// may be recycled. Must exceed the worst-case residency of a packet
  /// referencing the route — a full NIC queue at line rate drains in ~21 ms
  /// (256 MiB at 100 Gbps), so the default has a >2x margin on top of every
  /// propagation delay that follows.
  Time path_quarantine = 50 * kMillisecond;

  /// Cross-link latency that yields a given inter-DC base RTT with the
  /// current host/fabric latencies.
  Time cross_latency_for_rtt(Time inter_rtt) const {
    return inter_rtt / 2 - (2 * host_link_latency + 6 * fabric_link_latency);
  }
  /// WAN latency of the (a,b) cross links: the matrix entry when one is
  /// configured, the scalar default otherwise.
  Time cross_latency_between(int a, int b) const {
    const std::size_t n = static_cast<std::size_t>(num_dcs);
    if (cross_latency_matrix.size() == n * n) {
      const Time t = cross_latency_matrix[static_cast<std::size_t>(a) * n + b];
      if (t > 0) return t;
    }
    return cross_link_latency;
  }
  /// Propagation-only base RTTs implied by the latency settings.
  Time intra_base_rtt() const { return 2 * (2 * host_link_latency + 4 * fabric_link_latency); }
  Time inter_base_rtt() const {
    return 2 * (2 * host_link_latency + 6 * fabric_link_latency + cross_link_latency);
  }
  Time inter_base_rtt_between(int a, int b) const {
    return 2 * (2 * host_link_latency + 6 * fabric_link_latency + cross_latency_between(a, b));
  }
};

class InterDcTopology : public PathStore::Source {
 public:
  InterDcTopology(EventQueue& eq, const InterDcConfig& cfg);

  /// Sharded form: one queue per DC (partition atoms are whole DCs, each
  /// including its border tier — the seam is exactly the cross links, which
  /// become ChannelLinks between the two queues). A single-element vector is
  /// the monolithic layout; sizes other than 1 or num_dcs are rejected.
  InterDcTopology(const std::vector<EventQueue*>& shard_eqs, const InterDcConfig& cfg);

  const InterDcConfig& config() const { return cfg_; }

  int num_dcs() const { return cfg_.num_dcs; }
  int hosts_per_dc() const { return dcs_[0]->num_hosts(); }
  int num_hosts() const { return hosts_per_dc() * num_dcs(); }
  int dc_of(int host) const { return host / hosts_per_dc(); }
  int local_id(int host) const { return host % hosts_per_dc(); }
  bool is_interdc(int src, int dst) const { return dc_of(src) != dc_of(dst); }

  Host& host(int h) { return dcs_[dc_of(h)]->host(local_id(h)); }
  FatTreeDC& dc(int d) { return *dcs_[d]; }

  /// Path set for an ordered pair of distinct hosts, pinned for the
  /// topology's lifetime (tests and ad-hoc callers). Flow churn should use
  /// the acquire/release pair so idle pairs can be evicted.
  const PathSet& paths(int src, int dst) { return path_store_.get(src, dst); }
  /// Refcounted path set for one flow's lifetime; balance with
  /// release_paths() when the flow completes.
  const PathSet& acquire_paths(int src, int dst, Time now) {
    return path_store_.acquire(src, dst, now);
  }
  void release_paths(int src, int dst, Time now) {
    path_store_.release(src, dst, now);
  }
  PathStore& path_store() { return path_store_; }
  const PathStore& path_store() const { return path_store_; }
  /// The flow endpoints every host delivers through.
  const FlowTable& flow_table() const { return flows_; }

  /// PathStore::Source — enumerate the routes of an ordered pair directly
  /// into caller scratch, bypassing the store (route-equivalence tests).
  void generate_routes(int src, int dst, std::vector<RouteScratch>& out) override;

  /// The edge->host port feeding `host` (the incast bottleneck in Figs 3/4/8).
  Queue& host_ingress_queue(int host) {
    return *dcs_[dc_of(host)]->edge_down_for_host(local_id(host)).queue;
  }
  Queue& host_egress_queue(int host) {
    return *dcs_[dc_of(host)]->host_up(local_id(host)).queue;
  }

  /// Directed cross-DC link j from DC `dc` toward DC `peer` (failure
  /// injection, Fig 13A). The two-argument form assumes the paper's two-DC
  /// setup and targets the other datacenter. Cross links are ChannelLinks —
  /// shard-seam endpoints with a Link-compatible control surface.
  ChannelLink& cross_link(int dc, int peer, int j) { return *cross_pipe(dc, peer, j).link; }
  Queue& cross_queue(int dc, int peer, int j) { return *cross_pipe(dc, peer, j).queue; }
  ChannelLink& cross_link(int dc, int j) { return cross_link(dc, dc == 0 ? 1 : 0, j); }
  Queue& cross_queue(int dc, int j) { return cross_queue(dc, dc == 0 ? 1 : 0, j); }
  int cross_link_count() const { return cfg_.cross_links; }

  /// WAN-facing links from DC `dc` core `c` toward the border (and back).
  Link& core_border_link(int dc, int c) { return *core_border_[dc][c].link; }
  Link& border_core_link(int dc, int c) { return *border_core_[dc][c].link; }

  std::vector<Queue*> all_queues() const;
  /// Every queue living in DC `d`'s partition atom (fabric + border pipes +
  /// the DC's outbound cross-link serializers), in deterministic build order.
  /// Used to register per-shard trace components: atoms own disjoint queue
  /// sets whose union is all_queues().
  std::vector<Queue*> atom_queues(int d) const;
  /// Source-side ports of DC `dc` (uplinks + core->border): the QCN scope.
  std::vector<Queue*> source_side_queues(int dc) const;
  std::vector<Link*> all_links() const;
  /// Every cross-DC ChannelLink, in deterministic build order.
  std::vector<ChannelLink*> all_channels() const;
  /// The packet pools, one per shard, in shard order.
  std::vector<const PacketPool*> packet_pools() const;

  /// Total packets dropped anywhere in the fabric (conservation checks).
  std::uint64_t total_drops() const;
  /// Total packets trimmed to headers anywhere in the fabric.
  std::uint64_t total_trims() const;

 private:
  Pipe make_border_pipe(int dc, const std::string& name, Time latency);
  ChannelPipe make_channel_pipe(int src_dc, int dst_dc, const std::string& name,
                                Time latency);

  /// The shard queue owning DC `d`'s components (the single shared queue in
  /// a monolithic build).
  EventQueue& atom_eq(int d) const {
    return *atom_eqs_[atom_eqs_.size() == 1 ? 0 : static_cast<std::size_t>(d)];
  }
  /// The packet pool of DC `d`'s shard: atoms sharing a queue share a pool.
  PacketPool& atom_pool(int d) const {
    return *atom_pools_[atom_pools_.size() == 1 ? 0 : static_cast<std::size_t>(d)];
  }

  std::vector<EventQueue*> atom_eqs_;
  InterDcConfig cfg_;
  /// What every host delivers through; one per topology, never shared.
  FlowTable flows_;
  /// One pool per distinct atom queue, in shard order; declared before every
  /// pipe, so it outlives them.
  std::vector<std::unique_ptr<PacketPool>> pools_;
  std::vector<PacketPool*> atom_pools_;  // parallel to atom_eqs_
  std::uint64_t pipe_seq_ = 1000000;  // distinct RNG streams from fat-tree pipes
  std::uint16_t next_channel_id_ = 0;

  ChannelPipe& cross_pipe(int dc, int peer, int j) {
    return border_cross_[dc][static_cast<std::size_t>(peer) * cfg_.cross_links + j];
  }

  std::vector<std::unique_ptr<FatTreeDC>> dcs_;
  // WAN plumbing, indexed by [dc][...]:
  std::vector<std::vector<Pipe>> core_border_;  // core c -> own border
  // own border -> border of DC `peer`, link j, laid out peer-major with
  // empty pipes on the diagonal (no self links).
  std::vector<std::vector<ChannelPipe>> border_cross_;
  std::vector<std::vector<Pipe>> border_core_;  // own border -> core c (arrivals side)

  PathStore path_store_;
};

}  // namespace uno
