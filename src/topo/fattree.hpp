// k-ary fat-tree datacenter fabric (Al-Fares et al.), as simulated in the
// paper: k pods of k/2 edge + k/2 aggregation switches, (k/2)^2 cores,
// k/2 hosts per edge switch. Every directed device-to-device adjacency is a
// `Pipe` (output-port queue + propagation link); routes are sequences of
// pipes assembled by `InterDcTopology`, one entry (the queue) per pipe.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/flow_table.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/event.hpp"
#include "topo/pathset.hpp"

namespace uno {

/// One directed port: serializing queue followed by a propagation link.
/// The queue hands served packets to the link itself, so a route names only
/// the queue.
struct Pipe {
  std::unique_ptr<Link> link;
  std::unique_ptr<Queue> queue;  // feeds `link`; declared after it, so dies first

  /// Append this pipe to a route under construction.
  void append_to(RouteScratch& r) const { r.push(queue.get()); }
};

struct FatTreeConfig {
  int k = 8;                              // arity (even)
  Bandwidth link_rate = 100 * kGbps;      // all fabric links
  Time host_link_latency = 500;           // ps units below; see interdc.cpp
  Time fabric_link_latency = 1 * kMicrosecond;
  QueueConfig queue;         // template for every fabric port
  QueueConfig uplink_queue;  // edge->agg and agg->core ports (oversubscription, QCN)
  QueueConfig nic_queue;     // host TX port: deep (software backpressure)
};

/// One datacenter's worth of switches, pipes, and hosts. Pure structure:
/// path assembly lives in InterDcTopology.
class FatTreeDC {
 public:
  /// The hosts deliver through `flows`, the topology's flow table, and the
  /// pipes keep their packets in `pool`, the DC's shard's; both must outlive
  /// the DC.
  FatTreeDC(EventQueue& eq, PacketPool& pool, int dc_id, const FatTreeConfig& cfg,
            FlowTable& flows);

  int k() const { return cfg_.k; }
  int radix() const { return cfg_.k / 2; }
  int num_hosts() const { return cfg_.k * cfg_.k * cfg_.k / 4; }
  int num_pods() const { return cfg_.k; }
  int num_cores() const { return radix() * radix(); }
  int edges_per_pod() const { return radix(); }
  int hosts_per_edge() const { return radix(); }
  int hosts_per_pod() const { return radix() * radix(); }

  // --- host-id decomposition ------------------------------------------------
  int pod_of(int host) const { return host / hosts_per_pod(); }
  int edge_of(int host) const { return (host % hosts_per_pod()) / hosts_per_edge(); }
  int port_of(int host) const { return host % hosts_per_edge(); }
  /// Global edge-switch index for a host.
  int edge_index(int host) const { return pod_of(host) * edges_per_pod() + edge_of(host); }
  /// The aggregation-group index a core belongs to (agg slot in every pod).
  int core_group(int core) const { return core / radix(); }

  Host& host(int h) { return *hosts_[h]; }
  const Host& host(int h) const { return *hosts_[h]; }

  // --- pipes (directed ports) -----------------------------------------------
  // host NIC -> its edge switch
  Pipe& host_up(int host) { return host_up_[host]; }
  // edge switch -> host (indexed by global edge, local port)
  Pipe& edge_down(int edge, int port) { return edge_down_[edge][port]; }
  Pipe& edge_down_for_host(int host) {
    return edge_down_[edge_index(host)][port_of(host)];
  }
  // edge -> aggregation (global edge, agg slot within pod)
  Pipe& edge_up(int edge, int agg) { return edge_up_[edge][agg]; }
  // aggregation -> edge (pod, agg slot, edge slot)
  Pipe& agg_down(int pod, int agg, int edge) { return agg_down_[pod * radix() + agg][edge]; }
  // aggregation -> core (pod, agg slot, core slot within the agg's group)
  Pipe& agg_up(int pod, int agg, int core_slot) { return agg_up_[pod * radix() + agg][core_slot]; }
  // core -> pod's aggregation switch in the core's group
  Pipe& core_down(int core, int pod) { return core_down_[core][pod]; }
  /// Global core index reached from (agg slot, core slot).
  int core_index(int agg, int core_slot) const { return agg * radix() + core_slot; }

  /// All queues in this DC (for stats aggregation and conservation checks).
  std::vector<Queue*> all_queues() const;
  /// Source-side uplink ports (edge->agg, agg->core): where Annulus-style
  /// near-source congestion feedback is installed.
  std::vector<Queue*> uplink_queues() const;
  std::vector<Link*> all_links() const;

 private:
  Pipe make_pipe(const std::string& name, Time latency, const QueueConfig& qcfg);

  EventQueue& eq_;
  PacketPool& pool_;
  int dc_id_;
  FatTreeConfig cfg_;
  std::uint64_t pipe_seq_ = 0;  // per-pipe RNG stream for RED sampling

  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<Pipe> host_up_;
  std::vector<std::vector<Pipe>> edge_down_;  // [edge][port]
  std::vector<std::vector<Pipe>> edge_up_;    // [edge][agg]
  std::vector<std::vector<Pipe>> agg_down_;   // [pod*radix+agg][edge]
  std::vector<std::vector<Pipe>> agg_up_;     // [pod*radix+agg][core_slot]
  std::vector<std::vector<Pipe>> core_down_;  // [core][pod]
};

}  // namespace uno
