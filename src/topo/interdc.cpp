#include "topo/interdc.hpp"

#include <algorithm>
#include <cassert>

namespace uno {

Pipe InterDcTopology::make_border_pipe(int dc, const std::string& name, Time latency) {
  Pipe p;
  p.link = std::make_unique<Link>(atom_eq(dc), atom_pool(dc), name + ".l", latency);
  p.queue = std::make_unique<Queue>(atom_eq(dc), atom_pool(dc), name + ".q", cfg_.border_queue,
                                    *p.link, Rng::stream(0xB0DE5ULL, pipe_seq_++));
  return p;
}

ChannelPipe InterDcTopology::make_channel_pipe(int src_dc, int dst_dc,
                                               const std::string& name,
                                               Time latency) {
  // The serializing queue belongs to the source DC's shard and feeds the
  // ChannelLink's ingress there; the link spans the seam. pipe_seq_ advances
  // exactly as make_border_pipe's would, so queue RNG streams are unchanged
  // by the pipe kind.
  ChannelPipe p;
  p.link = std::make_unique<ChannelLink>(atom_eq(src_dc), atom_eq(dst_dc),
                                         name + ".l", latency, next_channel_id_++);
  p.queue = std::make_unique<Queue>(atom_eq(src_dc), atom_pool(src_dc), name + ".q",
                                    cfg_.border_queue, *p.link,
                                    Rng::stream(0xB0DE5ULL, pipe_seq_++));
  return p;
}

InterDcTopology::InterDcTopology(EventQueue& eq, const InterDcConfig& cfg)
    : InterDcTopology(std::vector<EventQueue*>{&eq}, cfg) {}

InterDcTopology::InterDcTopology(const std::vector<EventQueue*>& shard_eqs,
                                 const InterDcConfig& cfg)
    : atom_eqs_(shard_eqs), cfg_(cfg),
      path_store_(*this, cfg.path_quarantine) {
  assert(cfg_.num_dcs >= 2);
  assert(atom_eqs_.size() == 1 ||
         atom_eqs_.size() == static_cast<std::size_t>(cfg_.num_dcs));
  FatTreeConfig ft;
  ft.k = cfg_.k;
  ft.link_rate = cfg_.link_rate;
  ft.host_link_latency = cfg_.host_link_latency;
  ft.fabric_link_latency = cfg_.fabric_link_latency;
  ft.queue = cfg_.queue;
  ft.uplink_queue = cfg_.uplink_queue;
  ft.nic_queue = cfg_.nic_queue;
  for (std::size_t a = 0; a < atom_eqs_.size(); ++a) {
    const std::size_t first =
        std::find(atom_eqs_.begin(), atom_eqs_.end(), atom_eqs_[a]) - atom_eqs_.begin();
    if (first == a) pools_.push_back(std::make_unique<PacketPool>());
    atom_pools_.push_back(first == a ? pools_.back().get() : atom_pools_[first]);
  }
  for (int d = 0; d < cfg_.num_dcs; ++d)
    dcs_.push_back(std::make_unique<FatTreeDC>(atom_eq(d), atom_pool(d), d, ft, flows_));

  core_border_.resize(cfg_.num_dcs);
  border_cross_.resize(cfg_.num_dcs);
  border_core_.resize(cfg_.num_dcs);
  const int ncores = dcs_[0]->num_cores();
  for (int d = 0; d < cfg_.num_dcs; ++d) {
    const std::string b = "dc" + std::to_string(d) + ".border";
    for (int c = 0; c < ncores; ++c) {
      core_border_[d].push_back(
          make_border_pipe(d, b + ".from_core" + std::to_string(c), cfg_.fabric_link_latency));
      border_core_[d].push_back(
          make_border_pipe(d, b + ".to_core" + std::to_string(c), cfg_.fabric_link_latency));
    }
    for (int peer = 0; peer < cfg_.num_dcs; ++peer) {
      for (int j = 0; j < cfg_.cross_links; ++j) {
        if (peer == d) {
          border_cross_[d].emplace_back();  // diagonal: no self links
        } else {
          border_cross_[d].push_back(make_channel_pipe(
              d, peer,
              b + ".cross" + std::to_string(peer) + "." + std::to_string(j),
              cfg_.cross_latency_between(d, peer)));
        }
      }
    }
  }
}

// Route enumeration is a pure function of the ordered pair: the hop
// sequences depend only on (src,dst) and the construction-time RNG stream
// keyed by path_key(src,dst). The PathStore leans on this purity for its
// flyweight sharing — (a,b).forward and (b,a).reverse come from the same
// generate_routes(a,b) call, so they are identical by construction.
void InterDcTopology::generate_routes(int src, int dst,
                                      std::vector<RouteScratch>& out) {
  assert(src != dst);
  const int sd = dc_of(src), dd = dc_of(dst);
  const int s = local_id(src), t = local_id(dst);
  FatTreeDC& S = *dcs_[sd];
  FatTreeDC& D = *dcs_[dd];
  const int r = S.radix();

  auto finish = [&](RouteScratch& route) {
    route.push(&D.host(t));
    out.push_back(route);
  };

  if (sd == dd) {
    const int es = S.edge_index(s), et = S.edge_index(t);
    if (es == et) {
      RouteScratch route;
      S.host_up(s).append_to(route);
      S.edge_down(et, S.port_of(t)).append_to(route);
      finish(route);
      return;
    }
    if (S.pod_of(s) == S.pod_of(t)) {
      // One path per aggregation switch in the pod.
      for (int a = 0; a < r && static_cast<int>(out.size()) < cfg_.max_paths_intra; ++a) {
        RouteScratch route;
        S.host_up(s).append_to(route);
        S.edge_up(es, a).append_to(route);
        S.agg_down(S.pod_of(t), a, S.edge_of(t)).append_to(route);
        S.edge_down(et, S.port_of(t)).append_to(route);
        finish(route);
      }
      return;
    }
    // Cross-pod: one path per (agg slot, core slot).
    for (int a = 0; a < r; ++a) {
      for (int cs = 0; cs < r; ++cs) {
        if (static_cast<int>(out.size()) >= cfg_.max_paths_intra) return;
        const int core = S.core_index(a, cs);
        RouteScratch route;
        S.host_up(s).append_to(route);
        S.edge_up(es, a).append_to(route);
        S.agg_up(S.pod_of(s), a, cs).append_to(route);
        S.core_down(core, S.pod_of(t)).append_to(route);
        S.agg_down(S.pod_of(t), S.core_group(core), S.edge_of(t)).append_to(route);
        S.edge_down(et, S.port_of(t)).append_to(route);
        finish(route);
      }
    }
    return;
  }

  // Inter-DC: sample (agg, core, cross link, remote core) combinations
  // deterministically per (src,dst). The cross link is cycled so the first
  // cfg_.cross_links entropies cover all WAN links — UnoLB relies on the
  // entropy set spanning distinct border links.
  Rng rng = Rng::stream(cfg_.seed, path_key(src, dst));
  const int es = S.edge_index(s), et = D.edge_index(t);
  const int ncores = S.num_cores();
  for (int i = 0; i < cfg_.max_paths_inter; ++i) {
    const int a = static_cast<int>(rng.uniform_below(r));
    const int cs = static_cast<int>(rng.uniform_below(r));
    const int j = i % cfg_.cross_links;
    const int c2 = static_cast<int>(rng.uniform_below(ncores));
    const int core = S.core_index(a, cs);
    RouteScratch route;
    S.host_up(s).append_to(route);
    S.edge_up(es, a).append_to(route);
    S.agg_up(S.pod_of(s), a, cs).append_to(route);
    core_border_[sd][core].append_to(route);
    cross_pipe(sd, dd, j).append_to(route);
    border_core_[dd][c2].append_to(route);
    D.core_down(c2, D.pod_of(t)).append_to(route);
    D.agg_down(D.pod_of(t), D.core_group(c2), D.edge_of(t)).append_to(route);
    D.edge_down(et, D.port_of(t)).append_to(route);
    finish(route);
  }
}

std::vector<Queue*> InterDcTopology::all_queues() const {
  std::vector<Queue*> out;
  for (const auto& dc : dcs_) {
    auto q = dc->all_queues();
    out.insert(out.end(), q.begin(), q.end());
  }
  for (const auto& side : {&core_border_, &border_core_})
    for (const auto& per_dc : *side)
      for (const Pipe& p : per_dc)
        if (p.queue) out.push_back(p.queue.get());
  for (const auto& per_dc : border_cross_)
    for (const ChannelPipe& p : per_dc)
      if (p.queue) out.push_back(p.queue.get());
  return out;
}

std::vector<Queue*> InterDcTopology::atom_queues(int d) const {
  std::vector<Queue*> out = dcs_[d]->all_queues();
  for (const auto* side : {&core_border_, &border_core_})
    for (const Pipe& p : (*side)[d])
      if (p.queue) out.push_back(p.queue.get());
  for (const ChannelPipe& p : border_cross_[d])
    if (p.queue) out.push_back(p.queue.get());
  return out;
}

std::vector<Queue*> InterDcTopology::source_side_queues(int dc) const {
  std::vector<Queue*> out = dcs_[dc]->uplink_queues();
  for (const Pipe& p : core_border_[dc]) out.push_back(p.queue.get());
  return out;
}

std::vector<Link*> InterDcTopology::all_links() const {
  std::vector<Link*> out;
  for (const auto& dc : dcs_) {
    auto l = dc->all_links();
    out.insert(out.end(), l.begin(), l.end());
  }
  for (const auto& side : {&core_border_, &border_core_})
    for (const auto& per_dc : *side)
      for (const Pipe& p : per_dc)
        if (p.link) out.push_back(p.link.get());
  return out;
}

std::vector<ChannelLink*> InterDcTopology::all_channels() const {
  std::vector<ChannelLink*> out;
  for (const auto& per_dc : border_cross_)
    for (const ChannelPipe& p : per_dc)
      if (p.link) out.push_back(p.link.get());
  return out;
}

std::vector<const PacketPool*> InterDcTopology::packet_pools() const {
  std::vector<const PacketPool*> out;
  for (const auto& p : pools_) out.push_back(p.get());
  return out;
}

std::uint64_t InterDcTopology::total_drops() const {
  std::uint64_t drops = 0;
  for (const Queue* q : all_queues()) drops += q->drops();
  for (const Link* l : all_links()) drops += l->dropped();
  for (const ChannelLink* c : all_channels()) drops += c->dropped();
  return drops;
}

std::uint64_t InterDcTopology::total_trims() const {
  std::uint64_t trims = 0;
  for (const Queue* q : all_queues()) trims += q->trims();
  return trims;
}

}  // namespace uno
