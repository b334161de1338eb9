#include "topo/fattree.hpp"

#include <cassert>

namespace uno {

Pipe FatTreeDC::make_pipe(const std::string& name, Time latency, const QueueConfig& qcfg) {
  Pipe p;
  p.link = std::make_unique<Link>(eq_, pool_, name + ".l", latency);
  p.queue = std::make_unique<Queue>(eq_, pool_, name + ".q", qcfg, *p.link,
                                    Rng::stream(0x51EEDULL + dc_id_, pipe_seq_++));
  return p;
}

FatTreeDC::FatTreeDC(EventQueue& eq, PacketPool& pool, int dc_id, const FatTreeConfig& cfg,
                     FlowTable& flows)
    : eq_(eq), pool_(pool), dc_id_(dc_id), cfg_(cfg) {
  assert(cfg_.k % 2 == 0 && cfg_.k >= 2);
  const int r = radix();
  const int nh = num_hosts();
  const int nedges = cfg_.k * r;  // global edge count
  const int naggs = cfg_.k * r;
  const int ncores = num_cores();
  const std::string dc = "dc" + std::to_string(dc_id_);

  hosts_.reserve(nh);
  host_up_.reserve(nh);
  for (int h = 0; h < nh; ++h) {
    hosts_.push_back(std::make_unique<Host>(h, dc + ".h" + std::to_string(h), flows));
    host_up_.push_back(make_pipe(dc + ".h" + std::to_string(h) + ".up",
                                 cfg_.host_link_latency, cfg_.nic_queue));
  }

  edge_down_.resize(nedges);
  edge_up_.resize(nedges);
  for (int e = 0; e < nedges; ++e) {
    const std::string en = dc + ".e" + std::to_string(e);
    for (int port = 0; port < r; ++port)
      edge_down_[e].push_back(
          make_pipe(en + ".down" + std::to_string(port), cfg_.host_link_latency, cfg_.queue));
    for (int a = 0; a < r; ++a)
      edge_up_[e].push_back(make_pipe(en + ".up" + std::to_string(a),
                                      cfg_.fabric_link_latency, cfg_.uplink_queue));
  }

  agg_down_.resize(naggs);
  agg_up_.resize(naggs);
  for (int pod = 0; pod < cfg_.k; ++pod) {
    for (int a = 0; a < r; ++a) {
      const int idx = pod * r + a;
      const std::string an = dc + ".p" + std::to_string(pod) + ".a" + std::to_string(a);
      for (int e = 0; e < r; ++e)
        agg_down_[idx].push_back(
            make_pipe(an + ".down" + std::to_string(e), cfg_.fabric_link_latency, cfg_.queue));
      for (int cs = 0; cs < r; ++cs)
        agg_up_[idx].push_back(make_pipe(an + ".up" + std::to_string(cs),
                                         cfg_.fabric_link_latency, cfg_.uplink_queue));
    }
  }

  core_down_.resize(ncores);
  for (int c = 0; c < ncores; ++c) {
    const std::string cn = dc + ".c" + std::to_string(c);
    for (int pod = 0; pod < cfg_.k; ++pod)
      core_down_[c].push_back(
          make_pipe(cn + ".down" + std::to_string(pod), cfg_.fabric_link_latency, cfg_.queue));
  }
}

std::vector<Queue*> FatTreeDC::all_queues() const {
  std::vector<Queue*> out;
  auto add = [&out](const std::vector<Pipe>& v) {
    for (const Pipe& p : v) out.push_back(p.queue.get());
  };
  add(host_up_);
  for (const auto& v : edge_down_) add(v);
  for (const auto& v : edge_up_) add(v);
  for (const auto& v : agg_down_) add(v);
  for (const auto& v : agg_up_) add(v);
  for (const auto& v : core_down_) add(v);
  return out;
}

std::vector<Queue*> FatTreeDC::uplink_queues() const {
  std::vector<Queue*> out;
  for (const auto& v : edge_up_)
    for (const Pipe& p : v) out.push_back(p.queue.get());
  for (const auto& v : agg_up_)
    for (const Pipe& p : v) out.push_back(p.queue.get());
  return out;
}

std::vector<Link*> FatTreeDC::all_links() const {
  std::vector<Link*> out;
  auto add = [&out](const std::vector<Pipe>& v) {
    for (const Pipe& p : v) out.push_back(p.link.get());
  };
  add(host_up_);
  for (const auto& v : edge_down_) add(v);
  for (const auto& v : edge_up_) add(v);
  for (const auto& v : agg_down_) add(v);
  for (const auto& v : agg_up_) add(v);
  for (const auto& v : core_down_) add(v);
  return out;
}

}  // namespace uno
