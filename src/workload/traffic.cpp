#include "workload/traffic.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>

namespace uno {

std::vector<FlowSpec> make_incast(const HostSpace& hosts, int receiver, int intra_senders,
                                  int inter_senders, std::uint64_t flow_bytes, Time start) {
  std::vector<FlowSpec> specs;
  const int rdc = hosts.dc_of(receiver);
  // Deterministic sender placement: walk host ids, skipping the receiver.
  int placed = 0;
  for (int i = 0; placed < intra_senders; ++i) {
    const int h = rdc * hosts.hosts_per_dc + (i % hosts.hosts_per_dc);
    if (h == receiver) continue;
    specs.push_back({h, receiver, flow_bytes, start, false});
    ++placed;
  }
  // Remote senders round-robin over every other DC (reduces to "the other
  // DC" at num_dcs == 2, which the 2-DC goldens pin down).
  assert(inter_senders == 0 || hosts.num_dcs >= 2);
  const int other_dcs = std::max(hosts.num_dcs - 1, 1);
  for (int i = 0; i < inter_senders; ++i) {
    const int dc = (rdc + 1 + i % other_dcs) % hosts.num_dcs;
    const int h = dc * hosts.hosts_per_dc + ((i / other_dcs) % hosts.hosts_per_dc);
    specs.push_back({h, receiver, flow_bytes, start, true});
  }
  return specs;
}

std::vector<FlowSpec> make_permutation(const HostSpace& hosts, std::uint64_t flow_bytes,
                                       std::uint64_t seed, Time start) {
  const int n = hosts.total();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng = Rng::stream(seed, 0xBE12);
  // Fisher-Yates, then fix any fixed points by swapping with a neighbour.
  for (int i = n - 1; i > 0; --i)
    std::swap(perm[i], perm[rng.uniform_below(static_cast<std::uint64_t>(i) + 1)]);
  for (int i = 0; i < n; ++i)
    if (perm[i] == i) std::swap(perm[i], perm[(i + 1) % n]);

  std::vector<FlowSpec> specs;
  specs.reserve(n);
  for (int i = 0; i < n; ++i)
    specs.push_back(
        {i, perm[i], flow_bytes, start, hosts.dc_of(i) != hosts.dc_of(perm[i])});
  return specs;
}

namespace {

int poisson_pool(const HostSpace& hosts, const PoissonConfig& cfg) {
  return cfg.active_hosts > 0 ? std::min(cfg.active_hosts, hosts.total()) : hosts.total();
}

/// Offered load of a Poisson mix in bytes per second.
double poisson_Bps(const HostSpace& hosts, const PoissonConfig& cfg) {
  return cfg.load * static_cast<double>(poisson_pool(hosts, cfg)) *
         static_cast<double>(cfg.host_rate) / 8.0;
}

double intra_share(const PoissonConfig& cfg) {
  return cfg.dc_wan_ratio / (cfg.dc_wan_ratio + 1.0);
}

}  // namespace

PoissonArrivals::PoissonArrivals(const HostSpace& hosts, const EmpiricalCdf& sizes,
                                 const PoissonConfig& cfg, bool cross_dc)
    : hosts_(hosts), sizes_(sizes), duration_(cfg.duration), cross_dc_(cross_dc),
      per_dc_(poisson_pool(hosts, cfg) / hosts.num_dcs), mean_gap_ps_(0),
      rng_(Rng::stream(cfg.seed, cross_dc ? 202 : 101)) {
  // Arrivals at the class's share of the offered bytes, uniform random
  // (src, dst) pairs over [0, duration).
  const double share = cross_dc ? 1.0 - intra_share(cfg) : intra_share(cfg);
  assert(sizes_.mean() > 0);
  const double flows_per_sec = poisson_Bps(hosts, cfg) * share / sizes_.mean();
  if (flows_per_sec <= 0) return;  // no load: no arrival, and no draw
  mean_gap_ps_ = static_cast<double>(kSecond) / flows_per_sec;
  t_ = rng_.exponential(mean_gap_ps_);
}

bool PoissonArrivals::next(FlowSpec* out) {
  if (mean_gap_ps_ == 0 || t_ >= static_cast<double>(duration_)) return false;
  // Active hosts are the first `per_dc_` hosts of each DC. Cross-DC
  // destinations draw uniformly over the other DCs; the num_dcs == 2 case
  // takes the branchless path so it consumes the exact RNG stream the 2-DC
  // goldens were minted against (uniform_below burns a draw even for n==1).
  const int sdc = static_cast<int>(rng_.uniform_below(hosts_.num_dcs));
  const int ddc =
      cross_dc_ ? (sdc + 1 +
                   (hosts_.num_dcs > 2
                        ? static_cast<int>(rng_.uniform_below(hosts_.num_dcs - 1))
                        : 0)) %
                      hosts_.num_dcs
                : sdc;
  const int src = sdc * hosts_.hosts_per_dc + static_cast<int>(rng_.uniform_below(per_dc_));
  int dst = ddc * hosts_.hosts_per_dc + static_cast<int>(rng_.uniform_below(per_dc_));
  while (dst == src)
    dst = ddc * hosts_.hosts_per_dc + static_cast<int>(rng_.uniform_below(per_dc_));
  const auto size = static_cast<std::uint64_t>(std::max(1.0, sizes_.sample(rng_)));
  *out = {src, dst, size, static_cast<Time>(t_), cross_dc_};
  t_ += rng_.exponential(mean_gap_ps_);
  return true;
}

PoissonMix::PoissonMix(const HostSpace& hosts, const EmpiricalCdf& intra_sizes,
                       const EmpiricalCdf& inter_sizes, const PoissonConfig& cfg)
    : intra_{PoissonArrivals(hosts, intra_sizes, cfg, false), {}, false},
      inter_{PoissonArrivals(hosts, inter_sizes, cfg, true), {}, false} {
  intra_.more = intra_.arrivals.next(&intra_.ahead);
  inter_.more = inter_.arrivals.next(&inter_.ahead);
}

bool PoissonMix::take(Class& c, FlowSpec* out) {
  *out = c.ahead;
  c.more = c.arrivals.next(&c.ahead);
  return true;
}

bool PoissonMix::next(FlowSpec* out) {
  if (intra_.more && (!inter_.more || intra_.ahead.start_time <= inter_.ahead.start_time))
    return take(intra_, out);
  return inter_.more && take(inter_, out);
}

double poisson_mean_gap_ps(const HostSpace& hosts, const EmpiricalCdf& intra_sizes,
                           const EmpiricalCdf& inter_sizes, const PoissonConfig& cfg) {
  const double share = intra_share(cfg);
  const double flows_per_sec = poisson_Bps(hosts, cfg) * (share / intra_sizes.mean() +
                                                          (1.0 - share) / inter_sizes.mean());
  return static_cast<double>(kSecond) / flows_per_sec;
}

std::vector<FlowSpec> make_poisson_mixed(const HostSpace& hosts, const EmpiricalCdf& intra_sizes,
                                         const EmpiricalCdf& inter_sizes,
                                         const PoissonConfig& cfg) {
  std::vector<FlowSpec> specs;
  FlowSpec s;
  for (PoissonArrivals intra(hosts, intra_sizes, cfg, false); intra.next(&s);) specs.push_back(s);
  for (PoissonArrivals inter(hosts, inter_sizes, cfg, true); inter.next(&s);) specs.push_back(s);
  std::stable_sort(specs.begin(), specs.end(), starts_before);
  return specs;
}

std::vector<FlowSpec> load_flow_specs_csv(const std::string& path, const HostSpace& hosts) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  std::vector<FlowSpec> specs;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    int src = 0, dst = 0;
    long long bytes = 0;
    double start_us = 0;
    if (std::sscanf(line.c_str(), "%d ,%d ,%lld ,%lf", &src, &dst, &bytes, &start_us) == 4 ||
        std::sscanf(line.c_str(), "%d,%d,%lld,%lf", &src, &dst, &bytes, &start_us) == 4) {
      // Host ids index the topology, and the start must convert to Time
      // without overflow (NaN fails both comparisons).
      const double start_ps = start_us * static_cast<double>(kMicrosecond);
      const bool host_ok = src >= 0 && src < hosts.total() && dst >= 0 && dst < hosts.total();
      const bool start_ok = start_ps > -0x1p63 && start_ps < 0x1p63;
      if (src == dst || bytes <= 0 || !host_ok || !start_ok)
        throw std::runtime_error("bad trace line: " + line);
      specs.push_back({src, dst, static_cast<std::uint64_t>(bytes),
                       static_cast<Time>(start_ps), hosts.dc_of(src) != hosts.dc_of(dst)});
    }
  }
  std::stable_sort(specs.begin(), specs.end(), starts_before);
  return specs;
}

std::vector<FlowSpec> make_rpc_background(const HostSpace& hosts, int dc,
                                          const EmpiricalCdf& sizes, double load,
                                          Bandwidth host_rate, int active_hosts, Time duration,
                                          std::uint64_t seed) {
  const int pool = std::min(active_hosts, hosts.hosts_per_dc);
  const double aggregate_Bps =
      load * static_cast<double>(pool) * static_cast<double>(host_rate) / 8.0;
  const double mean_size = sizes.mean();
  const double mean_gap_ps = static_cast<double>(kSecond) / (aggregate_Bps / mean_size);

  std::vector<FlowSpec> specs;
  Rng rng = Rng::stream(seed, 303);
  double t = rng.exponential(mean_gap_ps);
  while (t < static_cast<double>(duration)) {
    int src = dc * hosts.hosts_per_dc + static_cast<int>(rng.uniform_below(pool));
    int dst = dc * hosts.hosts_per_dc + static_cast<int>(rng.uniform_below(pool));
    while (dst == src) dst = dc * hosts.hosts_per_dc + static_cast<int>(rng.uniform_below(pool));
    const auto size = static_cast<std::uint64_t>(std::max(1.0, sizes.sample(rng)));
    specs.push_back({src, dst, size, static_cast<Time>(t), false});
    t += rng.exponential(mean_gap_ps);
  }
  return specs;
}

}  // namespace uno
