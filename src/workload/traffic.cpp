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

/// Draw arrivals of one traffic class over [0, duration) at byte rate
/// `bytes_per_sec`, uniform random (src,dst) pairs filtered by `cross_dc`.
void emit_poisson(const HostSpace& hosts, const EmpiricalCdf& sizes, double bytes_per_sec,
                  Time duration, bool cross_dc, int active_hosts, Rng& rng,
                  std::vector<FlowSpec>& out) {
  const double mean_size = sizes.mean();
  assert(mean_size > 0);
  const double flows_per_sec = bytes_per_sec / mean_size;
  if (flows_per_sec <= 0) return;
  const double mean_gap_ps = static_cast<double>(kSecond) / flows_per_sec;
  const int pool = active_hosts > 0 ? std::min(active_hosts, hosts.total()) : hosts.total();
  const int per_dc = pool / hosts.num_dcs;

  double t = rng.exponential(mean_gap_ps);
  while (t < static_cast<double>(duration)) {
    // Active hosts are the first `per_dc` hosts of each DC. Cross-DC
    // destinations draw uniformly over the other DCs; the num_dcs == 2 case
    // takes the branchless path so it consumes the exact RNG stream the 2-DC
    // goldens were minted against (uniform_below burns a draw even for n==1).
    const int sdc = static_cast<int>(rng.uniform_below(hosts.num_dcs));
    const int ddc =
        cross_dc ? (sdc + 1 +
                    (hosts.num_dcs > 2
                         ? static_cast<int>(rng.uniform_below(hosts.num_dcs - 1))
                         : 0)) %
                       hosts.num_dcs
                 : sdc;
    int src = sdc * hosts.hosts_per_dc + static_cast<int>(rng.uniform_below(per_dc));
    int dst = ddc * hosts.hosts_per_dc + static_cast<int>(rng.uniform_below(per_dc));
    while (dst == src)
      dst = ddc * hosts.hosts_per_dc + static_cast<int>(rng.uniform_below(per_dc));
    const auto size = static_cast<std::uint64_t>(std::max(1.0, sizes.sample(rng)));
    out.push_back({src, dst, size, static_cast<Time>(t), cross_dc});
    t += rng.exponential(mean_gap_ps);
  }
}

int poisson_pool(const HostSpace& hosts, const PoissonConfig& cfg) {
  return cfg.active_hosts > 0 ? std::min(cfg.active_hosts, hosts.total()) : hosts.total();
}

/// Offered load of a Poisson mix in bytes per second.
double poisson_Bps(const HostSpace& hosts, const PoissonConfig& cfg) {
  return cfg.load * static_cast<double>(poisson_pool(hosts, cfg)) *
         static_cast<double>(cfg.host_rate) / 8.0;
}

}  // namespace

double poisson_mean_gap_ps(const HostSpace& hosts, const EmpiricalCdf& intra_sizes,
                           const EmpiricalCdf& inter_sizes, const PoissonConfig& cfg) {
  const double intra_share = cfg.dc_wan_ratio / (cfg.dc_wan_ratio + 1.0);
  const double flows_per_sec = poisson_Bps(hosts, cfg) * (intra_share / intra_sizes.mean() +
                                                          (1.0 - intra_share) / inter_sizes.mean());
  return static_cast<double>(kSecond) / flows_per_sec;
}

std::vector<FlowSpec> make_poisson_mixed(const HostSpace& hosts, const EmpiricalCdf& intra_sizes,
                                         const EmpiricalCdf& inter_sizes,
                                         const PoissonConfig& cfg) {
  const int pool = poisson_pool(hosts, cfg);
  const double aggregate_Bps = poisson_Bps(hosts, cfg);
  const double intra_share = cfg.dc_wan_ratio / (cfg.dc_wan_ratio + 1.0);

  std::vector<FlowSpec> specs;
  Rng rng_intra = Rng::stream(cfg.seed, 101);
  Rng rng_inter = Rng::stream(cfg.seed, 202);
  emit_poisson(hosts, intra_sizes, aggregate_Bps * intra_share, cfg.duration,
               /*cross_dc=*/false, pool, rng_intra, specs);
  emit_poisson(hosts, inter_sizes, aggregate_Bps * (1.0 - intra_share), cfg.duration,
               /*cross_dc=*/true, pool, rng_inter, specs);
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
