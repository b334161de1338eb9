// Workload generators: pure functions that produce flow arrival lists.
//
// Generators return `FlowSpec`s (who sends how much to whom, when); the
// experiment harness materializes them into transport flows. Keeping them
// pure makes the statistical properties directly unit-testable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "workload/cdf.hpp"

namespace uno {

struct FlowSpec {
  int src = 0;
  int dst = 0;
  std::uint64_t size_bytes = 0;
  Time start_time = 0;
  bool interdc = false;
};

/// Start-time order: flow lists stable-sort by it, so equal starts keep
/// their list order. A closure, so that sorts inline the comparison.
inline constexpr auto starts_before = [](const FlowSpec& a, const FlowSpec& b) {
  return a.start_time < b.start_time;
};

/// Topology facts the generators need (decoupled from InterDcTopology so
/// generators are testable standalone).
struct HostSpace {
  int hosts_per_dc = 128;
  int num_dcs = 2;
  int total() const { return hosts_per_dc * num_dcs; }
  int dc_of(int h) const { return h / hosts_per_dc; }
};

/// N senders -> one receiver, all starting together (Figs 3 and 8).
/// `intra_senders` come from the receiver's DC, `inter_senders` round-robin
/// over every other DC; senders are distinct hosts chosen deterministically.
std::vector<FlowSpec> make_incast(const HostSpace& hosts, int receiver, int intra_senders,
                                  int inter_senders, std::uint64_t flow_bytes,
                                  Time start = 0);

/// Random permutation: every host sends one flow to a distinct peer drawn
/// from both DCs (Fig 9).
std::vector<FlowSpec> make_permutation(const HostSpace& hosts, std::uint64_t flow_bytes,
                                       std::uint64_t seed, Time start = 0);

/// Poisson mixed workload (Figs 10-12): intra-DC flows sized from
/// `intra_sizes`, inter-DC flows from `inter_sizes`, arrival rates scaled so
/// the aggregate offered load equals `load` x (active_hosts x line_rate),
/// split `dc_wan_ratio`:1 between intra and inter bytes (paper: 4:1). The
/// list is sorted by start time; ties keep intra before inter.
struct PoissonConfig {
  double load = 0.4;
  double dc_wan_ratio = 4.0;
  Bandwidth host_rate = 100 * kGbps;
  int active_hosts = 0;  // 0 -> all hosts participate
  Time duration = 10 * kMillisecond;
  std::uint64_t seed = 1;
};
std::vector<FlowSpec> make_poisson_mixed(const HostSpace& hosts, const EmpiricalCdf& intra_sizes,
                                         const EmpiricalCdf& inter_sizes,
                                         const PoissonConfig& cfg);
/// Mean gap between arrivals of make_poisson_mixed's merged process, in ps:
/// no larger than either class's own gap, so a floor on it holds for both.
double poisson_mean_gap_ps(const HostSpace& hosts, const EmpiricalCdf& intra_sizes,
                           const EmpiricalCdf& inter_sizes, const PoissonConfig& cfg);

/// One class of make_poisson_mixed's arrivals, drawn one flow at a time in
/// start order: the intra class (`cross_dc` false) or the inter class. It
/// draws from the class's own RNG stream, so drawing the two classes
/// interleaved gives the flows the whole list holds.
class PoissonArrivals {
 public:
  PoissonArrivals(const HostSpace& hosts, const EmpiricalCdf& sizes, const PoissonConfig& cfg,
                  bool cross_dc);
  /// The next arrival, or false once the arrival window is over.
  bool next(FlowSpec* out);

 private:
  HostSpace hosts_;
  EmpiricalCdf sizes_;
  Time duration_;
  bool cross_dc_;
  int per_dc_;          // the first per_dc_ hosts of each DC take part
  double mean_gap_ps_;  // 0 when the class offers no load
  Rng rng_;
  double t_ = 0;  // the next arrival's start
};

/// make_poisson_mixed's list drawn one flow at a time, in its order: the two
/// classes merged by start time, intra first on equal starts (the order its
/// stable sort gives). It holds one flow drawn ahead per class, not the list.
class PoissonMix {
 public:
  PoissonMix(const HostSpace& hosts, const EmpiricalCdf& intra_sizes,
             const EmpiricalCdf& inter_sizes, const PoissonConfig& cfg);
  /// The next flow in start order, or false once both classes are done.
  bool next(FlowSpec* out);

 private:
  struct Class {
    PoissonArrivals arrivals;
    FlowSpec ahead;
    bool more;
  };
  static bool take(Class& c, FlowSpec* out);
  Class intra_, inter_;
};

/// Load a flow list from a CSV file with lines "src,dst,bytes,start_us"
/// ('#' comments allowed) — trace replay for externally generated or
/// recorded workloads. `hosts` classifies each flow as intra/inter. The list
/// is sorted by start time; rows with equal starts keep their file order,
/// so flow ids follow the trace.
std::vector<FlowSpec> load_flow_specs_csv(const std::string& path, const HostSpace& hosts);

/// Poisson background of small intra-DC messages inside one DC (Fig 4's
/// "Google RPC" traffic).
std::vector<FlowSpec> make_rpc_background(const HostSpace& hosts, int dc,
                                          const EmpiricalCdf& sizes, double load,
                                          Bandwidth host_rate, int active_hosts, Time duration,
                                          std::uint64_t seed);

}  // namespace uno
