// Custom workloads and configurations: the knobs a downstream user has.
//
// Demonstrates: loading a flow-size CDF from a file (same two-column format
// as the paper's artifact traces), tweaking UnoConfig (RTTs, buffers, EC
// geometry), and running a Poisson mix on the resulting network.
//
//   $ ./custom_workload
#include <cstdio>
#include <fstream>

#include "core/experiment.hpp"
#include "workload/cdf.hpp"
#include "workload/scenario_lib.hpp"
#include "workload/traffic.hpp"

using namespace uno;

int main() {
  // --- 1. A flow-size CDF from a file (bytes, cumulative probability) -----
  const char* path = "/tmp/uno_example_cdf.txt";
  {
    std::ofstream out(path);
    out << "# toy bimodal RPC distribution\n"
        << "1024   0.0\n"
        << "2048   0.5\n"
        << "4096   0.6\n"
        << "524288 0.9\n"
        << "1048576 1.0\n";
  }
  const EmpiricalCdf sizes = EmpiricalCdf::from_file(path);
  std::printf("loaded CDF: mean %.1f KB, max %.0f KB\n", sizes.mean() / 1024,
              sizes.max_value() / 1024);

  // --- 2. A customized network --------------------------------------------
  ExperimentConfig cfg;
  cfg.scheme = SchemeSpec::uno();
  cfg.uno.inter_rtt = 10 * kMillisecond;      // a farther DC pair
  cfg.uno.queue_capacity = 512 << 10;         // shallower ToR buffers
  cfg.uno.ec_data = 4;                        // (4,2): 50% parity for the
  cfg.uno.ec_parity = 2;                      //   lossier long-haul links
  cfg.fattree_k = 4;                          // small fabric for the demo
  Experiment ex(cfg);
  std::printf("inter-DC BDP at 10 ms RTT: %.1f MB (vs %.1f MB at 2 ms)\n",
              cfg.uno.inter_bdp() / 1e6, UnoConfig{}.inter_bdp() / 1e6);

  // --- 3. Poisson traffic from the custom CDF ------------------------------
  PoissonConfig pc;
  pc.load = 0.3;
  pc.duration = 10 * kMillisecond;
  pc.dc_wan_ratio = 2.0;  // 2:1 intra:inter bytes instead of the paper's 4:1
  // A FlowSpec list of one's own runs as an open-loop scenario: streamed
  // into the network one sync window ahead of each start.
  OpenLoopScenario poisson(make_poisson_mixed(HostSpace{ex.topo().hosts_per_dc(), 2}, sizes,
                                              sizes.scaled(8.0) /*bigger WAN messages*/, pc));
  if (!ScenarioHarness(ex, poisson).run(4 * kSecond)) {
    std::fprintf(stderr, "flows did not finish\n");
    return 1;
  }

  const auto intra = ex.fct().summarize(FctCollector::Class::kIntra);
  const auto inter = ex.fct().summarize(FctCollector::Class::kInter);
  std::printf("\n%zu flows at 30%% load:\n", ex.fct().count());
  std::printf("  intra: mean %.1f us, p99 %.1f us\n", intra.mean_us, intra.p99_us);
  std::printf("  inter: mean %.2f ms, p99 %.2f ms (10 ms base RTT)\n",
              inter.mean_us / 1000, inter.p99_us / 1000);
  return 0;
}
