// Quickstart: the smallest end-to-end use of the library.
//
// Builds the paper's two-datacenter topology, runs one intra-DC and one
// inter-DC message under the full Uno stack (UnoCC + UnoRC), and prints
// their completion times against the unloaded ideal.
//
//   $ ./quickstart
#include <cstdio>

#include "core/experiment.hpp"
#include "workload/scenario_lib.hpp"

using namespace uno;

int main() {
  // 1. Configure: Table-2 defaults + the full Uno scheme (UnoCC congestion
  //    control, UnoLB load balancing, (8,2) erasure coding on WAN flows).
  ExperimentConfig cfg;
  cfg.scheme = SchemeSpec::uno();

  // 2. Build the simulated network: two 8-ary fat-trees (128 hosts each)
  //    joined by two border switches over eight 100 Gbps links.
  Experiment ex(cfg);
  std::printf("topology: %d hosts across %d DCs, %d WAN links\n", ex.topo().num_hosts(),
              ex.topo().num_dcs(), ex.topo().cross_link_count());
  std::printf("base RTTs: intra %.0f us, inter %.2f ms\n",
              to_microseconds(ex.topo().config().intra_base_rtt()),
              to_milliseconds(ex.topo().config().inter_base_rtt()));

  // 3. Describe the messages: FlowSpec = {src host, dst host, bytes, start,
  //    interdc}.
  OpenLoopScenario messages({{/*src=*/0, /*dst=*/100, 4 << 20, 0, false},
                             {/*src=*/1, /*dst=*/128 + 77, 4 << 20, 0, true}});

  // 4. Run them through a harness, the one driver loop, until both complete.
  ScenarioHarness harness(ex, messages);
  if (!harness.run(/*deadline=*/kSecond)) {
    std::fprintf(stderr, "flows did not complete\n");
    return 1;
  }

  // 5. Inspect results: one FlowResult per flow, in finish order.
  const FlowResult& intra = ex.fct().results()[0];
  const FlowResult& inter = ex.fct().results()[1];
  const Time ideal_ser = serialization_time(4 << 20, 100 * kGbps);
  std::printf("\nintra-DC 4 MiB: fct=%.1f us (ideal %.1f us), %llu packets\n",
              to_microseconds(intra.completion_time),
              to_microseconds(ideal_ser + 14 * kMicrosecond),
              static_cast<unsigned long long>(intra.packets_sent));
  std::printf("inter-DC 4 MiB: fct=%.3f ms (ideal %.3f ms), %llu packets "
              "(incl. %u%% EC parity)\n",
              to_milliseconds(inter.completion_time),
              to_milliseconds(ideal_ser + 2 * kMillisecond),
              static_cast<unsigned long long>(inter.packets_sent),
              100 * cfg.uno.ec_parity / cfg.uno.ec_data);
  std::printf("fabric drops: %llu, trims: %llu\n",
              static_cast<unsigned long long>(ex.topo().total_drops()),
              static_cast<unsigned long long>(ex.topo().total_trims()));
  return 0;
}
