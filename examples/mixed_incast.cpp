// Mixed-incast fairness demo (the scenario behind the paper's Figure 3).
//
// Four intra-DC and four inter-DC senders converge on one receiver. The
// example traces every flow's send rate and shows Uno's fast convergence to
// the 12.5 Gbps fair share; run with an argument to compare schemes:
//
//   $ ./mixed_incast            # Uno
//   $ ./mixed_incast gemini
//   $ ./mixed_incast mprdma+bbr
#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "stats/sampler.hpp"
#include "workload/scenario_lib.hpp"
#include "workload/traffic.hpp"

using namespace uno;

int main(int argc, char** argv) {
  SchemeSpec scheme = SchemeSpec::uno();
  if (argc > 1) {
    const std::string name = argv[1];
    if (name != "uno" && name != "gemini" && name != "mprdma+bbr") {
      std::fprintf(stderr, "usage: %s [uno|gemini|mprdma+bbr]\n", argv[0]);
      return 2;
    }
    scheme = SchemeSpec::named(name);
  }

  ExperimentConfig cfg;
  cfg.scheme = scheme;
  Experiment ex(cfg);
  const HostSpace hosts{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};

  // 4 + 4 incast of 16 MiB messages into host 0, every flow's send rate
  // sampled from the moment it is spawned.
  OpenLoopScenario incast(make_incast(hosts, /*receiver=*/0, 4, 4, 16 << 20));
  ScenarioHarness harness(ex, incast);
  RateSampler rates(ex.eq(), 500 * kMicrosecond);
  harness.on_spawn(
      [&rates](FlowSender& s) { rates.watch(&s, s.params().interdc ? "inter" : "intra"); });
  harness.begin();
  rates.start();
  const bool done = harness.run(500 * kMillisecond);
  rates.stop();
  if (!done) {
    std::fprintf(stderr, "flows did not complete\n");
    return 1;
  }

  std::printf("scheme: %s\n\nper-flow send rate (Gbps), fair share = 12.5:\n",
              scheme.name.c_str());
  const TimeSeries& ref = rates.series(0);
  std::printf("%8s", "t(ms)");
  for (std::size_t f = 0; f < rates.num_watched(); ++f)
    std::printf("  %s%zu", rates.series(f).label.c_str(), f % 4);
  std::printf("    Jain\n");
  const std::size_t step = std::max<std::size_t>(1, ref.size() / 16);
  for (std::size_t i = 0; i < ref.size(); i += step) {
    std::printf("%8.1f", to_milliseconds(ref.t[i]));
    std::vector<double> row;
    for (std::size_t f = 0; f < rates.num_watched(); ++f) {
      const double v = i < rates.series(f).size() ? rates.series(f).v[i] : 0.0;
      row.push_back(v);
      std::printf("  %6.1f", v);
    }
    std::printf("  %6.3f\n", jain_index(row));
  }

  const Time conv = rates.convergence_time(0.9);
  if (conv == kTimeInfinity)
    std::printf("\nnever converged to Jain >= 0.9\n");
  else
    std::printf("\nconverged to Jain >= 0.9 at %.1f ms\n", to_milliseconds(conv));
  return 0;
}
