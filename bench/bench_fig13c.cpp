// Figure 13(C): inter-DC data-parallel training under failures.
//
// The §5.1 AI workload: each iteration synchronizes gradients between model
// replicas in the two DCs (ring ReduceScatter + AllGather per group pair).
// Both a border-link failure and bursty random drops are injected. Reported
// per variant: the ratio of measured AllReduce time per iteration to the
// ideal (full WAN cut, no losses). Paper expectation: Uno (UnoLB+EC)
// consistently wins — over 2x better than the runner-up with EC and within
// ~30% of ideal.
//
// Drives the 'allreduce' Scenario through a ScenarioHarness, the same
// closed-loop driver every other entry point uses.
#include <cstdio>

#include "bench/common.hpp"
#include "workload/scenario_lib.hpp"

using namespace uno;

int main() {
  bench::print_header("Figure 13(C)", "AllReduce iterations with failures + random drops");
  const int groups = 8;
  const std::uint64_t bytes = bench::scaled_bytes(16.0 * (1 << 20));  // paper: 70-500 MiB
  const int iterations = std::max(3, static_cast<int>(12 * bench::scale()));

  BurstLoss::Params loss = BurstLoss::table1_setup1();
  loss.event_rate *= bench::kWanLossScale;

  Table t({"variant", "iter/ideal: p50", "p99", "mean", "iters done"});
  for (const SchemeSpec& scheme : bench::rc_schemes()) {
    ExperimentConfig cfg;
    cfg.scheme = scheme;
    cfg.seed = bench::seed();
    Experiment ex(cfg);
    for (int d = 0; d < 2; ++d)
      for (int j = 0; j < ex.topo().cross_link_count(); ++j)
        ex.topo().cross_link(d, j).set_loss_model(std::make_unique<BurstLoss>(
            loss, Rng::stream(cfg.seed, 500 + d * 8 + j)));
    // One border link fails outright partway through training.
    ex.topo().cross_link(0, 2).set_up(false);

    AllreduceScenario ar;
    char size_mb[32];
    std::snprintf(size_mb, sizeof(size_mb), "%.17g",
                  static_cast<double>(bytes) / (1 << 20));
    std::string err;
    if (!ar.set_options({{"groups", std::to_string(groups)},
                         {"size-mb", size_mb},
                         {"iterations", std::to_string(iterations)},
                         {"compute-us", "200"}},
                        &err) ||
        !ar.init({{ex.topo().hosts_per_dc(), ex.topo().num_dcs()}, cfg.seed}, &err)) {
      std::fprintf(stderr, "allreduce scenario: %s\n", err.c_str());
      return 2;
    }
    ScenarioHarness harness(ex, ar);
    harness.run(kSecond * 4);

    // Ideal uses the *healthy* cut (8 links); failures should show up as
    // ratio > 1, not be excused by a degraded baseline.
    const Time ideal = ar.ideal_iteration_time(
        static_cast<Bandwidth>(ex.topo().cross_link_count()) * 100 * kGbps,
        2 * kMillisecond);
    std::vector<double> ratios;
    for (Time it : ar.iteration_times())
      ratios.push_back(static_cast<double>(it) / static_cast<double>(ideal));
    const Distribution d = Distribution::of(ratios);
    t.add_row({scheme.name, Table::fmt(d.p50, 2), Table::fmt(d.p99, 2), Table::fmt(d.mean, 2),
               std::to_string(ar.iteration_times().size())});
  }
  char title[96];
  std::snprintf(title, sizeof(title),
                "%d iterations, %d groups, %.0f MiB/iter, 1 dead link + bursty loss",
                iterations, groups, static_cast<double>(bytes) / (1 << 20));
  t.print(title);
  return 0;
}
