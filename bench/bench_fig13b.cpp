// Figure 13(B): correlated random WAN loss.
//
// A single inter-DC flow runs while every border link exhibits bursty
// Gilbert–Elliott loss calibrated to the paper's Table 1 measurements,
// amplified (bench::kWanLossScale, 200x) so a minutes-scale bench observes
// enough loss events; trials repeat with distinct seeds. Variants:
// {spraying, PLB, UnoLB} x {EC, no EC}. Paper expectation: Uno ~ spraying
// (both spread a block over many links so >2-of-10 losses are rare) and
// both beat PLB, whose single active path concentrates a burst on a whole
// block, with EC and without.
#include <cstdio>

#include "bench/common.hpp"

using namespace uno;

int main() {
  bench::print_header("Figure 13(B)", "bursty random loss on WAN links, single flow");
  const std::uint64_t flow_bytes = bench::scaled_bytes(5.0 * (1 << 20));
  const int trials = std::max(8, static_cast<int>(50 * bench::scale()));
  const Time horizon = 400 * kMillisecond;

  BurstLoss::Params base = BurstLoss::table1_setup1();
  base.event_rate *= bench::kWanLossScale;

  Table t({"variant", "FCT ms: p25", "p50", "p75", "p99", "max", "mean", "rtx/flow"});
  for (const SchemeSpec& scheme : bench::rc_schemes()) {
    std::vector<double> fcts_ms;
    double rtx = 0;
    for (int trial = 0; trial < trials; ++trial) {
      ExperimentConfig cfg;
      cfg.scheme = scheme;
      cfg.seed = bench::seed() + trial * 7919;
      Experiment ex(cfg);
      for (int d = 0; d < 2; ++d)
        for (int j = 0; j < ex.topo().cross_link_count(); ++j)
          ex.topo().cross_link(d, j).set_loss_model(std::make_unique<BurstLoss>(
              base, Rng::stream(cfg.seed, 100 + d * 8 + j)));
      FlowSender& snd = ex.spawn({3, ex.topo().hosts_per_dc() + 5, flow_bytes, 0, true});
      ex.run_to_completion(horizon);
      fcts_ms.push_back(to_milliseconds(snd.fct() < 0 ? horizon : snd.fct()));
      rtx += static_cast<double>(snd.retransmits());
    }
    const Distribution d = Distribution::of(fcts_ms);
    t.add_row({scheme.name, Table::fmt(d.p25, 2), Table::fmt(d.p50, 2), Table::fmt(d.p75, 2),
               Table::fmt(d.p99, 2), Table::fmt(d.max, 2), Table::fmt(d.mean, 2),
               Table::fmt(rtx / trials, 1)});
  }
  char title[96];
  std::snprintf(title, sizeof(title), "%d trials, Table-1 Setup-1 loss x %.0f", trials,
                bench::kWanLossScale);
  t.print(title);
  return 0;
}
