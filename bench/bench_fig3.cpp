// Figure 3: bandwidth-fairness convergence during a mixed incast.
//
// Four intra-DC and four inter-DC flows target one receiver on the paper's
// full two-DC 8-ary fat-tree. For Gemini, MPRDMA+BBR, and Uno we trace the
// per-flow send rates and report the Jain-index convergence time. Expected
// shape (paper Fig. 3): MPRDMA+BBR never converges (two disjoint control
// loops), Gemini converges slower than the flows live, Uno converges within
// a few inter-DC RTTs.
#include <cstdio>

#include "bench/common.hpp"

using namespace uno;

int main() {
  bench::print_header("Figure 3", "fairness convergence, 4 intra + 4 inter incast");
  const std::uint64_t flow_bytes = bench::scaled_bytes(64.0 * (1 << 20));  // paper: 1 GiB
  const Time horizon = 400 * kMillisecond;
  const Time sample_period = 250 * kMicrosecond;

  const SchemeSpec schemes[] = {SchemeSpec::named("gemini"), SchemeSpec::named("mprdma+bbr"),
                                SchemeSpec::uno()};
  Table summary({"scheme", "all done", "makespan ms", "Jain@2ms", "Jain@6ms", "Jain@12ms",
                 "converged(J>=0.9) ms"});

  for (const SchemeSpec& scheme : schemes) {
    ExperimentConfig cfg;
    cfg.scheme = scheme;
    cfg.seed = bench::seed();
    Experiment ex(cfg);
    OpenLoopScenario incast(make_incast(bench::hosts_of(ex), /*receiver=*/0, 4, 4, flow_bytes));
    ScenarioHarness h(ex, incast);
    RateSampler rs(ex.eq(), sample_period);
    h.on_spawn([&rs](FlowSender& s) { rs.watch(&s, s.params().interdc ? "inter" : "intra"); });
    h.begin();
    rs.start();
    const bool done = h.run(horizon);
    rs.stop();

    auto jain_at = [&](Time t) {
      std::vector<double> rates;
      for (std::size_t f = 0; f < rs.num_watched(); ++f) {
        const TimeSeries& s = rs.series(f);
        for (std::size_t i = 0; i < s.size(); ++i)
          if (s.t[i] >= t) {
            rates.push_back(s.v[i]);
            break;
          }
      }
      return jain_index(rates);
    };

    double makespan = 0;
    for (const FlowResult& r : ex.fct().results())
      makespan = std::max(makespan, to_milliseconds(flow_finish_time(r)));
    const Time conv = rs.convergence_time(0.9);
    {
      std::vector<const TimeSeries*> all;
      for (std::size_t f = 0; f < rs.num_watched(); ++f) all.push_back(&rs.series(f));
      bench::recorder().time_series("fig3_rates_" + scheme.name + ".csv", all);
    }

    summary.add_row({scheme.name, done ? "yes" : "no", Table::fmt(makespan, 1),
                     Table::fmt(jain_at(2 * kMillisecond), 3),
                     Table::fmt(jain_at(6 * kMillisecond), 3),
                     Table::fmt(jain_at(12 * kMillisecond), 3),
                     conv == kTimeInfinity ? "never" : Table::fmt(to_milliseconds(conv), 1)});

    // Rate trace (class means), downsampled for readability.
    std::printf("\n[%s] per-class mean send rate (Gbps):\n  t(ms):", scheme.name.c_str());
    const TimeSeries& ref = rs.series(0);
    const std::size_t step = std::max<std::size_t>(1, ref.size() / 12);
    for (std::size_t i = 0; i < ref.size(); i += step)
      std::printf("%7.1f", to_milliseconds(ref.t[i]));
    for (const char* cls : {"intra", "inter"}) {
      std::printf("\n  %-5s:", cls);
      for (std::size_t i = 0; i < ref.size(); i += step) {
        double sum = 0;
        int n = 0;
        for (std::size_t f = 0; f < rs.num_watched(); ++f) {
          if (rs.series(f).label != cls || i >= rs.series(f).size()) continue;
          sum += rs.series(f).v[i];
          ++n;
        }
        std::printf("%7.1f", n ? sum / n : 0.0);
      }
    }
    std::printf("\n");
  }
  summary.print("Figure 3 summary (fair share = 12.5 Gbps per flow)");
  return 0;
}
