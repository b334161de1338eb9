// Figure 8: incast micro-benchmarks.
//
// Three scenarios — 8 intra-DC flows, 8 inter-DC flows, 4+4 mixed — all
// into one receiver, with packet spraying for every scheme ("load balancing
// has a negligible impact under receiver-side incast"). Reported per
// scheme: mean/p99 FCT and the Jain fairness index mid-run, plus the ideal
// completion time of the incast. Paper expectation: Uno matches or beats
// Gemini and MPRDMA+BBR in all scenarios and converges to fairness fast.
#include <cstdio>

#include "bench/common.hpp"

using namespace uno;

int main() {
  bench::print_header("Figure 8", "incast scenarios: FCT + fairness");
  const std::uint64_t flow_bytes = bench::scaled_bytes(16.0 * (1 << 20));  // paper: 1 GiB
  const Time horizon = 500 * kMillisecond;

  struct Scenario {
    const char* name;
    int intra;
    int inter;
  };
  const Scenario scenarios[] = {{"8 intra + 0 inter", 8, 0},
                                {"0 intra + 8 inter", 0, 8},
                                {"4 intra + 4 inter", 4, 4}};
  const SchemeSpec schemes[] = {SchemeSpec::uno().with_spray(),
                                SchemeSpec::named("gemini").with_spray(),
                                SchemeSpec::named("mprdma+bbr")};  // already sprays intra

  for (const Scenario& sc : scenarios) {
    Table t({"scheme", "mean FCT ms", "p99 FCT ms", "makespan ms", "Jain(mid-run)"});
    // Ideal: n flows of S bytes share the 100 Gbps receiver port.
    const int n = sc.intra + sc.inter;
    const double ideal_ms =
        to_milliseconds(serialization_time(static_cast<std::int64_t>(flow_bytes) * n,
                                           100 * kGbps) +
                        (sc.inter > 0 ? 2 * kMillisecond : 14 * kMicrosecond));
    for (const SchemeSpec& scheme : schemes) {
      ExperimentConfig cfg;
      cfg.scheme = scheme;
      cfg.seed = bench::seed();
      Experiment ex(cfg);
      OpenLoopScenario incast(
          make_incast(bench::hosts_of(ex), 0, sc.intra, sc.inter, flow_bytes));
      ScenarioHarness h(ex, incast);
      RateSampler rs(ex.eq(), 250 * kMicrosecond);
      CwndSampler cs(ex.eq(), 250 * kMicrosecond);
      h.on_spawn([&rs, &cs](FlowSender& s) {
        const char* cls = s.params().interdc ? "inter" : "intra";
        rs.watch(&s, cls);
        cs.watch(&s, cls);
      });
      h.begin();
      rs.start();
      cs.start();
      // Jain index sampled late in the run (75% of the ideal makespan),
      // after the initial incast transient has been absorbed.
      const Time mid = static_cast<Time>(ideal_ms * 0.75 * kMillisecond);
      h.run(mid);
      const double jain_mid = rs.jain_latest();
      h.run(horizon);
      rs.stop();
      cs.stop();
      {
        std::vector<const TimeSeries*> all;
        for (std::size_t f = 0; f < cs.num_watched(); ++f) all.push_back(&cs.series(f));
        char name[160];
        std::snprintf(name, sizeof(name), "fig8_cwnd_%s_%dintra_%dinter.csv",
                      scheme.name.c_str(), sc.intra, sc.inter);
        bench::recorder().time_series(name, all);
      }

      const auto all = ex.fct().summarize();
      double makespan = 0;
      for (const FlowResult& r : ex.fct().results())
        makespan = std::max(makespan, to_milliseconds(flow_finish_time(r)));
      t.add_row({scheme.name, Table::fmt(all.mean_us / 1000, 2),
                 Table::fmt(all.p99_us / 1000, 2), Table::fmt(makespan, 2),
                 Table::fmt(jain_mid, 3)});
    }
    t.add_row({"(ideal)", Table::fmt(ideal_ms, 2), Table::fmt(ideal_ms, 2),
               Table::fmt(ideal_ms, 2), "1.000"});
    t.print(sc.name);
  }
  return 0;
}
