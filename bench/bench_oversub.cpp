// Extension study (paper footnote 4): Annulus-style near-source feedback
// under fabric oversubscription.
//
// The paper leaves "Annulus on top of Uno for oversubscribed topologies" as
// future work; this bench implements and evaluates it. With a non-blocking
// fabric (1:1) the add-on should be inert; at 4:1 oversubscription the
// uplinks become near-source hot spots where the sub-RTT QCN loop can react
// long before ECN echoes return end-to-end.
#include <cstdio>

#include "bench/common.hpp"
#include "workload/cdf.hpp"

using namespace uno;

int main() {
  bench::print_header("Extension", "Annulus near-source QCN under oversubscription");
  const EmpiricalCdf intra_sizes = EmpiricalCdf::websearch().scaled(bench::scale() / 32.0);
  const EmpiricalCdf inter_sizes = EmpiricalCdf::alibaba_wan().scaled(bench::scale() / 32.0);

  for (const double oversub : {1.0, 4.0}) {
    Table t({"scheme", "intra mean us", "intra p99 us", "inter mean us", "inter p99 us",
             "qcn notifications"});
    for (const SchemeSpec& scheme :
         {SchemeSpec::uno(), SchemeSpec::uno_annulus(), SchemeSpec::named("gemini")}) {
      ExperimentConfig cfg;
      cfg.scheme = scheme;
      cfg.seed = bench::seed();
      cfg.uno.oversubscription = oversub;
      Experiment ex(cfg);
      PoissonConfig pc;
      pc.load = 0.4;
      pc.duration = bench::scaled_time(4 * kMillisecond);
      pc.active_hosts = 64;
      pc.seed = bench::seed();
      OpenLoopScenario poisson(
          make_poisson_mixed(bench::hosts_of(ex), intra_sizes, inter_sizes, pc));
      ScenarioHarness(ex, poisson).run(2 * kSecond);
      const auto intra = ex.fct().summarize(FctCollector::Class::kIntra);
      const auto inter = ex.fct().summarize(FctCollector::Class::kInter);
      t.add_row({scheme.name, Table::fmt(intra.mean_us, 1), Table::fmt(intra.p99_us, 1),
                 Table::fmt(inter.mean_us, 1), Table::fmt(inter.p99_us, 1),
                 std::to_string(ex.qcn_delivered())});
    }
    char title[64];
    std::snprintf(title, sizeof(title), "oversubscription %.0f:1, 40%% load", oversub);
    t.print(title);
  }
  return 0;
}
