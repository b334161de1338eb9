// Figure 12: heterogeneous buffer sizes.
//
// The 40%-load realistic mix re-run with shallow intra-DC buffers (175 KiB
// = one intra BDP per port) and deep WAN-facing buffers (2.2 MiB = 0.1x the
// inter BDP per port), as deployed clusters mix shallow ToR silicon with
// deeper border routers. Paper expectation: same ordering as Fig. 10 —
// Uno+ECMP already lowers inter-DC FCTs; full Uno lowers both classes
// (tail: ~3x intra / ~1.7x inter vs Gemini).
#include <cstdio>

#include "bench/common.hpp"
#include "workload/cdf.hpp"

using namespace uno;

int main() {
  bench::print_header("Figure 12", "shallow intra (175 KiB) / deep inter (2.2 MiB) buffers");
  const double size_scale = 1.0 / 32.0;
  const EmpiricalCdf intra_sizes = EmpiricalCdf::websearch().scaled(size_scale * bench::scale());
  const EmpiricalCdf inter_sizes = EmpiricalCdf::alibaba_wan().scaled(size_scale * bench::scale());
  const Time duration = bench::scaled_time(5 * kMillisecond);

  Table t({"scheme", "intra mean us", "intra p99 us", "inter mean us", "inter p99 us",
           "done"});
  for (const char* name : {"uno", "uno+ecmp", "gemini", "mprdma+bbr"}) {
    ExperimentConfig cfg;
    cfg.scheme = SchemeSpec::named(name);
    cfg.seed = bench::seed();
    cfg.uno.queue_capacity = 175'000;          // ~ intra BDP
    cfg.uno.border_queue_capacity = 2'300'000;  // ~ 0.1 x inter BDP
    Experiment ex(cfg);
    PoissonConfig pc;
    pc.load = 0.4;
    pc.duration = duration;
    pc.active_hosts = 64;
    pc.seed = bench::seed();
    OpenLoopScenario poisson(make_poisson_mixed(bench::hosts_of(ex), intra_sizes, inter_sizes, pc));
    const bool done = ScenarioHarness(ex, poisson).run(kSecond);
    const auto intra = ex.fct().summarize(FctCollector::Class::kIntra);
    const auto inter = ex.fct().summarize(FctCollector::Class::kInter);
    t.add_row({name, Table::fmt(intra.mean_us, 1), Table::fmt(intra.p99_us, 1),
               Table::fmt(inter.mean_us, 1), Table::fmt(inter.p99_us, 1),
               done ? "yes" : "no"});
  }
  t.print("40% load, web-search intra + Alibaba inter");
  return 0;
}
