// Ablation study (not a paper figure; backs the paper's design arguments).
//
// Each UnoCC mechanism is disabled in turn and the mixed-incast scenario
// (Fig. 3) plus a realistic 40%-load snapshot (Fig. 10) are re-run:
//   unified-epoch off -> Gemini-granularity reaction (§3.1 claims slow
//                        convergence without unification)
//   QA off            -> only AIMD handles incast overload (§4.1.2)
//   gentle-MD off     -> phantom congestion treated like physical (§4.1.1)
//   phantom off       -> ECN from physical RED only (§4.1.3 / Fig. 4)
#include <cstdio>

#include "bench/common.hpp"
#include "workload/cdf.hpp"

using namespace uno;

namespace {

struct Variant {
  const char* name;
  void (*apply)(ExperimentConfig&);
};

const Variant kVariants[] = {
    {"uno (full)", [](ExperimentConfig&) {}},
    {"no unified epoch", [](ExperimentConfig& c) { c.uno.unocc_unified_epoch = false; }},
    {"no quick adapt", [](ExperimentConfig& c) { c.uno.unocc_enable_qa = false; }},
    {"no gentle MD", [](ExperimentConfig& c) { c.uno.unocc_gentle_md = 1.0; }},
    {"no phantom queues", [](ExperimentConfig& c) { c.scheme.phantom_marking = false; }},
};

}  // namespace

int main() {
  bench::print_header("Ablation", "UnoCC mechanisms toggled off one at a time");

  // --- mixed incast (Fig. 3 scenario) ---------------------------------------
  {
    const std::uint64_t flow_bytes = bench::scaled_bytes(64.0 * (1 << 20));
    Table t({"variant", "mean FCT ms", "p99 FCT ms", "converged(J>=0.9) ms", "trims"});
    for (const Variant& v : kVariants) {
      ExperimentConfig cfg;
      cfg.scheme = SchemeSpec::uno();
      cfg.seed = bench::seed();
      v.apply(cfg);
      Experiment ex(cfg);
      OpenLoopScenario incast(make_incast(bench::hosts_of(ex), 0, 4, 4, flow_bytes));
      ScenarioHarness h(ex, incast);
      RateSampler rs(ex.eq(), 250 * kMicrosecond);
      h.on_spawn([&rs](FlowSender& s) { rs.watch(&s, s.params().interdc ? "inter" : "intra"); });
      h.begin();
      rs.start();
      h.run(800 * kMillisecond);
      rs.stop();
      const auto all = ex.fct().summarize();
      const Time conv = rs.convergence_time(0.9);
      t.add_row({v.name, Table::fmt(all.mean_us / 1000, 2), Table::fmt(all.p99_us / 1000, 2),
                 conv == kTimeInfinity ? "never" : Table::fmt(to_milliseconds(conv), 1),
                 std::to_string(ex.topo().total_trims())});
    }
    t.print("mixed incast: 4 intra + 4 inter x 64 MiB");
  }

  // --- realistic 40% load (Fig. 10 scenario) --------------------------------
  {
    const EmpiricalCdf intra_sizes =
        EmpiricalCdf::websearch().scaled(bench::scale() / 32.0);
    const EmpiricalCdf inter_sizes =
        EmpiricalCdf::alibaba_wan().scaled(bench::scale() / 32.0);
    Table t({"variant", "intra mean us", "intra p99 us", "inter mean us", "inter p99 us"});
    for (const Variant& v : kVariants) {
      ExperimentConfig cfg;
      cfg.scheme = SchemeSpec::uno();
      cfg.seed = bench::seed();
      v.apply(cfg);
      Experiment ex(cfg);
      PoissonConfig pc;
      pc.load = 0.4;
      pc.duration = bench::scaled_time(4 * kMillisecond);
      pc.active_hosts = 64;
      pc.seed = bench::seed();
      OpenLoopScenario poisson(
          make_poisson_mixed(bench::hosts_of(ex), intra_sizes, inter_sizes, pc));
      ScenarioHarness(ex, poisson).run(kSecond);
      const auto intra = ex.fct().summarize(FctCollector::Class::kIntra);
      const auto inter = ex.fct().summarize(FctCollector::Class::kInter);
      t.add_row({v.name, Table::fmt(intra.mean_us, 1), Table::fmt(intra.p99_us, 1),
                 Table::fmt(inter.mean_us, 1), Table::fmt(inter.p99_us, 1)});
    }
    t.print("web-search + Alibaba mix at 40% load");
  }
  return 0;
}
