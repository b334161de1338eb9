// Figure 4: the effect of phantom queues.
//
// Eight long-lived inter-DC flows incast into one receiver while small
// "Google RPC" messages fly between other hosts of the receiver's DC.
// Reported, with and without phantom queues: (A/B) the receiver bottleneck
// port's physical occupancy over time, and (C) mean / p99 FCT of the RPC
// messages. Paper expectation: phantom queues keep the physical queue
// near-zero and improve RPC mean FCT ~2x and p99 ~8x.
#include <cstdio>

#include "bench/common.hpp"
#include "workload/cdf.hpp"

using namespace uno;

int main() {
  bench::print_header("Figure 4", "phantom queues: occupancy + RPC FCTs");
  const std::uint64_t elephant_bytes = bench::scaled_bytes(192.0 * (1 << 20));
  const Time horizon = 120 * kMillisecond;
  const Time measure_from = 30 * kMillisecond;  // past the incast transient

  Table occ({"config", "mean occ KiB", "p99 occ KiB", "max occ KiB"});
  Table fct({"config", "RPC mean us", "RPC p99 us", "RPC count"});

  for (bool phantom : {false, true}) {
    SchemeSpec scheme = SchemeSpec::named("unolb");
    scheme.phantom_marking = phantom;
    scheme.name = phantom ? "with phantom" : "no phantom";
    ExperimentConfig cfg;
    cfg.scheme = scheme;
    cfg.seed = bench::seed();
    Experiment ex(cfg);
    const HostSpace hosts = bench::hosts_of(ex);

    // 8 elephants from the remote DC into host 0.
    std::vector<FlowSpec> specs = make_incast(hosts, 0, 0, 8, elephant_bytes);
    // Google-RPC background inside the receiver's DC (hosts 1..32).
    auto rpc = make_rpc_background(hosts, /*dc=*/0, EmpiricalCdf::google_rpc(), 0.05,
                                   100 * kGbps, 32, horizon - 20 * kMillisecond,
                                   bench::seed());
    // RPCs may *target* the incast victim (that is where the FCT effect
    // shows: small messages queue behind the elephants' standing queue on
    // the victim's edge port) but never originate there.
    for (FlowSpec& s : rpc) {
      if (s.src == 0) s.src = 33;
      if (s.src == s.dst) s.dst = (s.dst + 1) % 64;
      if (s.src == s.dst) s.src = 35;
    }
    specs.insert(specs.end(), rpc.begin(), rpc.end());
    OpenLoopScenario workload(std::move(specs));
    ScenarioHarness h(ex, workload);
    h.begin();

    QueueSampler qs(ex.eq(), 100 * kMicrosecond);
    qs.watch(&ex.topo().host_ingress_queue(0));
    qs.start();
    h.run(horizon);
    ex.run_until(horizon);  // the whole horizon, also once every flow is done
    qs.stop();

    std::vector<double> occ_kib;
    const TimeSeries& series = qs.physical(0);
    for (std::size_t i = 0; i < series.size(); ++i)
      if (series.t[i] >= measure_from) occ_kib.push_back(series.v[i] / 1024.0);
    bench::recorder().time_series(
        "fig4_queue_" + std::string(phantom ? "phantom" : "nophantom") + ".csv",
        {&series, &qs.phantom(0)});
    const Distribution d = Distribution::of(occ_kib);
    occ.add_row({scheme.name, Table::fmt(d.mean, 1), Table::fmt(d.p99, 1),
                 Table::fmt(d.max, 1)});

    // Steady-state RPCs only: the first incast RTTs are identical in both
    // configurations (feedback has not reached the elephants yet) and would
    // otherwise dominate the p99.
    const auto steady = [measure_from](const FlowResult& r) {
      return !r.interdc && r.size_bytes <= 65536 && r.start_time >= measure_from;
    };
    const auto rpc_all = ex.fct().summarize_if(steady);
    const auto rpc_hot = ex.fct().summarize_if(
        [&steady](const FlowResult& r) { return steady(r) && r.dst == 0; });
    fct.add_row({scheme.name + " (all RPCs)", Table::fmt(rpc_all.mean_us, 1),
                 Table::fmt(rpc_all.p99_us, 1), std::to_string(rpc_all.count)});
    fct.add_row({scheme.name + " (to hotspot)", Table::fmt(rpc_hot.mean_us, 1),
                 Table::fmt(rpc_hot.p99_us, 1), std::to_string(rpc_hot.count)});
  }
  occ.print("(A/B) receiver bottleneck physical occupancy, steady state");
  fct.print("(C) Google-RPC background flow completion times");
  return 0;
}
