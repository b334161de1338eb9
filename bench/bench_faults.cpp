// Flap-frequency sweep: Uno vs MPRDMA+BBR under a flapping border link.
//
// A border link oscillates down/up (50% duty) while 5 MiB inter-DC flows
// cross the WAN cut. The sweep varies the flap period from "blinking"
// (250 us — faster than the inter-DC RTT, so feedback about the path is
// stale by the time it is acted on) to "slow outage" (8 ms). Reported per
// scheme and period: FCT, recovery time after the first onset, UnoLB
// subflow reroutes, and the loss-repair split (FEC-masked vs retransmitted).
// Paper expectation: Uno degrades gracefully across the whole range — EC
// masks the short outages and UnoLB steers around the long ones — while the
// ECMP-pinned BBR flows ride the flapping link and stall repeatedly.
#include <cstdio>

#include "bench/common.hpp"
#include "stats/resilience.hpp"

using namespace uno;

int main() {
  bench::print_header("fault sweep", "flapping border link, Uno vs MPRDMA+BBR");
  const std::uint64_t flow_bytes = bench::scaled_bytes(5.0 * (1 << 20));
  const int flows = 8;
  const Time horizon = 400 * kMillisecond;
  const Time flap_start = 1 * kMillisecond;
  // Deliberately non-harmonic with the 2 ms inter-DC RTT: round-number
  // periods phase-lock RTO-driven retries to the flap cycle and collapse
  // the sweep into identical rows.
  const std::vector<Time> periods = {270 * kMicrosecond, 530 * kMicrosecond,
                                     1100 * kMicrosecond, 2300 * kMicrosecond,
                                     4700 * kMicrosecond, 9300 * kMicrosecond};

  Table t({"scheme", "period us", "FCT ms: p50", "p99", "recov us: mean", "max",
           "reroutes", "rtx", "fec masked"});
  for (const SchemeSpec& scheme : {SchemeSpec::uno(), SchemeSpec::named("mprdma+bbr")}) {
    for (const Time period : periods) {
      ExperimentConfig cfg;
      cfg.scheme = scheme;
      cfg.seed = bench::seed();
      char clause[96];
      std::snprintf(clause, sizeof(clause), "%.0fus flap border:0 period=%.0fus duty=0.5",
                    to_microseconds(flap_start), to_microseconds(period));
      std::string err;
      if (!FaultPlan::parse(clause, &cfg.faults, &err)) {
        std::fprintf(stderr, "internal fault spec error: %s\n", err.c_str());
        return 1;
      }
      Experiment ex(cfg);

      Rng rng = Rng::stream(cfg.seed, 0xF1A9);
      const int hpd = ex.topo().hosts_per_dc();
      for (int f = 0; f < flows; ++f) {
        const int src = static_cast<int>(rng.uniform_below(hpd));
        const int dst = hpd + static_cast<int>(rng.uniform_below(hpd));
        ex.spawn({src, dst, flow_bytes, 0, true});
      }

      ResilienceTracker tracker(ex.eq(), 100 * kMicrosecond);
      for (std::size_t i = 0; i < ex.flows_spawned(); ++i) tracker.watch(ex.sender(i).live());
      tracker.note_fault(ex.fault_injector()->first_onset());
      tracker.start();
      ex.run_to_completion(horizon);
      tracker.stop();

      std::vector<double> fcts_ms;
      for (std::size_t i = 0; i < ex.flows_spawned(); ++i) {
        const FlowSender& snd = *ex.sender(i).live();
        fcts_ms.push_back(to_milliseconds(snd.done() ? snd.fct() : horizon));
      }
      const Distribution d = Distribution::of(fcts_ms);
      const ResilienceSummary rs = tracker.summarize();
      t.add_row({scheme.name, Table::fmt(to_microseconds(period), 0), Table::fmt(d.p50, 2),
                 Table::fmt(d.p99, 2), Table::fmt(rs.mean_recovery_us, 0),
                 Table::fmt(rs.max_recovery_us, 0), std::to_string(rs.reroutes),
                 std::to_string(rs.retransmits), std::to_string(rs.fec_masked)});
    }
  }
  char title[96];
  std::snprintf(title, sizeof(title), "%d x %.1f MiB inter-DC flows, flap from t=1ms", flows,
                static_cast<double>(flow_bytes) / (1 << 20));
  t.print(title);
  return 0;
}
