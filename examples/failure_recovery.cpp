// UnoRC demo: erasure coding + adaptive subflow rerouting under failures.
//
// Part 1 uses the Reed–Solomon codec directly on real bytes — encode a
// block, destroy any two shards, reconstruct bit-exactly.
// Part 2 scripts a fault timeline with the declarative FaultPlan API
// (src/faults): a border link dies mid-flight while a gray-failure loss
// spike hits the rest of the WAN cut, showing EC masking losses without
// retransmission, UnoLB steering off the dead link, and the resilience
// tracker measuring recovery time.
//
//   $ ./failure_recovery
#include <cstdio>
#include <cstring>

#include "core/experiment.hpp"
#include "fec/rs.hpp"
#include "stats/resilience.hpp"
#include "workload/scenario_lib.hpp"

using namespace uno;

static void demo_codec() {
  std::printf("--- Reed-Solomon (8,2) on real bytes ---\n");
  ReedSolomon rs(8, 2);
  Rng rng(2024);
  std::vector<std::vector<std::uint8_t>> shards(10);
  for (int i = 0; i < 8; ++i) {
    shards[i].resize(4096);
    for (auto& b : shards[i]) b = static_cast<std::uint8_t>(rng.uniform_below(256));
  }
  rs.encode(shards);
  const auto original = shards;

  // Lose one data shard and one parity shard "in the network".
  std::vector<bool> present(10, true);
  present[3] = present[9] = false;
  shards[3].clear();
  shards[9].clear();

  if (!rs.reconstruct(shards, present)) {
    std::printf("reconstruction failed!\n");
    return;
  }
  const bool exact = shards[3] == original[3] && shards[9] == original[9];
  std::printf("lost shards 3 (data) and 9 (parity); reconstruction %s\n",
              exact ? "bit-exact" : "WRONG");
}

/// False if a transfer did not complete.
static bool demo_transport() {
  std::printf("\n--- 32 MiB WAN transfer under a scripted fault plan ---\n");
  // The whole failure scenario is one declarative timeline: a gray failure
  // (Gilbert–Elliott loss spike, 200x the paper's Table-1 event rate) on
  // every WAN link from the start, and border link 4 severed at t=1ms while
  // the flow is mid-flight.
  const char* plan_spec =
      "0us loss border:* model=ge scale=200;"
      "1ms down border:4";
  for (const bool ec : {false, true}) {
    ExperimentConfig cfg;
    cfg.scheme = ec ? SchemeSpec::uno() : SchemeSpec::named("unolb");
    std::string err;
    if (!FaultPlan::parse(plan_spec, &cfg.faults, &err)) {
      std::printf("bad fault plan: %s\n", err.c_str());
      return false;
    }
    Experiment ex(cfg);

    // Observing the flow as it is spawned keeps its sender for the tracker.
    OpenLoopScenario transfer({{5, 128 + 9, 32 << 20, 0, true}});
    ScenarioHarness harness(ex, transfer);
    FlowSender* sender = nullptr;
    harness.on_spawn([&sender](FlowSender& s) { sender = &s; });
    harness.begin();
    ResilienceTracker tracker(ex.eq(), 100 * kMicrosecond);
    tracker.watch(sender);
    tracker.note_fault(kMillisecond);  // measure from the hard failure
    tracker.start();
    const bool done = harness.run(2 * kSecond);
    tracker.stop();
    if (!done) {
      std::printf("%s: the transfer did not complete\n", ec ? "uno" : "no-ec");
      return false;
    }
    const FlowSender& f = *sender;

    const ResilienceSummary rs = tracker.summarize();
    std::printf(
        "%-7s fct=%7.2f ms  retransmits=%-4llu fec_masked=%-4llu nacks=%-3llu "
        "reroutes=%llu recovery=%.0f us\n",
        ec ? "uno" : "no-ec", to_milliseconds(f.fct()),
        static_cast<unsigned long long>(f.retransmits()),
        static_cast<unsigned long long>(f.fec_masked()),
        static_cast<unsigned long long>(f.nacks_received()),
        static_cast<unsigned long long>(f.reroutes()), rs.mean_recovery_us);
  }
  std::printf("(EC absorbs isolated losses with parity — fewer retransmissions,\n"
              " faster completion; UnoLB reroutes subflows off the dead link.)\n");
  return true;
}

int main() {
  demo_codec();
  return demo_transport() ? 0 : 1;
}
