// Randomized whole-system invariant tests ("fuzzing" the simulator):
// random schemes, workloads, failures and loss models must always preserve
// the core guarantees — every flow completes, every byte is acked exactly
// once, FCTs are causal (>= unloaded ideal), and no packet is misdelivered.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "run_flows.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

SchemeSpec random_scheme(Rng& rng) {
  switch (rng.uniform_below(8)) {
    case 0: return SchemeSpec::uno();
    case 1: return SchemeSpec::named("uno+ecmp");
    case 2: return SchemeSpec::named("unolb");
    case 3: return SchemeSpec::named("gemini");
    case 4: return SchemeSpec::named("mprdma+bbr");
    case 5: return SchemeSpec::named("swift+bbr");
    case 6: return SchemeSpec::uno_annulus();
    default: return SchemeSpec::named("dctcp");
  }
}

class RandomScenarioTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomScenarioTest, InvariantsHold) {
  Rng rng = Rng::stream(0xF00D, static_cast<std::uint64_t>(GetParam()));

  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.seed = 1000 + static_cast<std::uint64_t>(GetParam());
  cfg.scheme = random_scheme(rng);
  if (rng.chance(0.3)) cfg.uno.oversubscription = 2.0;
  if (rng.chance(0.3)) cfg.uno.queue_capacity = 256 << 10;  // shallow buffers
  if (rng.chance(0.2)) cfg.uno.inter_rtt = 500 * kMicrosecond;
  Experiment ex(cfg);
  const HostSpace hosts{16, 2};

  // Random failure environment (kept survivable: at most 2 of 8 WAN links).
  // ECMP-pinned schemes are exempt from link kills: a flow hashed onto a
  // dead link can never finish ("ECMP is oblivious to network failures",
  // §5.2.3 — the paper excludes ECMP from its failure experiments too).
  const bool ecmp_pinned = cfg.scheme.lb_inter == LbKind::kEcmp;
  const int dead_links = ecmp_pinned ? 0 : static_cast<int>(rng.uniform_below(3));
  for (int j = 0; j < dead_links; ++j) ex.topo().cross_link(0, j).set_up(false);
  if (rng.chance(0.5)) {
    BurstLoss::Params loss = BurstLoss::table1_setup1();
    loss.event_rate *= 100;
    for (int d = 0; d < 2; ++d)
      for (int j = 0; j < ex.topo().cross_link_count(); ++j)
        ex.topo().cross_link(d, j).set_loss_model(
            std::make_unique<BurstLoss>(loss, Rng::stream(cfg.seed, 50 + d * 8 + j)));
  }

  // Random workload: a burst of flows with random endpoints/sizes/starts.
  const int flows = 4 + static_cast<int>(rng.uniform_below(12));
  std::uint64_t total_bytes = 0;
  std::vector<FlowSpec> specs;
  for (int f = 0; f < flows; ++f) {
    const int src = static_cast<int>(rng.uniform_below(32));
    int dst = static_cast<int>(rng.uniform_below(32));
    while (dst == src) dst = static_cast<int>(rng.uniform_below(32));
    const std::uint64_t bytes = 1 + rng.uniform_below(2 << 20);
    const Time start = static_cast<Time>(rng.uniform_below(2 * kMillisecond));
    total_bytes += bytes;
    specs.push_back({src, dst, bytes, start, hosts.dc_of(src) != hosts.dc_of(dst)});
  }

  ObservedFlows senders(ex, specs);
  ASSERT_TRUE(senders.run(5 * kSecond))
      << "scheme=" << cfg.scheme.name << " flows=" << flows
      << " dead=" << dead_links;

  // Invariants.
  std::uint64_t acked = 0;
  ASSERT_EQ(senders.size(), specs.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    const FlowSender& s = senders[i];
    EXPECT_TRUE(s.done());
    EXPECT_GE(s.acked_bytes(), s.params().size_bytes);  // EC acks parity too
    EXPECT_GT(s.fct(), 0);
    acked += s.acked_bytes();
  }
  EXPECT_GE(acked, total_bytes);
  for (int h = 0; h < ex.topo().num_hosts(); ++h)
    EXPECT_EQ(ex.topo().host(h).stray_packets(), 0u);
  // Causality: no flow beats the speed-of-light + serialization bound.
  for (const FlowResult& r : ex.fct().results()) {
    const Time ideal = serialization_time(static_cast<std::int64_t>(r.size_bytes),
                                          100 * kGbps) / 2 +
                       (r.interdc ? cfg.uno.inter_rtt : cfg.uno.intra_rtt) / 2;
    EXPECT_GE(r.completion_time, ideal) << "flow " << r.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScenarioTest, ::testing::Range(0, 24));

}  // namespace
}  // namespace uno
