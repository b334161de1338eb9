// Parameterized sweeps: behaviour must hold across the configuration space,
// not just at the paper's defaults — EC geometries under loss, RTT ratios,
// buffer depths, and fat-tree arities.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "run_flows.hpp"
#include "transport/unocc.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

// --- EC geometry sweep --------------------------------------------------------

class EcGeometrySweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(EcGeometrySweep, WanFlowSurvivesRandomLoss) {
  const auto [data, parity] = GetParam();
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  cfg.uno.ec_data = data;
  cfg.uno.ec_parity = parity;
  Experiment ex(cfg);
  for (int d = 0; d < 2; ++d)
    for (int j = 0; j < ex.topo().cross_link_count(); ++j)
      ex.topo().cross_link(d, j).set_loss_model(
          std::make_unique<BernoulliLoss>(0.005, Rng::stream(31, d * 8 + j)));
  ObservedFlows flows(ex, {{2, 16 + 9, 2 << 20, 0, true}});
  ASSERT_TRUE(flows.run(kSecond)) << data << "," << parity;
  const FlowSender& f = flows[0];
  EXPECT_TRUE(f.done());
  // Wire overhead matches the geometry: parity/data extra packets.
  const std::uint64_t data_pkts = (2 << 20) / 4096;
  const std::uint64_t blocks = (data_pkts + data - 1) / data;
  EXPECT_EQ(f.total_packets(), data_pkts + blocks * parity);
}

INSTANTIATE_TEST_SUITE_P(Geometries, EcGeometrySweep,
                         ::testing::Values(std::pair{8, 2},  // paper default
                                           std::pair{4, 2}, std::pair{8, 4},
                                           std::pair{16, 2}, std::pair{8, 1},
                                           std::pair{2, 2}));

// --- RTT-ratio sweep ----------------------------------------------------------

class RttRatioSweep : public ::testing::TestWithParam<int> {};

TEST_P(RttRatioSweep, InterFlowNearIdealWhenAlone) {
  // Across the Fig.-11 ratio range, a lone inter-DC flow's FCT stays within
  // a small factor of serialization + RTT.
  const int ratio = GetParam();
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  cfg.uno.inter_rtt = ratio * 14 * kMicrosecond;
  Experiment ex(cfg);
  ASSERT_TRUE(run_flows(ex, {{0, 16 + 7, 4 << 20, 0, true}}, 4 * kSecond));
  const Time fct = ex.fct().results()[0].completion_time;
  const Time ideal = serialization_time(4 << 20, 100 * kGbps) + cfg.uno.inter_rtt;
  EXPECT_LT(fct, 2 * ideal) << "ratio " << ratio;
  EXPECT_GE(fct, ideal - 10 * kMicrosecond);
}

INSTANTIATE_TEST_SUITE_P(Ratios, RttRatioSweep, ::testing::Values(8, 32, 128, 512));

TEST_P(RttRatioSweep, EpochCountIndependentOfRtt) {
  // The unified epoch means the number of CC decisions per unit time does
  // not shrink as the WAN gets longer (the heart of §4.1.1).
  const int ratio = GetParam();
  CcParams p;
  p.base_rtt = ratio * 14 * kMicrosecond;
  p.intra_rtt = 14 * kMicrosecond;
  UnoCc::Params up;
  up.enable_qa = false;
  UnoCc cc(p, up);
  const Time horizon = p.base_rtt + 5 * kMillisecond;
  for (Time t = 0; t < horizon; t += kMicrosecond) {
    AckEvent e;
    e.now = t;
    e.bytes_acked = 4096;
    e.rtt = p.base_rtt;
    e.pkt_sent_time = t - p.base_rtt;
    cc.on_ack(e);
  }
  // ~5 ms of steady state after warm-up -> ~357 epochs at 14 us each.
  EXPECT_GT(cc.epochs(), 250u) << "ratio " << ratio;
  EXPECT_LT(cc.epochs(), 450u) << "ratio " << ratio;
}

// --- buffer-depth sweep ---------------------------------------------------------

class BufferSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BufferSweep, IncastCompletesAtAnyDepth) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  cfg.uno.queue_capacity = GetParam();
  cfg.uno.border_queue_capacity = GetParam();
  Experiment ex(cfg);
  EXPECT_TRUE(run_flows(ex, make_incast(HostSpace{16, 2}, 0, 3, 3, 2 << 20), kSecond))
      << "capacity " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Depths, BufferSweep,
                         ::testing::Values(64 << 10, 175'000, 1 << 20, 8 << 20));

// --- arity sweep -----------------------------------------------------------------

class AritySweep : public ::testing::TestWithParam<int> {};

TEST_P(AritySweep, TopologyConsistentAndRoutable) {
  const int k = GetParam();
  ExperimentConfig cfg;
  cfg.fattree_k = k;
  cfg.scheme = SchemeSpec::uno();
  Experiment ex(cfg);
  const int hpd = ex.topo().hosts_per_dc();
  EXPECT_EQ(hpd, k * k * k / 4);
  // One intra (cross-pod) and one inter flow route and complete.
  const int far = hpd - 1;
  EXPECT_TRUE(run_flows(ex, {{0, far, 256 << 10, 0, false}, {1, hpd + 1, 256 << 10, 0, true}},
                        500 * kMillisecond))
      << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Arities, AritySweep, ::testing::Values(2, 4, 6, 8));

// --- datacenter-count sweep -----------------------------------------------------

class DcCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(DcCountSweep, AllPairsRoutableAndIsolatedFailures) {
  const int dcs = GetParam();
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  cfg.uno.num_dcs = dcs;
  Experiment ex(cfg);
  const int hpd = ex.topo().hosts_per_dc();
  EXPECT_EQ(ex.topo().num_hosts(), dcs * hpd);

  // One flow between every ordered pair of DCs.
  std::vector<FlowSpec> specs;
  for (int a = 0; a < dcs; ++a)
    for (int b = 0; b < dcs; ++b)
      if (a != b) specs.push_back({a * hpd + a, b * hpd + 3 + a, 512 << 10, 0, true});
  ASSERT_TRUE(run_flows(ex, specs, kSecond)) << dcs << " DCs";

  if (dcs < 3) return;
  // Failing the whole 0->1 mesh must not affect 0->2 traffic.
  for (int j = 0; j < ex.topo().cross_link_count(); ++j)
    ex.topo().cross_link(0, 1, j).set_up(false);
  // A second harness on the same Experiment.
  ObservedFlows round2(ex, {{2, 2 * hpd + 9, 512 << 10, ex.now(), true}});
  ASSERT_TRUE(round2.run(ex.now() + 500 * kMillisecond));
  EXPECT_TRUE(round2[0].done());
  EXPECT_EQ(round2[0].retransmits(), 0u);  // untouched pair sees no loss
}

INSTANTIATE_TEST_SUITE_P(DcCounts, DcCountSweep, ::testing::Values(2, 3, 4));

}  // namespace
}  // namespace uno
