// Extension features: fabric oversubscription and the Annulus-style
// near-source QCN add-on.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "run_flows.hpp"
#include "transport/unocc.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

TEST(Oversubscription, UplinksRunSlower) {
  UnoConfig u;
  u.oversubscription = 4.0;
  const auto t = Experiment::make_topo_config(u, SchemeSpec::uno(), 4, 1);
  EXPECT_EQ(t.uplink_queue.rate, 25 * kGbps);
  EXPECT_EQ(t.queue.rate, 100 * kGbps);  // downlinks untouched

  UnoConfig plain;
  const auto t1 = Experiment::make_topo_config(plain, SchemeSpec::uno(), 4, 1);
  EXPECT_EQ(t1.uplink_queue.rate, 100 * kGbps);
}

TEST(Oversubscription, CrossPodThroughputBounded) {
  // A single cross-pod flow through a 4:1 oversubscribed fabric is limited
  // by the 25 Gbps uplink, not the 100 Gbps edge.
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::named("unolb");
  cfg.uno.oversubscription = 4.0;
  Experiment ex(cfg);
  ASSERT_TRUE(run_flows(ex, {{0, 12, 4 << 20, 0, false}}, 100 * kMillisecond));
  // UnoLB spreads over both 25 Gbps uplinks of the source edge (~50 Gbps
  // aggregate): ~0.7 ms, versus ~0.35 ms on the non-blocking fabric.
  const Time fct = ex.fct().results()[0].completion_time;
  EXPECT_GT(fct, 600 * kMicrosecond);
  EXPECT_LT(fct, 4 * kMillisecond);
}

TEST(Annulus, TopoConfigEnablesQcnOnSourceSidePorts) {
  UnoConfig u;
  const auto on = Experiment::make_topo_config(u, SchemeSpec::uno_annulus(), 4, 1);
  EXPECT_TRUE(on.uplink_queue.qcn.enabled);
  EXPECT_TRUE(on.border_queue.qcn.enabled);
  EXPECT_FALSE(on.queue.qcn.enabled);  // downlinks are not near-source
  const auto off = Experiment::make_topo_config(u, SchemeSpec::uno(), 4, 1);
  EXPECT_FALSE(off.uplink_queue.qcn.enabled);
}

TEST(Annulus, QcnCollapsesWindowEarlyButOncePerRtt) {
  CcParams p;
  p.base_rtt = 2 * kMillisecond;
  p.intra_rtt = 14 * kMicrosecond;
  UnoCc cc(p, {});
  const std::int64_t w0 = cc.cwnd();
  cc.on_qcn(0);
  EXPECT_LT(cc.cwnd(), w0);
  EXPECT_EQ(cc.qcn_events(), 1u);
  // Rate-limited to once per flow RTT: a storm within the RTT counts once
  // (otherwise the cuts compound 143x per WAN round trip).
  cc.on_qcn(kMicrosecond);
  cc.on_qcn(kMillisecond);
  EXPECT_EQ(cc.qcn_events(), 1u);
  cc.on_qcn(2 * kMillisecond + kMicrosecond);
  EXPECT_EQ(cc.qcn_events(), 2u);
}

TEST(Annulus, NotificationsFlowUnderUplinkCongestion) {
  // Oversubscribed uplinks + inter-DC senders: the source-side ports cross
  // the QCN threshold and notifications reach the senders within ~us.
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno_annulus();
  cfg.uno.oversubscription = 4.0;
  Experiment ex(cfg);
  // Same-pod senders funnel through the same oversubscribed uplinks.
  std::vector<FlowSpec> specs;
  for (int s = 0; s < 4; ++s) specs.push_back({s, 16 + 8 + s, 8 << 20, 0, true});
  OpenLoopScenario senders(specs);
  ScenarioHarness h(ex, senders);
  h.run(10 * kMillisecond);
  ASSERT_NE(ex.qcn_dispatcher(), nullptr);
  EXPECT_GT(ex.qcn_delivered(), 0u);
  ASSERT_TRUE(h.run(2 * kSecond));
}

TEST(Annulus, InertOnNonBlockingFabric) {
  // With 1:1 fabric the uplinks rarely exceed the threshold for this light
  // workload, and behaviour matches plain Uno.
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno_annulus();
  Experiment ex(cfg);
  ASSERT_TRUE(run_flows(ex, {{0, 16 + 2, 1 << 20, 0, true}}, 100 * kMillisecond));
  EXPECT_EQ(ex.qcn_delivered(), 0u);
}

}  // namespace
}  // namespace uno
