// Edge cases at module boundaries: odd message sizes, concurrent flows on
// one path set, reordering tolerance, mid-flight teardown, extreme EC
// geometries.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "run_flows.hpp"

namespace uno {
namespace {

ExperimentConfig k4_uno() {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  return cfg;
}

TEST(Edge, OneByteInterFlowWithEc) {
  Experiment ex(k4_uno());
  ObservedFlows flows(ex, {{0, 16 + 1, 1, 0, true}});
  ASSERT_TRUE(flows.run(100 * kMillisecond));
  const FlowSender& f = flows[0];
  // 1 data shard + 2 parity shards; completion needs just the data-count.
  EXPECT_EQ(f.total_packets(), 3u);
  EXPECT_LT(f.fct(), 3 * kMillisecond);
}

TEST(Edge, ExactBlockMultipleMessage) {
  Experiment ex(k4_uno());
  const std::uint64_t bytes = 8ull * 4096 * 16;  // exactly 16 full blocks
  ObservedFlows flows(ex, {{0, 16 + 1, bytes, 0, true}});
  ASSERT_TRUE(flows.run(200 * kMillisecond));
  const FlowSender& f = flows[0];
  EXPECT_EQ(f.total_packets(), 128u + 32u);
  // Each block completes at >= 8 of 10 shards acked; trailing parity may
  // remain unacknowledged at completion.
  EXPECT_GE(f.acked_bytes(), bytes);
  EXPECT_LE(f.acked_bytes(), bytes + 32 * 4096);
}

TEST(Edge, MessageOfMtuPlusOneByte) {
  Experiment ex(k4_uno());
  ObservedFlows flows(ex, {{0, 5, 4097, 0, false}});
  ASSERT_TRUE(flows.run(10 * kMillisecond));
  const FlowSender& f = flows[0];
  EXPECT_EQ(f.total_packets(), 2u);  // 4096 + 1
  EXPECT_EQ(f.acked_bytes(), 4097u);
}

TEST(Edge, ParityHeavyGeometry) {
  // More parity than data: (2,6). Legal MDS code; any 2 of 8 decode.
  ExperimentConfig cfg = k4_uno();
  cfg.uno.ec_data = 2;
  cfg.uno.ec_parity = 6;
  Experiment ex(cfg);
  for (int d = 0; d < 2; ++d)
    for (int j = 0; j < ex.topo().cross_link_count(); ++j)
      ex.topo().cross_link(d, j).set_loss_model(
          std::make_unique<BernoulliLoss>(0.05, Rng::stream(41, d * 8 + j)));
  ObservedFlows flows(ex, {{0, 16 + 1, 512 << 10, 0, true}});
  ASSERT_TRUE(flows.run(kSecond));
  EXPECT_TRUE(flows[0].done());
}

TEST(Edge, ManyFlowsOnSamePathSet) {
  // Ten concurrent flows between the same host pair share one cached path
  // set; delivery must demux correctly by flow id.
  Experiment ex(k4_uno());
  ObservedFlows flows(ex, std::vector<FlowSpec>(10, {3, 16 + 7, 512 << 10, 0, true}));
  ASSERT_TRUE(flows.run(kSecond));
  ASSERT_EQ(flows.size(), 10u);
  for (std::size_t i = 0; i < flows.size(); ++i) EXPECT_GE(flows[i].acked_bytes(), 512u << 10);
  for (int h = 0; h < ex.topo().num_hosts(); ++h)
    EXPECT_EQ(ex.topo().host(h).stray_packets(), 0u);
}

TEST(Edge, PathLatencySkewDoesNotCauseSpuriousRetransmits) {
  // Widen one WAN link's latency by 200 us: sprayed packets reorder across
  // paths, but the RACK window (>= base RTT) must absorb the skew.
  Experiment ex(k4_uno());
  ex.topo().cross_link(0, 2).set_latency(990 * kMicrosecond + 200 * kMicrosecond);
  ObservedFlows flows(ex, {{0, 16 + 9, 4 << 20, 0, true}});
  ASSERT_TRUE(flows.run(200 * kMillisecond));
  const FlowSender& f = flows[0];
  EXPECT_EQ(f.retransmits(), 0u);
  EXPECT_EQ(f.nacks_received(), 0u);
}

TEST(Edge, FlowTeardownMidFlightIsSafe) {
  // Destroying a Flow while its packets are still in the fabric must not
  // crash; stragglers land at the host demux as stray packets.
  ExperimentConfig cfg = k4_uno();
  EventQueue eq;
  auto topo = std::make_unique<InterDcTopology>(
      eq, Experiment::make_topo_config(cfg.uno, cfg.scheme, 4, 1));
  FlowParams params;
  params.id = 99;
  params.src = 0;
  params.dst = 16 + 4;
  params.size_bytes = 1 << 20;
  params.interdc = true;
  params.base_rtt = 2 * kMillisecond;
  const PathSet& paths = topo->paths(0, 16 + 4);
  const SchemeStackFactory stacks(cfg);
  const FlowEnv env{eq, stacks};
  {
    Flow flow(env, topo->host(0), topo->host(16 + 4), params, &paths);
    flow.start();
    eq.run_until(500 * kMicrosecond);  // packets crossing the WAN right now
  }                                    // flow destroyed here
  eq.run_all();
  EXPECT_GT(topo->host(16 + 4).stray_packets(), 0u);
}

TEST(Edge, SimultaneousOppositeDirectionFlows) {
  // A <-> B full duplex: data in both directions plus both ACK streams
  // share the reverse paths.
  Experiment ex(k4_uno());
  ObservedFlows flows(ex, {{0, 16 + 3, 8 << 20, 0, true}, {16 + 3, 0, 8 << 20, 0, true}});
  ASSERT_TRUE(flows.run(kSecond));
  const FlowSender& ab = flows[0];
  const FlowSender& ba = flows[1];
  // Full duplex: neither direction halves the other's throughput.
  const Time ideal = serialization_time(8 << 20, 100 * kGbps) + 2 * kMillisecond;
  EXPECT_LT(ab.fct(), 2 * ideal);
  EXPECT_LT(ba.fct(), 2 * ideal);
}

TEST(Edge, StaggeredStartsKeepFctCausal) {
  Experiment ex(k4_uno());
  std::vector<FlowSpec> specs;
  for (int i = 0; i < 6; ++i) specs.push_back({i, 16 + i, 1 << 20, i * 700 * kMicrosecond, true});
  ASSERT_TRUE(run_flows(ex, specs, kSecond));
  ASSERT_EQ(ex.fct().count(), 6u);
  for (const FlowResult& r : ex.fct().results()) {
    EXPECT_GE(r.completion_time, 2 * kMillisecond);  // at least one RTT
    EXPECT_LT(r.completion_time, 20 * kMillisecond);
  }
}

}  // namespace
}  // namespace uno
