// Fat-tree / inter-DC topology structure and path-enumeration tests.
#include <gtest/gtest.h>

#include <set>

#include "topo/interdc.hpp"

namespace uno {
namespace {

InterDcConfig small_cfg(int k = 4) {
  InterDcConfig c;
  c.k = k;
  return c;
}

TEST(FatTree, DimensionsForK4) {
  EventQueue eq;
  FatTreeConfig cfg;
  cfg.k = 4;
  FlowTable flows;
  PacketPool pool;
  FatTreeDC dc(eq, pool, 0, cfg, flows);
  EXPECT_EQ(dc.num_hosts(), 16);
  EXPECT_EQ(dc.num_pods(), 4);
  EXPECT_EQ(dc.num_cores(), 4);
  EXPECT_EQ(dc.edges_per_pod(), 2);
  EXPECT_EQ(dc.hosts_per_edge(), 2);
}

TEST(FatTree, DimensionsForK8MatchPaper) {
  EventQueue eq;
  FatTreeConfig cfg;
  cfg.k = 8;
  FlowTable flows;
  PacketPool pool;
  FatTreeDC dc(eq, pool, 0, cfg, flows);
  // "16 core switches and 8 pods with 4 aggregate and 4 edge switches. Each
  // edge switch is connected to 4 servers." (§5.1)
  EXPECT_EQ(dc.num_cores(), 16);
  EXPECT_EQ(dc.num_pods(), 8);
  EXPECT_EQ(dc.edges_per_pod(), 4);
  EXPECT_EQ(dc.hosts_per_edge(), 4);
  EXPECT_EQ(dc.num_hosts(), 128);
}

TEST(FatTree, HostDecomposition) {
  EventQueue eq;
  FatTreeConfig cfg;
  cfg.k = 4;
  FlowTable flows;
  PacketPool pool;
  FatTreeDC dc(eq, pool, 0, cfg, flows);
  // Host 7 with k=4: hosts_per_pod=4 -> pod 1, edge 1, port 1.
  EXPECT_EQ(dc.pod_of(7), 1);
  EXPECT_EQ(dc.edge_of(7), 1);
  EXPECT_EQ(dc.port_of(7), 1);
  EXPECT_EQ(dc.edge_index(7), 3);
}

TEST(FatTree, QueueAndLinkCounts) {
  EventQueue eq;
  FatTreeConfig cfg;
  cfg.k = 4;
  FlowTable flows;
  PacketPool pool;
  FatTreeDC dc(eq, pool, 0, cfg, flows);
  // host_up 16, edge_down 8*2, edge_up 8*2, agg_down 8*2, agg_up 8*2,
  // core_down 4*4 = 16+16+16+16+16+16 = 96.
  EXPECT_EQ(dc.all_queues().size(), 96u);
  EXPECT_EQ(dc.all_links().size(), 96u);
}

TEST(InterDc, BaseRttsMatchTable2) {
  InterDcConfig cfg = small_cfg();
  EXPECT_EQ(cfg.intra_base_rtt(), 14 * kMicrosecond);
  EXPECT_EQ(cfg.inter_base_rtt(), 2 * kMillisecond);
  // And the helper inverts correctly.
  cfg.cross_link_latency = cfg.cross_latency_for_rtt(8 * kMillisecond);
  EXPECT_EQ(cfg.inter_base_rtt(), 8 * kMillisecond);
}

TEST(InterDc, HostIndexing) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  EXPECT_EQ(topo.num_hosts(), 32);
  EXPECT_EQ(topo.dc_of(0), 0);
  EXPECT_EQ(topo.dc_of(16), 1);
  EXPECT_EQ(topo.local_id(20), 4);
  EXPECT_TRUE(topo.is_interdc(3, 17));
  EXPECT_FALSE(topo.is_interdc(3, 7));
}

/// Walk a route and validate structural invariants: non-null hops, one
/// queue per pipe (never a Link or ChannelLink: each queue feeds its own
/// link), terminating at the right host.
void check_route(InterDcTopology& topo, const Route& r, int dst) {
  ASSERT_GE(r.hops.size(), 3u);
  for (PacketSink* h : r.hops) ASSERT_NE(h, nullptr);
  EXPECT_EQ(r.hops.back(), &topo.host(dst));
  for (std::size_t i = 0; i + 1 < r.hops.size(); ++i) {
    EXPECT_NE(dynamic_cast<Queue*>(r.hops[i]), nullptr) << "hop " << i;
    EXPECT_EQ(dynamic_cast<Link*>(r.hops[i]), nullptr) << "hop " << i;
    EXPECT_EQ(dynamic_cast<ChannelLink*>(r.hops[i]), nullptr) << "hop " << i;
  }
}

/// The propagation latency of the link a route entry's queue feeds.
Time pipe_latency(PacketSink* hop) {
  PacketSink& link = dynamic_cast<Queue&>(*hop).next();
  if (auto* l = dynamic_cast<Link*>(&link)) return l->latency();
  return dynamic_cast<ChannelLink&>(link).latency();
}

TEST(InterDc, SameEdgePathIsMinimal) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const PathSet& ps = topo.paths(0, 1);  // same edge switch
  ASSERT_EQ(ps.size(), 1u);
  check_route(topo, ps.forward[0], 1);
  check_route(topo, ps.reverse[0], 0);
  EXPECT_EQ(ps.forward[0].hops.size(), 3u);  // 2 pipes + host
}

TEST(InterDc, SamePodPathsPerAgg) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const PathSet& ps = topo.paths(0, 2);  // same pod, different edge
  ASSERT_EQ(ps.size(), 2u);              // one per aggregation switch (k/2)
  for (const Route& r : ps.forward) check_route(topo, r, 2);
}

TEST(InterDc, CrossPodPathsPerAggCore) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const PathSet& ps = topo.paths(0, 12);  // different pod
  ASSERT_EQ(ps.size(), 4u);               // (k/2)^2
  std::set<PacketSink*> first_hops;
  for (const Route& r : ps.forward) {
    check_route(topo, r, 12);
    EXPECT_EQ(r.hops.size(), 7u);  // 6 pipes + host
    first_hops.insert(r.hops[1]);  // edge-up queue differs by agg
  }
  EXPECT_EQ(first_hops.size(), 2u);  // 2 agg choices
}

TEST(InterDc, InterDcPathsCoverAllCrossLinks) {
  EventQueue eq;
  InterDcConfig cfg = small_cfg();
  cfg.max_paths_inter = 16;
  InterDcTopology topo(eq, cfg);
  const PathSet& ps = topo.paths(2, 17);
  ASSERT_EQ(ps.size(), 16u);
  std::set<PacketSink*> cross_queues;
  for (const Route& r : ps.forward) {
    check_route(topo, r, 17);
    EXPECT_EQ(r.hops.size(), 10u);   // 9 pipes + host
    cross_queues.insert(r.hops[4]);  // border-cross queue
  }
  // Entropies cycle across all 8 border links (i % cross_links).
  EXPECT_EQ(cross_queues.size(), 8u);
  std::set<PacketSink*> expected;
  for (int j = 0; j < 8; ++j) expected.insert(&topo.cross_queue(0, j));
  EXPECT_EQ(cross_queues, expected);
}

TEST(InterDc, PathCacheReturnsSameObject) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const PathSet& a = topo.paths(0, 12);
  const PathSet& b = topo.paths(0, 12);
  EXPECT_EQ(&a, &b);
}

TEST(InterDc, ForwardReverseArePaired) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const PathSet& ps = topo.paths(1, 20);
  ASSERT_EQ(ps.forward.size(), ps.reverse.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(ps.forward[i].path_id, i);
    EXPECT_EQ(ps.reverse[i].hops.back(), &topo.host(1));
  }
}

TEST(InterDc, PropagationDelayMatchesConfiguredRtt) {
  EventQueue eq;
  InterDcConfig cfg = small_cfg();
  InterDcTopology topo(eq, cfg);
  // Sum each pipe's link latency along a cross-pod intra route: should equal
  // half the configured intra base RTT.
  const PathSet& ps = topo.paths(0, 12);
  Time total = 0;
  const Route& intra = ps.forward[0];
  for (std::size_t i = 0; i + 1 < intra.size(); ++i) total += pipe_latency(intra.hops[i]);
  EXPECT_EQ(total, cfg.intra_base_rtt() / 2);

  const Route& inter = topo.paths(0, 16 + 12).forward[0];
  Time wan = 0;
  for (std::size_t i = 0; i + 1 < inter.size(); ++i) wan += pipe_latency(inter.hops[i]);
  EXPECT_EQ(wan, cfg.inter_base_rtt() / 2);
}

TEST(InterDc, RoutesHoldOneEntryPerPipe) {
  // Same edge, same pod, cross-pod and inter-DC: 2, 4, 6 and 9 pipes, each
  // one queue entry, plus the destination host.
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const struct {
    int src, dst;
    std::size_t len;
  } kinds[] = {{0, 1, 3}, {0, 2, 5}, {0, 12, 7}, {0, 16 + 12, 10}};
  for (const auto& k : kinds) {
    const PathSet& ps = topo.paths(k.src, k.dst);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      check_route(topo, ps.forward[i], k.dst);
      check_route(topo, ps.reverse[i], k.src);
      EXPECT_EQ(ps.forward[i].size(), k.len) << k.src << "->" << k.dst;
      EXPECT_EQ(ps.reverse[i].size(), k.len) << k.dst << "->" << k.src;
    }
  }
}

TEST(FlowTable, TopologiesShareNoEntries) {
  // Two topologies in one process (as parallel batch runs build them): a
  // flow added to one is unknown to the other's hosts.
  EventQueue eq;
  InterDcTopology a(eq, small_cfg()), b(eq, small_cfg());
  struct Count final : PacketSink {
    std::string n = "count";
    int got = 0;
    void receive(Packet&&) override { ++got; }
    const std::string& name() const override { return n; }
  } snd, rcv;
  a.host(0).flow_table().add(1, &snd, &rcv);
  EXPECT_EQ(&a.host(3).flow_table(), &a.host(16 + 5).flow_table());
  EXPECT_NE(&a.host(3).flow_table(), &b.host(3).flow_table());
  b.host(3).receive(make_data_packet(1, 0, 100));
  EXPECT_EQ(b.host(3).stray_packets(), 1u);
  a.host(3).receive(make_data_packet(1, 0, 100));
  EXPECT_EQ(a.host(3).stray_packets(), 0u);
  EXPECT_EQ(rcv.got, 1);
}

TEST(InterDc, DropAccountingStartsAtZero) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  EXPECT_EQ(topo.total_drops(), 0u);
}

}  // namespace
}  // namespace uno
