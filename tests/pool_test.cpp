// Tests for the per-shard packet pool (net/packet.hpp): handle stability,
// slot reuse, and that every way a packet leaves the fabric returns its
// handle, at one shard and at two.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "net/loss.hpp"
#include "net/packet.hpp"
#include "workload/scenario.hpp"
#include "workload/scenario_lib.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

Packet numbered(std::uint64_t seq) { return make_data_packet(/*flow=*/7, seq, 100); }

TEST(PacketPool, StartsEmptyAndAllocatesOnFirstPut) {
  PacketPool pool;
  EXPECT_EQ(pool.bytes(), 0u);
  const PacketHandle h = pool.put(numbered(1));
  EXPECT_GE(pool.bytes(), PacketPool::kChunk * sizeof(Packet));
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool[h].seq, 1u);
  pool.drop(h);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.peak_live(), 1u);
}

TEST(PacketPool, HandlesStayValidAcrossChunkGrowth) {
  PacketPool pool;
  const std::size_t n = 3 * PacketPool::kChunk + 5;
  std::vector<PacketHandle> handles;
  handles.push_back(pool.put(numbered(0)));
  const Packet* first = &pool[handles[0]];
  for (std::size_t i = 1; i < n; ++i) handles.push_back(pool.put(numbered(i)));
  EXPECT_EQ(&pool[handles[0]], first);  // chunks never move
  pool[handles[1]].ecn_ce = true;       // marked in place
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(pool[handles[i]].seq, i);
  EXPECT_TRUE(pool[handles[1]].ecn_ce);
  pool.drop(handles[1]);
  EXPECT_EQ(pool.live(), n - 1);
  EXPECT_EQ(pool.peak_live(), n);
  EXPECT_EQ(pool.bytes() / (PacketPool::kChunk * sizeof(Packet)), 4u);
}

TEST(PacketPool, FreedSlotIsReusedFirst) {
  PacketPool pool;
  const PacketHandle a = pool.put(numbered(1));
  const PacketHandle b = pool.put(numbered(2));
  const PacketHandle c = pool.put(numbered(3));
  pool.drop(b);
  const PacketHandle d = pool.put(numbered(4));
  EXPECT_EQ(d, b);
  EXPECT_EQ(pool[d].seq, 4u);
  EXPECT_EQ(pool[c].seq, 3u);  // neighbours untouched by the free-list link
  pool.drop(a);
  pool.drop(c);
  EXPECT_EQ(pool.put(numbered(5)), c);  // last in, first out
  EXPECT_EQ(pool.put(numbered(6)), a);
  EXPECT_EQ(pool.live(), 3u);
  EXPECT_EQ(pool.peak_live(), 3u);
  EXPECT_EQ(pool.bytes() / (PacketPool::kChunk * sizeof(Packet)), 1u);  // one chunk
}

/// Every pool's live count against what the queues and links built on it
/// still hold: nothing else keeps a handle.
void expect_pools_hold_only_queued_and_in_flight(const InterDcTopology& topo) {
  for (const PacketPool* pool : topo.packet_pools()) {
    std::size_t held = 0;
    for (const Queue* q : topo.all_queues())
      if (&q->pool() == pool) held += q->queued();
    for (const Link* l : topo.all_links())
      if (&l->pool() == pool) held += l->in_flight();
    EXPECT_EQ(pool->live(), held);
  }
}

/// Exercises every drop path while flows run: queue drops (trim off) or
/// trims (trim on) at shallow ports, a lossy link, a lossy channel, a link
/// taken down with packets in flight, and packets of an unknown flow that
/// end as strays at a host — within one DC and across the seam. Sharded, the
/// two DCs' pools are filled and drained on their own shard threads.
TEST(PacketPool, EveryDropPathReturnsItsHandle) {
  for (const int shards : {1, 2}) {
    for (const bool trim : {false, true}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " trim=" + std::to_string(trim));
      ExperimentConfig cfg;
      cfg.seed = 3;
      cfg.fattree_k = 4;
      cfg.shards = shards;
      cfg.uno.queue_capacity = 32 << 10;  // an incast overflows these ports
      cfg.uno.trim_enabled = trim;
      Experiment ex(cfg);
      ASSERT_EQ(ex.shards(), shards);
      InterDcTopology& topo = ex.topo();
      ASSERT_EQ(topo.packet_pools().size(), static_cast<std::size_t>(shards));
      for (int c = 0; c < topo.dc(0).num_cores(); ++c)
        topo.border_core_link(0, c).set_loss_model(
            std::make_unique<BernoulliLoss>(0.02, Rng::stream(71, c)));
      topo.cross_link(1, 0).set_loss_model(std::make_unique<BernoulliLoss>(0.05, Rng(72)));
      OpenLoopScenario incast(make_incast(HostSpace{16, 2}, /*receiver=*/0, /*intra=*/8,
                                          /*inter=*/8, 256 << 10));
      ScenarioHarness h(ex, incast);
      h.run(20 * kMicrosecond);  // the incast's first window is in flight
      expect_pools_hold_only_queued_and_in_flight(topo);
      const std::vector<Link*> links = topo.all_links();
      Link* busiest = *std::max_element(links.begin(), links.end(), [](Link* a, Link* b) {
        return a->in_flight() < b->in_flight();
      });
      ASSERT_GT(busiest->in_flight(), 0u);
      const std::uint64_t before = busiest->dropped();
      const std::size_t flushed = busiest->in_flight();
      busiest->set_up(false);  // severs the wire: in-flight packets are lost
      EXPECT_EQ(busiest->dropped(), before + flushed);
      expect_pools_hold_only_queued_and_in_flight(topo);

      h.run(60 * kMicrosecond);
      busiest->set_up(true);
      for (const int src : {1, 20}) {  // intra-DC, and across the seam
        Packet p = make_data_packet(/*flow=*/1ull << 40, 0, 4096);
        p.hops = topo.paths(src, 2).forward[0].hops.begin();
        forward(std::move(p));
      }
      expect_pools_hold_only_queued_and_in_flight(topo);

      ASSERT_TRUE(h.run(2 * kSecond));
      ex.run_until(ex.now() + 20 * kMillisecond);  // late duplicates and ACKs

      std::uint64_t queue_drops = 0, link_drops = 0, strays = 0;
      for (const Queue* q : topo.all_queues()) queue_drops += q->drops();
      for (const Link* l : topo.all_links()) link_drops += l->dropped();
      for (int h = 0; h < topo.num_hosts(); ++h) strays += topo.host(h).stray_packets();
      if (trim) {
        EXPECT_GT(topo.total_trims(), 0u);
      } else {
        EXPECT_GT(queue_drops, 0u);
      }
      EXPECT_GT(link_drops, flushed);  // the lossy border links dropped too
      EXPECT_GT(topo.cross_link(1, 0).dropped(), 0u);
      EXPECT_EQ(strays, 2u);
      expect_pools_hold_only_queued_and_in_flight(topo);
      for (const PacketPool* pool : topo.packet_pools()) {
        EXPECT_EQ(pool->live(), 0u);
        EXPECT_GT(pool->peak_live(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace uno
