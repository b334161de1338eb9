// Tests for packets, links, queues, RED/phantom marking and loss models.
#include <gtest/gtest.h>

#include <memory>

#include "net/flow_table.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/loss.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/event.hpp"

namespace uno {
namespace {

/// Terminal sink recording arrivals.
class SinkRecorder : public PacketSink {
 public:
  explicit SinkRecorder(EventQueue& eq) : eq_(eq) {}
  void receive(Packet&& p) override {
    arrivals.push_back({eq_.now(), std::move(p)});
  }
  const std::string& name() const override { return name_; }
  std::vector<std::pair<Time, Packet>> arrivals;

 private:
  EventQueue& eq_;
  std::string name_ = "sink";
};

Route make_route(std::initializer_list<PacketSink*> hops) {
  Route r;
  r.hops = hops;
  return r;
}

Packet data_on(const Route& r, std::uint32_t size = 4096, std::uint64_t seq = 0) {
  Packet p = make_data_packet(/*flow=*/1, seq, size);
  p.hops = r.hops.begin();
  p.hop = 0;
  return p;
}

TEST(Link, DelaysByLatency) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  Link link(eq, pool, "l", 5 * kMicrosecond);
  Route r = make_route({&link, &sink});
  forward(data_on(r));
  eq.run_all();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, 5 * kMicrosecond);
  EXPECT_EQ(link.delivered(), 1u);
}

TEST(Link, PreservesFifoOrder) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  Link link(eq, pool, "l", kMicrosecond);
  Route r = make_route({&link, &sink});
  struct Feeder : EventHandler {
    Route* r;
    void on_event(std::uint64_t tag) override {
      Packet p = make_data_packet(1, tag, 100);
      p.hops = r->hops.begin();
      forward(std::move(p));
    }
  } feeder;
  feeder.r = &r;
  for (std::uint32_t i = 0; i < 10; ++i) eq.schedule_at(i * 100, &feeder, i);
  eq.run_all();
  ASSERT_EQ(sink.arrivals.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sink.arrivals[i].second.seq, i);
}

TEST(Link, DownLinkDropsEverything) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  Link link(eq, pool, "l", kMicrosecond);
  Route r = make_route({&link, &sink});
  link.set_up(false);
  forward(data_on(r));
  eq.run_all();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(link.dropped(), 1u);
  link.set_up(true);
  forward(data_on(r));
  eq.run_all();
  EXPECT_EQ(sink.arrivals.size(), 1u);
}

TEST(Link, BernoulliLossDropsExpectedFraction) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  Link link(eq, pool, "l", 1);
  Route r = make_route({&link, &sink});
  link.set_loss_model(std::make_unique<BernoulliLoss>(0.3, Rng(5)));
  for (int i = 0; i < 10000; ++i) forward(data_on(r));
  eq.run_all();
  EXPECT_NEAR(static_cast<double>(link.dropped()) / 10000.0, 0.3, 0.03);
}

TEST(Queue, SerializesAtLineRate) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.rate = 100 * kGbps;
  Queue q(eq, pool, "q", cfg, sink);
  Route r = make_route({&q});
  // Two 4096 B packets back to back: 327.68 ns each.
  forward(data_on(r, 4096, 0));
  forward(data_on(r, 4096, 1));
  eq.run_all();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, 327'680);
  EXPECT_EQ(sink.arrivals[1].first, 655'360);
  EXPECT_EQ(q.forwarded(), 2u);
  EXPECT_EQ(q.bytes_forwarded(), 8192u);
}

TEST(Queue, TailDropsWhenFull) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.capacity_bytes = 10'000;
  Queue q(eq, pool, "q", cfg, sink);
  Route r = make_route({&q});
  for (int i = 0; i < 5; ++i) forward(data_on(r, 4096, i));  // 3rd..5th exceed
  EXPECT_EQ(q.drops(), 3u);
  EXPECT_LE(q.occupancy(), cfg.capacity_bytes);
  eq.run_all();
  EXPECT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(q.occupancy(), 0);
}

TEST(Queue, RedMarksAboveMaxThreshold) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.capacity_bytes = 100'000;
  cfg.red.enabled = true;
  cfg.red.min_bytes = 25'000;
  cfg.red.max_bytes = 75'000;
  Queue q(eq, pool, "q", cfg, sink);
  Route r = make_route({&q});
  int marked = 0;
  for (int i = 0; i < 24; ++i) forward(data_on(r, 4096, i));  // up to ~98 KB
  eq.run_all();
  for (auto& [t, p] : sink.arrivals)
    if (p.ecn_ce) ++marked;
  // Below min nothing marks; above max everything marks.
  EXPECT_FALSE(sink.arrivals[0].second.ecn_ce);
  EXPECT_TRUE(sink.arrivals[23].second.ecn_ce);
  EXPECT_GT(marked, 5);
}

TEST(Queue, NotEcnCapablePacketsNeverMarked) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.capacity_bytes = 100'000;
  cfg.red.enabled = true;
  cfg.red.min_bytes = 0;  // mark everything markable
  cfg.red.max_bytes = 1;
  Queue q(eq, pool, "q", cfg, sink);
  Route r = make_route({&q});
  Packet p = data_on(r);
  p.ecn_capable = false;
  forward(std::move(p));
  eq.run_all();
  EXPECT_FALSE(sink.arrivals[0].second.ecn_ce);
}

TEST(Queue, PhantomDrainsSlowerThanLineRate) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.rate = 100 * kGbps;
  cfg.capacity_bytes = 1 << 20;
  cfg.phantom.enabled = true;
  cfg.phantom.drain_fraction = 0.9;
  cfg.phantom.red.enabled = true;
  cfg.phantom.red.min_bytes = 1 << 20;  // no marking in this test
  cfg.phantom.red.max_bytes = 2 << 20;
  Queue q(eq, pool, "q", cfg, sink);
  Route r = make_route({&q});
  // Send 100 packets back-to-back at line rate: physical queue drains fully,
  // phantom retains ~10% of the bytes.
  for (int i = 0; i < 100; ++i) forward(data_on(r, 4096, i));
  eq.run_all();
  EXPECT_EQ(q.occupancy(), 0);
  const Time now = eq.now();
  const std::int64_t phantom = q.phantom_occupancy(now);
  EXPECT_GT(phantom, 30'000);  // ~40960 expected (10% of 409600)
  EXPECT_LT(phantom, 50'000);
  // And it keeps draining afterwards.
  EXPECT_LT(q.phantom_occupancy(now + 3 * kMicrosecond), phantom);
  EXPECT_EQ(q.phantom_occupancy(now + kMillisecond), 0);
}

TEST(Queue, PhantomMarkingIndependentOfPhysicalOccupancy) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.rate = 100 * kGbps;
  cfg.capacity_bytes = 10 << 20;  // deep physical buffer, RED off
  cfg.phantom.enabled = true;
  cfg.phantom.drain_fraction = 0.5;  // aggressive for the test
  cfg.phantom.red.enabled = true;
  cfg.phantom.red.min_bytes = 8'192;
  cfg.phantom.red.max_bytes = 16'384;
  Queue q(eq, pool, "q", cfg, sink);
  Route r = make_route({&q});
  for (int i = 0; i < 50; ++i) forward(data_on(r, 4096, i));
  eq.run_all();
  int marked = 0;
  for (auto& [t, p] : sink.arrivals)
    if (p.ecn_ce) ++marked;
  EXPECT_GT(marked, 25);  // phantom saturates quickly at 0.5x drain
}

TEST(Queue, HandsServedPacketsToItsDownstreamSink) {
  // The queue's route entry is its only one: what it serializes goes to the
  // sink it was built with, whatever the packet's route holds next.
  EventQueue eq;
  PacketPool pool;
  SinkRecorder link_side(eq), route_side(eq);
  Queue q(eq, pool, "q", QueueConfig{}, link_side);
  Route r = make_route({&q, &route_side});
  forward(data_on(r, 4096, 0));
  forward(data_on(r, 4096, 1));
  eq.run_all();
  ASSERT_EQ(link_side.arrivals.size(), 2u);
  EXPECT_EQ(link_side.arrivals[1].second.seq, 1u);
  EXPECT_EQ(link_side.arrivals[0].second.hop, 1u);  // the queue does not advance it
  EXPECT_TRUE(route_side.arrivals.empty());
  EXPECT_EQ(&q.next(), &link_side);
}

Packet typed(std::uint64_t flow, PacketType type) {
  Packet p = make_data_packet(flow, 0, 100);
  p.type = type;
  return p;
}

TEST(Host, DemuxesByFlowId) {
  EventQueue eq;
  FlowTable flows;
  Host host(0, "h0", flows);
  SinkRecorder a(eq), b(eq), senders(eq);
  flows.add(1, &senders, &a);
  flows.add(2, &senders, &b);
  Route r = make_route({&host});
  forward(data_on(r));  // flow 1
  Packet p2 = make_data_packet(2, 0, 100);
  p2.hops = r.hops.begin();
  forward(std::move(p2));
  Packet p3 = make_data_packet(3, 0, 100);  // unknown flow
  p3.hops = r.hops.begin();
  forward(std::move(p3));
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(host.stray_packets(), 1u);
  flows.remove(1);
  forward(data_on(r, 100, 1));
  EXPECT_EQ(host.stray_packets(), 2u);
  EXPECT_TRUE(senders.arrivals.empty());
}

TEST(FlowTable, DataReachesReceiverEverythingElseTheSender) {
  EventQueue eq;
  FlowTable flows;
  Host host(0, "h0", flows);
  SinkRecorder snd(eq), rcv(eq);
  flows.add(5, &snd, &rcv);
  for (PacketType t : {PacketType::kData, PacketType::kAck, PacketType::kNack,
                       PacketType::kTrimNack, PacketType::kQcn})
    host.receive(typed(5, t));
  ASSERT_EQ(rcv.arrivals.size(), 1u);
  EXPECT_EQ(rcv.arrivals[0].second.type, PacketType::kData);
  ASSERT_EQ(snd.arrivals.size(), 4u);
  EXPECT_EQ(snd.arrivals[0].second.type, PacketType::kAck);
  EXPECT_EQ(snd.arrivals[1].second.type, PacketType::kNack);
  EXPECT_EQ(snd.arrivals[2].second.type, PacketType::kTrimNack);
  EXPECT_EQ(snd.arrivals[3].second.type, PacketType::kQcn);
  EXPECT_EQ(host.stray_packets(), 0u);
}

TEST(FlowTable, RemovedFlowIsAStrayAtTheHostItReached) {
  EventQueue eq;
  FlowTable flows;
  Host src(0, "h0", flows), dst(1, "h1", flows);
  SinkRecorder snd(eq), rcv(eq);
  flows.add(3, &snd, &rcv);
  flows.remove(3);
  dst.receive(typed(3, PacketType::kData));
  src.receive(typed(3, PacketType::kAck));
  src.receive(typed(3, PacketType::kQcn));
  EXPECT_EQ(dst.stray_packets(), 1u);
  EXPECT_EQ(src.stray_packets(), 2u);
  EXPECT_TRUE(snd.arrivals.empty());
  EXPECT_TRUE(rcv.arrivals.empty());
  flows.remove(3);  // removing twice, or an id never added, is a no-op
  flows.remove(1'000'000);
  dst.receive(typed(1'000'000, PacketType::kData));
  EXPECT_EQ(dst.stray_packets(), 2u);
}

TEST(FlowTable, SparseIdCoexistsWithDenseOnes) {
  EventQueue eq;
  FlowTable flows;
  Host host(0, "h0", flows);
  SinkRecorder one(eq), sparse(eq);
  flows.add(777000, nullptr, &sparse);
  flows.add(1, nullptr, &one);
  host.receive(typed(1, PacketType::kData));
  host.receive(typed(777000, PacketType::kData));
  host.receive(typed(776999, PacketType::kData));  // inside the table, never added
  host.receive(typed(777001, PacketType::kData));  // past its end
  EXPECT_EQ(one.arrivals.size(), 1u);
  ASSERT_EQ(sparse.arrivals.size(), 1u);
  EXPECT_EQ(sparse.arrivals[0].second.flow_id, 777000u);
  EXPECT_EQ(host.stray_packets(), 2u);
}

TEST(FlowTable, IdBelowTheWindowIsAStray) {
  EventQueue eq;
  FlowTable flows;
  Host host(0, "h0", flows);
  SinkRecorder a(eq);
  for (std::uint64_t id = 1; id <= 3; ++id) flows.add(id, nullptr, &a);
  flows.remove(2);
  EXPECT_EQ(flows.window(), 3u);  // flow 1 holds the start
  flows.remove(1);
  EXPECT_EQ(flows.window(), 1u);  // 1 and 2 are gone: the window is {3}
  host.receive(typed(1, PacketType::kData));
  host.receive(typed(2, PacketType::kData));
  host.receive(typed(3, PacketType::kData));
  EXPECT_EQ(host.stray_packets(), 2u);
  ASSERT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(a.arrivals[0].second.flow_id, 3u);
  flows.remove(3);
  EXPECT_EQ(flows.window(), 0u);
}

TEST(FlowTable, LongLivedFlowHoldsTheWindowStart) {
  // A flow that is never removed keeps the window from its id on, while
  // later ids come and go and still resolve; once it goes, the window
  // shrinks to the live ids.
  EventQueue eq;
  FlowTable flows;
  Host host(0, "h0", flows);
  SinkRecorder old_flow(eq), churn(eq);
  flows.add(1, nullptr, &old_flow);
  for (std::uint64_t id = 2; id <= 5000; ++id) {
    flows.add(id, nullptr, &churn);
    if (id >= 10) flows.remove(id - 8);  // the eight newest stay
  }
  EXPECT_EQ(flows.window(), 5000u);
  host.receive(typed(1, PacketType::kData));
  host.receive(typed(4999, PacketType::kData));
  host.receive(typed(100, PacketType::kData));  // removed, inside the window
  EXPECT_EQ(old_flow.arrivals.size(), 1u);
  EXPECT_EQ(churn.arrivals.size(), 1u);
  EXPECT_EQ(host.stray_packets(), 1u);
  const std::size_t held = flows.bytes();
  flows.remove(1);
  EXPECT_EQ(flows.window(), 8u);  // 4993..5000
  host.receive(typed(4993, PacketType::kData));
  EXPECT_EQ(churn.arrivals.size(), 2u);
  EXPECT_EQ(flows.bytes(), held);  // capacity is kept for the next wave
}

TEST(FlowTable, SparseIdsBelowAndAboveTheWindow) {
  EventQueue eq;
  FlowTable flows;
  Host host(0, "h0", flows);
  SinkRecorder mid(eq), high(eq), low(eq);
  flows.add(500, nullptr, &mid);
  flows.add(90'000, nullptr, &high);
  flows.add(7, nullptr, &low);  // below the window's start
  EXPECT_EQ(flows.window(), 90'000u - 7 + 1);
  for (std::uint64_t id : {7u, 500u, 90'000u}) host.receive(typed(id, PacketType::kData));
  host.receive(typed(6, PacketType::kData));
  host.receive(typed(501, PacketType::kData));
  host.receive(typed(90'001, PacketType::kData));
  EXPECT_EQ(low.arrivals.size(), 1u);
  EXPECT_EQ(mid.arrivals.size(), 1u);
  EXPECT_EQ(high.arrivals.size(), 1u);
  EXPECT_EQ(host.stray_packets(), 3u);
}

TEST(Packet, AckEchoesEcnAndTimestamps) {
  Route rev;
  Packet d = make_data_packet(9, 42, 4096);
  d.ecn_ce = true;
  d.sent_time = 12345;
  d.entropy = 3;
  d.block_id = 7;
  d.shard = 2;
  Packet a = make_ack_packet(d, &rev);
  EXPECT_EQ(a.type, PacketType::kAck);
  EXPECT_EQ(a.flow_id, 9u);
  EXPECT_EQ(a.ack_seq, 42u);
  EXPECT_TRUE(a.ecn_echo);
  EXPECT_EQ(a.echo_sent_time, 12345);
  EXPECT_EQ(a.entropy, 3);
  EXPECT_EQ(a.block_id, 7u);
  EXPECT_EQ(a.size, kAckSize);
  EXPECT_FALSE(a.ecn_capable);
}

TEST(GilbertElliott, MatchesTargetLossRate) {
  auto params = GilbertElliottLoss::table1_setup1();
  GilbertElliottLoss model(params, Rng(11));
  const int n = 4'000'000;
  int drops = 0;
  for (int i = 0; i < n; ++i)
    if (model.should_drop(0)) ++drops;
  const double rate = static_cast<double>(drops) / n;
  EXPECT_NEAR(rate, 5.01e-5, 2.5e-5);  // within 50% of the paper's figure
}

TEST(GilbertElliott, LossesAreBursty) {
  auto params = GilbertElliottLoss::table1_setup1();
  GilbertElliottLoss model(params, Rng(13));
  // Count chunks of 10 with exactly 1 vs >= 2 losses; correlated losses mean
  // multi-loss chunks occur far more often than the independent prediction.
  const int chunks = 2'000'000;
  int one = 0, multi = 0, total = 0;
  for (int c = 0; c < chunks; ++c) {
    int lost = 0;
    for (int i = 0; i < 10; ++i)
      if (model.should_drop(0)) ++lost;
    total += lost;
    if (lost == 1) ++one;
    if (lost >= 2) ++multi;
  }
  ASSERT_GT(one, 0);
  const double p_loss = static_cast<double>(total) / (10.0 * chunks);
  // Independent losses would give P(>=2 in 10) ~ 45 * p^2 -- orders of
  // magnitude below what the burst model must produce.
  const double independent = 45.0 * p_loss * p_loss * chunks;
  EXPECT_GT(static_cast<double>(multi), 20.0 * independent);
}

}  // namespace
}  // namespace uno
