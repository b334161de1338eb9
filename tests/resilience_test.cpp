// Loss-resilience machinery tests: packet trimming + control-lane priority,
// phantom occupancy caps, burst-loss calibration, trim-NACK fast recovery,
// expiry-based tail-loss recovery, RTO escalation on ACK silence,
// Gilbert–Elliott stationary-rate convergence, and fault-plan determinism.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "net/loss.hpp"
#include "net/queue.hpp"
#include "stats/resilience.hpp"
#include "transport/unocc.hpp"

namespace uno {
namespace {

class SinkRecorder : public PacketSink {
 public:
  explicit SinkRecorder(EventQueue& eq) : eq_(eq) {}
  void receive(Packet&& p) override { arrivals.push_back({eq_.now(), std::move(p)}); }
  const std::string& name() const override { return name_; }
  std::vector<std::pair<Time, Packet>> arrivals;

 private:
  EventQueue& eq_;
  std::string name_ = "sink";
};

Packet data_on(const Route& r, std::uint32_t size = 4096, std::uint64_t seq = 0) {
  Packet p = make_data_packet(1, seq, size);
  p.hops = r.hops.begin();
  return p;
}

// --- trimming ----------------------------------------------------------------

TEST(Trimming, OverflowTrimsInsteadOfDropping) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.capacity_bytes = 10'000;  // fits two 4 KiB packets
  cfg.trim = true;
  Queue q(eq, pool, "q", cfg, sink);
  Route r;
  r.hops = {&q};
  for (int i = 0; i < 5; ++i) forward(data_on(r, 4096, i));
  eq.run_all();
  EXPECT_EQ(q.drops(), 0u);
  EXPECT_EQ(q.trims(), 3u);
  ASSERT_EQ(sink.arrivals.size(), 5u);
  int trimmed = 0;
  for (auto& [t, p] : sink.arrivals) {
    if (p.trimmed) {
      ++trimmed;
      EXPECT_EQ(p.size, kTrimSize);
    }
  }
  EXPECT_EQ(trimmed, 3);
}

TEST(Trimming, TrimmedHeadersOvertakeQueuedData) {
  // NDP property: a trimmed header enters the priority lane and exits ahead
  // of the full data packets that arrived before it.
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.capacity_bytes = 4096 * 4;
  cfg.trim = true;
  Queue q(eq, pool, "q", cfg, sink);
  Route r;
  r.hops = {&q};
  for (int i = 0; i < 5; ++i) forward(data_on(r, 4096, i));  // seq 4 gets trimmed
  eq.run_all();
  ASSERT_EQ(sink.arrivals.size(), 5u);
  // First delivery is the in-serialization data packet (not preempted);
  // the trimmed header (seq 4) must come no later than second.
  EXPECT_TRUE(sink.arrivals[0].second.seq == 4 || sink.arrivals[1].second.seq == 4);
  EXPECT_TRUE(sink.arrivals[0].second.trimmed || sink.arrivals[1].second.trimmed);
}

TEST(Trimming, ControlLaneHasPriorityOverData) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  Queue q(eq, pool, "q", cfg, sink);
  Route r;
  r.hops = {&q};
  // Queue three data packets, then an ACK: the ACK should be delivered
  // right after the currently-serializing data packet.
  for (int i = 0; i < 3; ++i) forward(data_on(r, 4096, i));
  Packet d = make_data_packet(2, 99, 4096);
  Packet ack = make_ack_packet(d, nullptr);
  ack.hops = r.hops.begin();
  ack.hop = 0;
  forward(std::move(ack));
  eq.run_all();
  ASSERT_EQ(sink.arrivals.size(), 4u);
  EXPECT_EQ(sink.arrivals[1].second.type, PacketType::kAck);
}

TEST(Trimming, ControlLaneFullDrops) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.control_capacity_bytes = 128;  // two 64 B control packets
  Queue q(eq, pool, "q", cfg, sink);
  Route r;
  r.hops = {&q};
  Packet d = make_data_packet(2, 0, 4096);
  for (int i = 0; i < 4; ++i) {
    Packet ack = make_ack_packet(d, nullptr);
    ack.hops = r.hops.begin();
    ack.hop = 0;
    forward(std::move(ack));
  }
  EXPECT_EQ(q.drops(), 2u);
  eq.run_all();
  EXPECT_EQ(sink.arrivals.size(), 2u);
}

TEST(Trimming, DisabledFallsBackToDrop) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.capacity_bytes = 4096;
  cfg.trim = false;
  Queue q(eq, pool, "q", cfg, sink);
  Route r;
  r.hops = {&q};
  forward(data_on(r, 4096, 0));
  forward(data_on(r, 4096, 1));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.trims(), 0u);
}

// --- phantom cap ---------------------------------------------------------------

TEST(PhantomCap, OccupancyBoundedAndDrainsQuickly) {
  EventQueue eq;
  PacketPool pool;
  SinkRecorder sink(eq);
  QueueConfig cfg;
  cfg.rate = 100 * kGbps;
  cfg.capacity_bytes = 64 << 20;  // no physical pressure
  cfg.phantom.enabled = true;
  cfg.phantom.drain_fraction = 0.9;
  cfg.phantom.red.enabled = true;
  cfg.phantom.red.min_bytes = 10'000;
  cfg.phantom.red.max_bytes = 50'000;
  cfg.phantom.cap_bytes = 60'000;
  Queue q(eq, pool, "q", cfg, sink);
  Route r;
  r.hops = {&q};
  // Sustained line-rate arrivals: without the cap the phantom counter would
  // reach ~10% of the bytes (400 KB); with it, 60 KB.
  for (int i = 0; i < 1000; ++i) forward(data_on(r, 4096, i));
  eq.run_all();
  EXPECT_LE(q.phantom_occupancy(eq.now()), 60'000);
  // Bounded backlog means bounded marking hysteresis: fully drained within
  // cap / (0.9 * rate) ~ 5.3 us once arrivals stop.
  EXPECT_EQ(q.phantom_occupancy(eq.now() + 10 * kMicrosecond), 0);
}

// --- burst loss -------------------------------------------------------------

TEST(BurstLoss, MatchesTable1Setup1Ratios) {
  BurstLoss model(BurstLoss::table1_setup1(), Rng(3));
  const int chunks = 3'000'000;
  std::uint64_t lost = 0, c1 = 0, c2 = 0, c3 = 0;
  for (int c = 0; c < chunks; ++c) {
    int k = 0;
    for (int i = 0; i < 10; ++i)
      if (model.should_drop(0)) ++k;
    lost += k;
    c1 += k == 1;
    c2 += k == 2;
    c3 += k >= 3;
  }
  const double rate = static_cast<double>(lost) / (10.0 * chunks);
  EXPECT_NEAR(rate, 5.01e-5, 1.5e-5);
  ASSERT_GT(c1, 0u);
  EXPECT_NEAR(static_cast<double>(c2) / static_cast<double>(c1), 0.25, 0.08);
  EXPECT_NEAR(static_cast<double>(c3) / static_cast<double>(c1), 0.053, 0.05);
}

TEST(GilbertElliottLoss, ConvergesToStationaryRate) {
  // Analytic check: the empirical drop rate must converge to the chain's
  // stationary rate  pi_bad * loss_bad + pi_good * loss_good  with
  // pi_bad = g2b / (g2b + b2g). Probabilities are scaled up from the
  // Table-1 fits so a few million samples give a tight estimate.
  GilbertElliottLoss::Params p;
  p.p_good_to_bad = 2e-3;
  p.p_bad_to_good = 0.25;
  p.loss_good = 1e-4;
  p.loss_bad = 0.5;
  const double pi_bad = p.p_good_to_bad / (p.p_good_to_bad + p.p_bad_to_good);
  const double expected = pi_bad * p.loss_bad + (1.0 - pi_bad) * p.loss_good;

  GilbertElliottLoss model(p, Rng(11));
  const int n = 4'000'000;
  std::uint64_t drops = 0;
  for (int i = 0; i < n; ++i)
    if (model.should_drop(0)) ++drops;
  const double rate = static_cast<double>(drops) / n;
  EXPECT_NEAR(rate, expected, 0.1 * expected);
}

TEST(BurstLoss, DropsAreConsecutive) {
  BurstLoss::Params p;
  p.event_rate = 0.01;
  p.length_weights = {0.0, 0.0, 1.0};  // always bursts of exactly 3
  BurstLoss model(p, Rng(4));
  int run = 0;
  std::vector<int> runs;
  for (int i = 0; i < 200'000; ++i) {
    if (model.should_drop(0)) {
      ++run;
    } else if (run > 0) {
      runs.push_back(run);
      run = 0;
    }
  }
  ASSERT_FALSE(runs.empty());
  for (int r : runs) EXPECT_EQ(r % 3, 0);  // only whole bursts of 3 (or merged)
}

// --- transport-level recovery ------------------------------------------------

ExperimentConfig uno_cfg() {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::named("unolb");
  return cfg;
}

TEST(Recovery, TrimNackRecoversWithinOneRtt) {
  // An intra-DC incast overflows the receiver port; trimming must recover
  // the losses via per-packet NACKs fast enough that the flows complete in
  // a small multiple of the ideal time, with zero hard drops.
  Experiment ex(uno_cfg());
  // 12 x 175 KB initial windows (~2.1 MB) against a 1 MiB port buffer.
  for (int s = 1; s < 13; ++s) ex.spawn({s, 0, 2 << 20, 0, false});
  ASSERT_TRUE(ex.run_to_completion(100 * kMillisecond));
  EXPECT_EQ(ex.topo().total_drops(), 0u);
  EXPECT_GT(ex.topo().total_trims(), 0u);
  const Time ideal = serialization_time(12 * (2 << 20), 100 * kGbps);
  for (const FlowResult& r : ex.fct().results())
    EXPECT_LT(r.completion_time, 4 * ideal);
}

TEST(Recovery, TailLossRecoveredByExpiryNotRto) {
  // Kill every WAN link right after the whole message is in flight: the
  // tail has no newer ACKs to clock RACK, so the expiry scan must recover
  // it once links return — well before the RTO (silence) deadline would.
  Experiment ex(uno_cfg());
  FlowSender& f = ex.spawn({0, 16 + 3, 1 << 20, 0, true});
  FlowParams p = ex.flow_params({0, 16 + 3, 1 << 20, 0, true});
  ex.run_until(20 * kMicrosecond);  // mid-transmission: ~25% has crossed
  for (int j = 0; j < ex.topo().cross_link_count(); ++j)
    ex.topo().cross_link(0, j).set_up(false);
  ex.run_until(2 * kMillisecond);
  for (int j = 0; j < ex.topo().cross_link_count(); ++j)
    ex.topo().cross_link(0, j).set_up(true);
  ASSERT_TRUE(ex.run_to_completion(kSecond));
  EXPECT_GT(f.retransmits(), 0u);
  // Expiry (3 * base_rtt = 6 ms) plus a round trip bounds recovery; the
  // silence RTO (8 ms) would push past 10 ms.
  EXPECT_LT(f.fct(), p.effective_rto() + 4 * kMillisecond);
}

TEST(Recovery, RtoEscalatesOnTotalSilence) {
  // All WAN links stay dead: the sender must escalate to a full RTO (CC
  // collapse) rather than spin on expiry rescans forever.
  Experiment ex(uno_cfg());
  FlowSender& f = ex.spawn({0, 16 + 3, 256 << 10, 0, true});
  for (int j = 0; j < ex.topo().cross_link_count(); ++j)
    ex.topo().cross_link(0, j).set_up(false);
  ex.run_until(60 * kMillisecond);
  EXPECT_FALSE(f.done());
  EXPECT_EQ(f.cc().cwnd(), 4096);  // UnoCC's on_loss collapse happened
  EXPECT_GT(f.retransmits(), 0u);
  // Links return; the flow finishes.
  for (int j = 0; j < ex.topo().cross_link_count(); ++j)
    ex.topo().cross_link(0, j).set_up(true);
  EXPECT_TRUE(ex.run_to_completion(2 * kSecond));
}

TEST(Recovery, QaNeedsConsecutiveStarvedWindows) {
  CcParams p;
  p.base_rtt = 14 * kMicrosecond;
  p.intra_rtt = 14 * kMicrosecond;
  p.line_rate = 100 * kGbps;
  p.mtu = 4096;
  UnoCc cc(p, {});
  auto ack = [&](Time now, std::int64_t bytes) {
    AckEvent e;
    e.now = now;
    e.bytes_acked = bytes;
    e.rtt = p.base_rtt;
    e.pkt_sent_time = now - p.base_rtt;
    cc.on_ack(e);
  };
  // Window 1: healthy. Window 2: starved. Window 3: healthy -> no QA.
  const std::int64_t w = cc.cwnd();
  ack(0, w);                    // opens window bookkeeping
  ack(15 * kMicrosecond, w);    // closes window 1, healthy
  ack(30 * kMicrosecond, 100);  // closes window 2, starved (streak 1)
  ack(45 * kMicrosecond, w);    // closes window 3, healthy -> streak reset
  EXPECT_EQ(cc.qa_events(), 0u);
  // Two starved windows in a row -> QA fires.
  ack(60 * kMicrosecond, 100);
  ack(75 * kMicrosecond, 100);
  EXPECT_EQ(cc.qa_events(), 1u);
}

// --- fault-plan determinism --------------------------------------------------

std::vector<FlowResult> run_faulted_scenario(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  cfg.seed = seed;
  std::string err;
  const bool ok = FaultPlan::parse(
      "0us loss border:* model=ge scale=100;"
      "1ms flap border:0 period=400us duty=0.5 until=6ms;"
      "2ms latency border:1 factor=3 until=5ms",
      &cfg.faults, &err);
  EXPECT_TRUE(ok) << err;
  Experiment ex(cfg);
  for (int f = 0; f < 6; ++f) ex.spawn({f, 16 + f, 1 << 20, 0, true});
  ResilienceTracker tracker(ex.eq(), 100 * kMicrosecond);
  for (std::size_t i = 0; i < ex.flows_spawned(); ++i) tracker.watch(ex.sender(i).live());
  tracker.note_fault(ex.fault_injector()->first_onset());
  tracker.start();
  ex.run_to_completion(2 * kSecond);
  tracker.stop();
  return ex.fct().results();
}

TEST(FaultPlanDeterminism, IdenticalSeedAndPlanBitExact) {
  const auto a = run_faulted_scenario(7);
  const auto b = run_faulted_scenario(7);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].completion_time, b[i].completion_time) << "flow " << i;
    EXPECT_EQ(a[i].retransmits, b[i].retransmits) << "flow " << i;
    EXPECT_EQ(a[i].fec_masked, b[i].fec_masked) << "flow " << i;
  }
}

TEST(FaultPlanDeterminism, DifferentSeedsDiffer) {
  const auto a = run_faulted_scenario(7);
  const auto c = run_faulted_scenario(8);
  bool any_diff = a.size() != c.size();
  for (std::size_t i = 0; !any_diff && i < a.size(); ++i)
    any_diff = a[i].completion_time != c[i].completion_time;
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace uno
