// End-to-end transport tests on the real topology: reliable delivery, RTT
// measurement, loss recovery via RTO, EC block recovery and NACKs.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "stats/sampler.hpp"
#include "transport/dctcp.hpp"
#include "transport/deadline_ring.hpp"

namespace uno {
namespace {

ExperimentConfig base_cfg(SchemeSpec scheme = SchemeSpec::named("dctcp")) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;  // 16 hosts per DC keeps tests fast
  cfg.scheme = std::move(scheme);
  return cfg;
}

TEST(Transport, SingleIntraFlowCompletes) {
  Experiment ex(base_cfg());
  FlowSpec spec{0, 12, 1 << 20, 0, false};  // 1 MiB cross-pod
  FlowSender& s = ex.spawn(spec);
  ASSERT_TRUE(ex.run_to_completion(50 * kMillisecond));
  EXPECT_TRUE(s.done());
  EXPECT_EQ(s.acked_bytes(), 1u << 20);
  EXPECT_EQ(s.retransmits(), 0u);
  // FCT must exceed the ideal pipe time and stay within a small factor.
  const Time ideal = serialization_time(1 << 20, 100 * kGbps) + 14 * kMicrosecond;
  EXPECT_GE(s.fct(), ideal);
  EXPECT_LE(s.fct(), 3 * ideal);
}

TEST(Transport, SingleInterFlowCompletes) {
  Experiment ex(base_cfg());
  FlowSpec spec{0, 16 + 12, 4 << 20, 0, true};
  FlowSender& s = ex.spawn(spec);
  ASSERT_TRUE(ex.run_to_completion(200 * kMillisecond));
  const Time ideal = serialization_time(4 << 20, 100 * kGbps) + 2 * kMillisecond;
  EXPECT_GE(s.fct(), ideal);
  EXPECT_LE(s.fct(), 3 * ideal);
}

TEST(Transport, TinyFlowOnePacket) {
  Experiment ex(base_cfg());
  FlowSpec spec{0, 1, 100, 0, false};  // same edge, 100 B
  FlowSender& s = ex.spawn(spec);
  ASSERT_TRUE(ex.run_to_completion(kMillisecond));
  EXPECT_EQ(s.packets_sent(), 1u);
  EXPECT_EQ(s.total_packets(), 1u);
}

TEST(Transport, StartTimeIsHonored) {
  Experiment ex(base_cfg());
  FlowSpec spec{0, 12, 4096, 5 * kMillisecond, false};
  FlowSender& s = ex.spawn(spec);
  ex.run_until(4 * kMillisecond);
  EXPECT_EQ(s.packets_sent(), 0u);
  ASSERT_TRUE(ex.run_to_completion(20 * kMillisecond));
  EXPECT_LT(s.fct(), kMillisecond);  // FCT measured from start_time
}

TEST(Transport, PacketConservation) {
  Experiment ex(base_cfg());
  ex.spawn({0, 12, 1 << 20, 0, false});
  ex.spawn({1, 13, 1 << 20, 0, false});
  ex.spawn({2, 16 + 3, 1 << 20, 0, true});
  ASSERT_TRUE(ex.run_to_completion(200 * kMillisecond));
  // No drops expected (uncongested), and every sent packet was delivered.
  EXPECT_EQ(ex.topo().total_drops(), 0u);
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < ex.flows_spawned(); ++i) sent += ex.sender(i).live()->packets_sent();
  std::uint64_t received = 0;
  for (int h = 0; h < ex.topo().num_hosts(); ++h)
    EXPECT_EQ(ex.topo().host(h).stray_packets(), 0u);
  (void)received;
}

TEST(Transport, RttMeasuredNearBaseRtt) {
  Experiment ex(base_cfg());
  FlowSpec spec{0, 12, 64 << 10, 0, false};
  FlowSender& s = ex.spawn(spec);
  ASSERT_TRUE(ex.run_to_completion(50 * kMillisecond));
  EXPECT_TRUE(s.done());
  // The flow's FCT for 64 KiB ~= serialization + RTT; bounded by 2x RTT on
  // an idle network.
  EXPECT_LT(s.fct(), 2 * 14 * kMicrosecond + serialization_time(64 << 10, 100 * kGbps) * 2);
}

TEST(Transport, RecoversFromCrossLinkFailureViaRto) {
  auto cfg = base_cfg();
  Experiment ex(cfg);
  // Fail half the cross links *before* the flow starts; ECMP may pin the
  // flow to a dead link, and RTO + LB must not be required for DCTCP/ECMP
  // (single path), so instead drop packets with a lossy link model.
  FlowSpec spec{0, 16 + 2, 256 << 10, 0, true};
  FlowSender& s = ex.spawn(spec);
  // Fail every cross link before any packet reaches the border: the whole
  // first window dies on the WAN and only RTO can recover it.
  for (int j = 0; j < ex.topo().cross_link_count(); ++j)
    ex.topo().cross_link(0, j).set_up(false);
  ex.run_until(600 * kMicrosecond);
  for (int j = 0; j < ex.topo().cross_link_count(); ++j)
    ex.topo().cross_link(0, j).set_up(true);
  ASSERT_TRUE(ex.run_to_completion(500 * kMillisecond));
  EXPECT_TRUE(s.done());
  EXPECT_EQ(s.acked_bytes() >= 256u << 10, true);
  EXPECT_GT(s.retransmits(), 0u);
}

TEST(Transport, EcFlowCompletesWithoutLoss) {
  auto cfg = base_cfg(SchemeSpec::uno());
  Experiment ex(cfg);
  FlowSpec spec{0, 16 + 12, 1 << 20, 0, true};
  FlowSender& s = ex.spawn(spec);
  ASSERT_TRUE(ex.run_to_completion(200 * kMillisecond));
  EXPECT_TRUE(s.done());
  // 256 data packets -> 32 blocks -> 64 parity packets on the wire.
  EXPECT_EQ(s.total_packets(), 256u + 64u);
  EXPECT_EQ(s.nacks_received(), 0u);
}

TEST(Transport, EcMasksResidualLossWithoutRetransmit) {
  auto cfg = base_cfg(SchemeSpec::uno());
  Experiment ex(cfg);
  FlowSpec spec{0, 16 + 12, 2 << 20, 0, true};
  FlowSender& s = ex.spawn(spec);
  // Light random loss on every cross link: EC (8,2) should absorb isolated
  // drops without needing NACK retransmission rounds for most blocks.
  for (int d = 0; d < 2; ++d)
    for (int j = 0; j < ex.topo().cross_link_count(); ++j)
      ex.topo().cross_link(d, j).set_loss_model(
          std::make_unique<BernoulliLoss>(0.002, Rng::stream(9, d * 8 + j)));
  ASSERT_TRUE(ex.run_to_completion(kSecond));
  EXPECT_TRUE(s.done());
  EXPECT_EQ(s.retransmits(), 0u);  // parity covered the losses
}

TEST(Transport, EcRecoversBlockViaNackAfterHeavyLoss) {
  auto cfg = base_cfg(SchemeSpec::uno());
  Experiment ex(cfg);
  FlowSpec spec{0, 16 + 12, 1 << 20, 0, true};
  FlowSender& s = ex.spawn(spec);
  // Brutal loss: more than parity can mask; receiver must NACK and the
  // sender must retransmit the affected blocks.
  for (int d = 0; d < 2; ++d)
    for (int j = 0; j < ex.topo().cross_link_count(); ++j)
      ex.topo().cross_link(d, j).set_loss_model(
          std::make_unique<BernoulliLoss>(d == 0 ? 0.35 : 0.0, Rng::stream(10, j)));
  ASSERT_TRUE(ex.run_to_completion(2 * kSecond));
  EXPECT_TRUE(s.done());
  EXPECT_GT(s.retransmits(), 0u);
}

TEST(Transport, DuplicateAcksAreIgnoredByWindow) {
  Experiment ex(base_cfg());
  FlowSpec spec{0, 12, 256 << 10, 0, false};
  FlowSender& s = ex.spawn(spec);
  ASSERT_TRUE(ex.run_to_completion(50 * kMillisecond));
  EXPECT_EQ(s.acked_bytes(), 256u << 10);  // each byte counted exactly once
}

TEST(Transport, CwndSamplerTracksWindow) {
  Experiment ex(base_cfg(SchemeSpec::named("unolb")));
  FlowSender& f = ex.spawn({0, 12, 2 << 20, 0, false});
  CwndSampler cs(ex.eq(), 20 * kMicrosecond);
  cs.watch(&f, "flow");
  cs.start();
  ASSERT_TRUE(ex.run_to_completion(100 * kMillisecond));
  cs.stop();
  ASSERT_GT(cs.series(0).size(), 3u);
  // While active, samples reflect a positive window; after completion, 0.
  EXPECT_GT(cs.series(0).v[0], 0.0);
}

TEST(Transport, ManyParallelFlowsAllComplete) {
  Experiment ex(base_cfg());
  for (int i = 0; i < 8; ++i) ex.spawn({i, 8 + i, 128 << 10, 0, false});
  ASSERT_TRUE(ex.run_to_completion(100 * kMillisecond));
  EXPECT_EQ(ex.flows_completed(), 8u);
  EXPECT_EQ(ex.fct().count(), 8u);
}

// --- two-tier flow state: record vs engine (DESIGN.md §15) -------------------

struct StackCounts {
  int cc_built = 0, cc_alive = 0;
  int lb_built = 0, lb_alive = 0;
};

/// Forwards to a real CC and counts its own constructions and destructions.
class CountingCc final : public CongestionControl {
 public:
  CountingCc(std::unique_ptr<CongestionControl> inner, StackCounts& n)
      : inner_(std::move(inner)), n_(n) {
    ++n_.cc_built;
    ++n_.cc_alive;
  }
  ~CountingCc() override { --n_.cc_alive; }
  void on_ack(const AckEvent& ack) override { inner_->on_ack(ack); }
  void on_loss(Time now) override { inner_->on_loss(now); }
  void on_nack(Time now) override { inner_->on_nack(now); }
  void on_qcn(Time now) override { inner_->on_qcn(now); }
  std::int64_t cwnd() const override { return inner_->cwnd(); }
  double pacing_rate() const override { return inner_->pacing_rate(); }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<CongestionControl> inner_;
  StackCounts& n_;
};

/// Forwards to a real LB and counts its own constructions and destructions.
class CountingLb final : public LoadBalancer {
 public:
  CountingLb(std::unique_ptr<LoadBalancer> inner, StackCounts& n)
      : inner_(std::move(inner)), n_(n) {
    ++n_.lb_built;
    ++n_.lb_alive;
  }
  ~CountingLb() override { --n_.lb_alive; }
  std::uint16_t pick(std::uint64_t seq) override { return inner_->pick(seq); }
  void on_ack(std::uint16_t entropy, bool ecn, Time now) override {
    inner_->on_ack(entropy, ecn, now);
  }
  void on_nack(std::uint16_t entropy, Time now) override { inner_->on_nack(entropy, now); }
  void on_timeout(Time now) override { inner_->on_timeout(now); }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<LoadBalancer> inner_;
  StackCounts& n_;
};

/// The experiment's own stacks, wrapped in counters.
class CountingStacks final : public FlowStackFactory {
 public:
  explicit CountingStacks(const FlowStackFactory& inner) : inner_(inner) {}
  FlowStack build(const FlowParams& params, std::uint16_t num_paths) const override {
    FlowStack s = inner_.build(params, num_paths);
    return {std::make_unique<CountingCc>(std::move(s.cc), counts),
            std::make_unique<CountingLb>(std::move(s.lb), counts)};
  }
  mutable StackCounts counts;

 private:
  const FlowStackFactory& inner_;
};

TEST(FlowLifecycle, StackLivesFromStartToCompletion) {
  Experiment ex(base_cfg(SchemeSpec::uno()));
  CountingStacks stacks(ex.stacks());
  const FlowEnv env{ex.eq(), stacks};
  struct Case {
    FlowSpec spec;
    std::uint64_t total_packets;
  };
  const Case cases[] = {
      {{0, 12, 64 << 10, 100 * kMicrosecond, false}, 16},
      {{1, 16 + 3, 256 << 10, 200 * kMicrosecond, true}, 64 + 8 * 2},  // (8,2) EC
      {{2, 5, 4096, 300 * kMicrosecond, false}, 1},
  };
  std::vector<std::unique_ptr<Flow>> flows;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const FlowSpec& spec = cases[i].spec;
    FlowParams params = ex.flow_params(spec);
    params.id = 500 + i;
    flows.push_back(std::make_unique<Flow>(env, ex.topo().host(spec.src),
                                           ex.topo().host(spec.dst), params,
                                           &ex.topo().paths(spec.src, spec.dst)));
    flows.back()->start();
  }
  // Nothing is built before a start time.
  EXPECT_EQ(stacks.counts.cc_built, 0);
  EXPECT_EQ(stacks.counts.lb_built, 0);
  ex.eq().run_until(100 * kMicrosecond);  // the first start time
  EXPECT_EQ(stacks.counts.cc_alive, 1);
  EXPECT_EQ(stacks.counts.lb_alive, 1);
  EXPECT_EQ(flows[0]->sender().cc().name(), std::string("unocc"));

  ex.eq().run_all();
  EXPECT_EQ(stacks.counts.cc_built, 3);
  EXPECT_EQ(stacks.counts.lb_built, 3);
  EXPECT_EQ(stacks.counts.cc_alive, 0);
  EXPECT_EQ(stacks.counts.lb_alive, 0);
  // Every record accessor still reads its value after the engine is gone.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& spec = cases[i].spec;
    const FlowSender& s = flows[i]->sender();
    EXPECT_TRUE(s.done());
    EXPECT_GT(s.fct(), 0);
    EXPECT_GT(s.packets_sent(), 0u);
    EXPECT_GE(s.acked_bytes(), spec.size_bytes);
    EXPECT_EQ(s.total_packets(), cases[i].total_packets);
    EXPECT_EQ(s.params().id, 500 + i);
    EXPECT_EQ(s.params().size_bytes, spec.size_bytes);
    EXPECT_EQ(s.params().start_time, spec.start_time);
    EXPECT_EQ(s.reroutes(), 0u);
    EXPECT_TRUE(flows[i]->receiver().message_complete());
  }
}

TEST(FlowLifecycle, FinishedSendersReturnTheirQueueSlots) {
  // Every sender binds an event-queue slot when it schedules its start; a
  // finished sender returns it. So the slots still held after a run do not
  // grow with the number of flows that ran: 1000 and 2000 short flows over
  // the same host pairs end with the same count. Fabric handlers bind on
  // first use, so the two runs are compared with each other rather than with
  // a count taken before spawning.
  auto slots_after = [](int flows) {
    Experiment ex(base_cfg(SchemeSpec::uno()));
    for (int i = 0; i < flows; ++i) {
      const int src = i % 8;
      const int dst = i % 2 == 0 ? 8 + src : 16 + src;  // intra and inter pairs
      ex.spawn({src, dst, 16 << 10, (i + 1) * kMicrosecond, dst >= 16});
    }
    EXPECT_TRUE(ex.run_to_completion(kSecond));
    ex.eq().run_all();
    return ex.eq().bound_handlers();
  };
  EXPECT_EQ(slots_after(1000), slots_after(2000));
}

TEST(FlowLifecycle, CompletedReceiverAcksLateData) {
  Experiment ex(base_cfg(SchemeSpec::uno()));
  const FlowSpec spec{0, 12, 16 << 10, 0, false};
  FlowParams params = ex.flow_params(spec);
  params.id = 77;
  const PathSet& paths = ex.topo().paths(spec.src, spec.dst);
  Flow flow(ex.flow_env(), ex.topo().host(spec.src), ex.topo().host(spec.dst), params,
            &paths);
  flow.start();
  ex.eq().run_all();
  const FlowSender& snd = flow.sender();
  const FlowReceiver& rcv = flow.receiver();
  ASSERT_TRUE(snd.done());
  ASSERT_TRUE(rcv.message_complete());
  auto forwarded = [&ex] {
    MetricRegistry m;
    ex.snapshot_metrics(m);
    return m.counter("fabric.forwarded");
  };
  const std::uint64_t dups = rcv.duplicates();
  const std::uint64_t acked = snd.acked_bytes();
  const std::uint64_t sent = snd.packets_sent();
  const std::uint64_t hops = forwarded();

  // A late copy of the flow's first data packet lands after completion.
  Packet late = make_data_packet(params.id, 0, 4096);
  late.src_host = spec.src;
  late.entropy = 1;
  late.sent_time = ex.eq().now();
  ex.topo().host(spec.dst).receive(std::move(late));
  ex.eq().run_all();  // its ACK crosses the fabric back to the sender

  EXPECT_EQ(rcv.duplicates(), dups + 1);
  EXPECT_GT(forwarded(), hops);  // the receiver ACKed it across the fabric
  EXPECT_TRUE(snd.done());
  EXPECT_EQ(snd.acked_bytes(), acked);  // the sender ignores the ACK
  EXPECT_EQ(snd.packets_sent(), sent);
  EXPECT_EQ(ex.topo().host(spec.src).stray_packets(), 0u);
  EXPECT_EQ(ex.topo().host(spec.dst).stray_packets(), 0u);
}

// --- DeadlineRing (transport/deadline_ring.hpp) ------------------------------

TEST(DeadlineRing, SetEraseEarliest) {
  DeadlineRing r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.earliest(), kTimeInfinity);
  r.set(3, 300);
  r.set(1, 100);
  r.set(2, 200);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.earliest(), Time{100});
  r.set(1, 500);  // update, not duplicate
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.earliest(), Time{200});
  r.erase(2);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.earliest(), Time{300});
  r.erase(99);  // absent: no-op
  EXPECT_EQ(r.size(), 2u);
  r.erase(1);
  r.erase(3);
  EXPECT_TRUE(r.empty());
}

TEST(DeadlineRing, ExpireVisitsInBlockOrderAndRearms) {
  // The NACK schedule was tuned on std::map iteration order (ascending
  // block id); the flat ring must preserve it regardless of insert order.
  DeadlineRing r;
  r.set(7, 50);
  r.set(2, 40);
  r.set(5, 60);
  r.set(4, 999);
  std::vector<std::uint32_t> fired;
  r.expire(60, [&](std::uint32_t block) {
    fired.push_back(block);
    return Time{1000 + block};
  });
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{2, 5, 7}));
  // Expired entries got the re-armed deadlines; 4 is untouched.
  EXPECT_EQ(r.earliest(), Time{999});
  fired.clear();
  r.expire(1002, [&](std::uint32_t block) {
    fired.push_back(block);
    return Time{2000};
  });
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{2, 4}));  // 999 and 1002 due
}

TEST(DeadlineRing, OutOfOrderInsertKeepsSortedSweep) {
  DeadlineRing r;
  for (std::uint32_t b : {10u, 3u, 7u, 1u, 9u, 0u}) r.set(b, 5);
  std::vector<std::uint32_t> fired;
  r.expire(5, [&](std::uint32_t block) {
    fired.push_back(block);
    return kTimeInfinity;
  });
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0, 1, 3, 7, 9, 10}));
}

}  // namespace
}  // namespace uno
