// Fault-injection subsystem tests: plan-grammar parsing and validation,
// glob/border target resolution, link-down in-flight flushing, flap duty
// cycles, and transient latency / loss / ECN faults restoring saved state.
#include <gtest/gtest.h>

#include <memory>

#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "topo/interdc.hpp"

namespace uno {
namespace {

// --- grammar -----------------------------------------------------------------

TEST(FaultPlanParse, Durations) {
  Time t = 0;
  EXPECT_TRUE(parse_duration("300ns", &t));
  EXPECT_EQ(t, 300 * kNanosecond);
  EXPECT_TRUE(parse_duration("500us", &t));
  EXPECT_EQ(t, 500 * kMicrosecond);
  EXPECT_TRUE(parse_duration("2ms", &t));
  EXPECT_EQ(t, 2 * kMillisecond);
  EXPECT_TRUE(parse_duration("1s", &t));
  EXPECT_EQ(t, kSecond);
  EXPECT_TRUE(parse_duration("250", &t));  // bare numbers are microseconds
  EXPECT_EQ(t, 250 * kMicrosecond);
  EXPECT_TRUE(parse_duration("0.5ms", &t));
  EXPECT_EQ(t, 500 * kMicrosecond);
  EXPECT_FALSE(parse_duration("", &t));
  EXPECT_FALSE(parse_duration("ms", &t));
  EXPECT_FALSE(parse_duration("5parsecs", &t));
  EXPECT_FALSE(parse_duration("-3us", &t));
}

TEST(FaultPlanParse, FullPlan) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "2ms down border:0;"
      "4ms up border:0;"
      "1ms flap border:1 period=500us duty=0.25 until=9ms;"
      "0us latency dc0.* factor=2 add=10us until=1ms;"
      "3ms loss border:* rate=0.01;"
      "5ms loss border:2 model=ge scale=50;"
      "6ms ecn-stuck *.c3.*",
      &plan, &err))
      << err;
  ASSERT_EQ(plan.size(), 7u);

  EXPECT_EQ(plan.events[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events[0].at, 2 * kMillisecond);
  EXPECT_EQ(plan.events[0].target, "border:0");

  EXPECT_EQ(plan.events[1].kind, FaultKind::kLinkUp);

  EXPECT_EQ(plan.events[2].kind, FaultKind::kFlap);
  EXPECT_EQ(plan.events[2].period, 500 * kMicrosecond);
  EXPECT_DOUBLE_EQ(plan.events[2].duty, 0.25);
  EXPECT_EQ(plan.events[2].until, 9 * kMillisecond);

  EXPECT_EQ(plan.events[3].kind, FaultKind::kLatency);
  EXPECT_DOUBLE_EQ(plan.events[3].factor, 2.0);
  EXPECT_EQ(plan.events[3].add, 10 * kMicrosecond);

  EXPECT_EQ(plan.events[4].kind, FaultKind::kLoss);
  EXPECT_FALSE(plan.events[4].gilbert);
  EXPECT_DOUBLE_EQ(plan.events[4].rate, 0.01);

  EXPECT_EQ(plan.events[5].kind, FaultKind::kLoss);
  EXPECT_TRUE(plan.events[5].gilbert);
  EXPECT_DOUBLE_EQ(plan.events[5].scale, 50.0);

  EXPECT_EQ(plan.events[6].kind, FaultKind::kEcnStuck);

  // First onset skips nothing here: earliest disruptive event is at t=0.
  EXPECT_EQ(plan.first_onset(), 0);
}

TEST(FaultPlanParse, FirstOnsetIgnoresRepairs) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("1ms up border:0; 3ms down border:0", &plan, &err)) << err;
  EXPECT_EQ(plan.first_onset(), 3 * kMillisecond);
  FaultPlan repairs;
  ASSERT_TRUE(FaultPlan::parse("1ms up border:0", &repairs, &err)) << err;
  EXPECT_EQ(repairs.first_onset(), kTimeInfinity);
  EXPECT_EQ(FaultPlan{}.first_onset(), kTimeInfinity);
}

TEST(FaultPlanParse, RejectsMalformedClauses) {
  const char* bad[] = {
      "2ms explode border:0",                      // unknown kind
      "down border:0",                             // missing time
      "2ms down",                                  // missing target
      "1ms flap border:0",                         // flap requires period
      "1ms flap border:0 period=1ms duty=1.5",     // duty out of (0,1)
      "1ms flap border:0 period=1ms duty=0",       // duty out of (0,1)
      "1ms loss border:0",                         // loss needs rate= or model=ge
      "1ms loss border:0 rate=0.1 model=ge",       // not both
      "1ms loss border:0 model=bogus",             // unknown model
      "1ms latency border:0",                      // latency needs factor/add
      "2ms down border:0 until=1ms",               // until must be after at
      "2ms down border:0 frobnicate=1",            // unknown key
  };
  for (const char* clause : bad) {
    FaultPlan plan;
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(clause, &plan, &err)) << clause;
    EXPECT_FALSE(err.empty()) << clause;
  }
}

TEST(FaultPlanParse, GlobMatch) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("dc0.*", "dc0.h5.up"));
  EXPECT_FALSE(glob_match("dc0.*", "dc1.h5.up"));
  EXPECT_TRUE(glob_match("*.cross*.3", "dc1.border.cross0.3"));
  EXPECT_FALSE(glob_match("*.cross*.3", "dc1.border.cross0.13"));
  EXPECT_TRUE(glob_match("dc?.h1.up", "dc0.h1.up"));
  EXPECT_FALSE(glob_match("dc?.h1.up", "dc10.h1.up"));
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(glob_match("a*b*c", "aXXbYY"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_FALSE(glob_match("", "x"));
}

// --- target resolution + execution ------------------------------------------

struct TopoFixture {
  EventQueue eq;
  InterDcConfig cfg;
  std::unique_ptr<InterDcTopology> topo;

  TopoFixture() {
    cfg.k = 4;
    cfg.cross_links = 4;
    topo = std::make_unique<InterDcTopology>(eq, cfg);
  }

  FaultPlan plan(const std::string& spec) {
    FaultPlan p;
    std::string err;
    EXPECT_TRUE(FaultPlan::parse(spec, &p, &err)) << err;
    return p;
  }
};

TEST(FaultInjector, BorderTargetsResolveBothDirections) {
  TopoFixture f;
  FaultInjector inj(f.eq, *f.topo, f.plan("0us down border:0; 0us down border:*"),
                    /*seed=*/1);
  // border:N is one cross link in each direction; border:* is all of them.
  EXPECT_EQ(inj.links_matched(0), 2u);
  EXPECT_EQ(inj.links_matched(1), 2u * f.cfg.cross_links);
  EXPECT_TRUE(inj.unmatched().empty());
}

TEST(FaultInjector, UnmatchedTargetsAreReported) {
  TopoFixture f;
  FaultInjector inj(f.eq, *f.topo, f.plan("0us down dc7.nonexistent.*"), 1);
  ASSERT_EQ(inj.unmatched().size(), 1u);
  EXPECT_EQ(inj.unmatched()[0], "dc7.nonexistent.*");
  EXPECT_EQ(inj.links_matched(0), 0u);
}

TEST(FaultInjector, DownUpTimeline) {
  TopoFixture f;
  FaultInjector inj(f.eq, *f.topo, f.plan("1ms down border:0; 3ms up border:0"), 1);
  auto& fwd = f.topo->cross_link(0, 0);
  auto& rev = f.topo->cross_link(1, 0);
  EXPECT_TRUE(fwd.up() && rev.up());
  f.eq.run_until(2 * kMillisecond);
  EXPECT_FALSE(fwd.up());
  EXPECT_FALSE(rev.up());
  f.eq.run_until(4 * kMillisecond);
  EXPECT_TRUE(fwd.up());
  EXPECT_TRUE(rev.up());
  EXPECT_EQ(inj.actions(), 4u);  // 2 links down + 2 links up
}

TEST(FaultInjector, DownWithUntilAutoRepairs) {
  TopoFixture f;
  FaultInjector inj(f.eq, *f.topo, f.plan("1ms down border:0 until=2ms"), 1);
  f.eq.run_until(1500 * kMicrosecond);
  EXPECT_FALSE(f.topo->cross_link(0, 0).up());
  f.eq.run_until(3 * kMillisecond);
  EXPECT_TRUE(f.topo->cross_link(0, 0).up());
  EXPECT_EQ(inj.actions(), 4u);
}

TEST(FaultInjector, FlapFollowsDutyCycle) {
  TopoFixture f;
  // 1 ms period, 25% duty: down for 250 us, up for 750 us, from t=1ms to 4ms.
  FaultInjector inj(f.eq, *f.topo,
                    f.plan("1ms flap border:0 period=1ms duty=0.25 until=4ms"), 1);
  auto& l = f.topo->cross_link(0, 0);
  auto probe = [&](Time t) {
    f.eq.run_until(t);
    return l.up();
  };
  EXPECT_TRUE(probe(900 * kMicrosecond));    // before onset
  EXPECT_FALSE(probe(1100 * kMicrosecond));  // down phase of cycle 1
  EXPECT_TRUE(probe(1500 * kMicrosecond));   // up phase of cycle 1
  EXPECT_FALSE(probe(2100 * kMicrosecond));  // down phase of cycle 2
  EXPECT_TRUE(probe(2500 * kMicrosecond));   // up phase of cycle 2
  EXPECT_TRUE(probe(5 * kMillisecond));      // past until: repaired for good
  EXPECT_TRUE(f.eq.empty());                 // flap chain terminated
  (void)inj;
}

TEST(FaultInjector, LatencyInflationRestores) {
  TopoFixture f;
  auto& l = f.topo->cross_link(0, 0);
  const Time base = l.latency();
  FaultInjector inj(f.eq, *f.topo,
                    f.plan("1ms latency border:0 factor=3 add=5us until=2ms"), 1);
  f.eq.run_until(1500 * kMicrosecond);
  EXPECT_EQ(l.latency(), base * 3 + 5 * kMicrosecond);
  f.eq.run_until(3 * kMillisecond);
  EXPECT_EQ(l.latency(), base);
  (void)inj;
}

TEST(FaultInjector, LossSpikeSwapsAndRestoresModel) {
  TopoFixture f;
  auto& l = f.topo->cross_link(0, 0);
  auto original = std::make_unique<BernoulliLoss>(0.0, Rng(1));
  const LossModel* original_ptr = original.get();
  l.set_loss_model(std::move(original));
  FaultInjector inj(f.eq, *f.topo, f.plan("1ms loss border:0 rate=1 until=2ms"), 1);
  f.eq.run_until(1500 * kMicrosecond);
  EXPECT_NE(l.loss_model(), original_ptr);  // spike model installed
  ASSERT_NE(l.loss_model(), nullptr);
  f.eq.run_until(3 * kMillisecond);
  EXPECT_EQ(l.loss_model(), original_ptr);  // displaced model reinstated
  (void)inj;
}

TEST(FaultInjector, EcnStuckSetsAndClearsForceMark) {
  TopoFixture f;
  Queue& q = f.topo->cross_queue(0, 0);
  EXPECT_FALSE(q.force_ecn());
  FaultInjector inj(f.eq, *f.topo, f.plan("1ms ecn-stuck border:0 until=2ms"), 1);
  f.eq.run_until(1500 * kMicrosecond);
  EXPECT_TRUE(q.force_ecn());
  f.eq.run_until(3 * kMillisecond);
  EXPECT_FALSE(q.force_ecn());
  (void)inj;
}

// --- link-down flush (satellite fix) ----------------------------------------

struct CaptureSink final : PacketSink {
  std::string name_ = "capture";
  int received = 0;
  void receive(Packet&&) override { ++received; }
  const std::string& name() const override { return name_; }
};

TEST(LinkDown, FlushesInFlightAndCountsDrops) {
  EventQueue eq;
  PacketPool pool;
  Link link(eq, pool, "wire", 10 * kMicrosecond);
  CaptureSink sink;
  Route route;
  route.hops = {&link, &sink};

  auto send = [&] {
    Packet p = make_data_packet(1, 0, 4096);
    p.hops = route.hops.begin();
    forward(std::move(p));
  };

  send();
  send();
  EXPECT_EQ(link.dropped(), 0u);
  // Sever the wire while both packets are propagating: they are flushed,
  // counted as drops, and the stale delivery event is a no-op.
  link.set_up(false);
  EXPECT_EQ(link.dropped(), 2u);
  eq.run_all();
  EXPECT_EQ(sink.received, 0);
  EXPECT_EQ(link.delivered(), 0u);

  // Ingress while down also drops.
  send();
  EXPECT_EQ(link.dropped(), 3u);

  // After repair the link delivers normally again.
  link.set_up(true);
  send();
  eq.run_all();
  EXPECT_EQ(sink.received, 1);
  EXPECT_EQ(link.delivered(), 1u);
  EXPECT_EQ(link.dropped(), 3u);
}

}  // namespace
}  // namespace uno
