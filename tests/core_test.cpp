// Core module tests: Table-2 config derivations, the scheme catalogue, and
// experiment wiring (queue marking per scheme, flow parameter derivation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bitmap.hpp"
#include "core/experiment.hpp"
#include "core/ring.hpp"
#include "run_flows.hpp"
#include "transport/bbr.hpp"
#include "transport/swift.hpp"
#include "transport/gemini.hpp"
#include "transport/mprdma.hpp"
#include "transport/unocc.hpp"

namespace uno {
namespace {

TEST(Config, Table2Defaults) {
  UnoConfig c;
  EXPECT_DOUBLE_EQ(c.alpha_fraction, 0.001);
  EXPECT_DOUBLE_EQ(c.beta, 0.5);
  EXPECT_NEAR(c.k_fraction, 1.0 / 7.0, 1e-12);
  EXPECT_EQ(c.intra_rtt, 14 * kMicrosecond);
  EXPECT_EQ(c.inter_rtt, 2 * kMillisecond);
  EXPECT_DOUBLE_EQ(c.phantom_drain_fraction, 0.9);
  EXPECT_EQ(c.mtu, 4096);
  EXPECT_EQ(c.ec_data, 8);
  EXPECT_EQ(c.ec_parity, 2);
  EXPECT_EQ(c.intra_bdp(), 175'000);
  EXPECT_EQ(c.inter_bdp(), 25'000'000);
  EXPECT_EQ(c.subflows(), 10);
}

TEST(Scheme, CatalogueShapes) {
  const SchemeSpec uno = SchemeSpec::uno();
  EXPECT_TRUE(uno.ec_inter);
  EXPECT_TRUE(uno.phantom_marking);
  EXPECT_EQ(uno.lb_inter, LbKind::kUnoLb);

  const SchemeSpec ecmp = SchemeSpec::named("uno+ecmp");
  EXPECT_FALSE(ecmp.ec_inter);
  EXPECT_EQ(ecmp.lb_inter, LbKind::kEcmp);
  EXPECT_TRUE(ecmp.phantom_marking);  // still UnoCC

  const SchemeSpec mb = SchemeSpec::named("mprdma+bbr");
  EXPECT_EQ(mb.cc_intra, CcKind::kMprdma);
  EXPECT_EQ(mb.cc_inter, CcKind::kBbr);
  EXPECT_EQ(mb.lb_intra, LbKind::kRps);
  EXPECT_FALSE(mb.phantom_marking);

  const SchemeSpec spray = SchemeSpec::named("gemini").with_spray();
  EXPECT_EQ(spray.lb_intra, LbKind::kRps);
  EXPECT_EQ(spray.cc_intra, CcKind::kGemini);
}

TEST(Scheme, Fig13GridIsUnoCcOverEachLoadBalancer) {
  // Every Fig 13 variant is UnoCC with phantom marking over one load
  // balancer, with EC exactly when the name says +ec; UnoLB with EC is uno.
  const std::vector<std::pair<const char*, LbKind>> lbs = {
      {"spray", LbKind::kRps}, {"plb", LbKind::kPlb}, {"reps", LbKind::kReps},
      {"unolb", LbKind::kUnoLb}};
  for (const auto& [base, lb] : lbs) {
    for (const bool ec : {false, true}) {
      const std::string name = std::string(base) + (ec ? "+ec" : "");
      const SchemeSpec s = SchemeSpec::named(name == "unolb+ec" ? "uno" : name);
      SCOPED_TRACE(name);
      EXPECT_EQ(s.cc_intra, CcKind::kUno);
      EXPECT_EQ(s.cc_inter, CcKind::kUno);
      EXPECT_EQ(s.lb_intra, lb);
      EXPECT_EQ(s.lb_inter, lb);
      EXPECT_EQ(s.ec_inter, ec);
      EXPECT_TRUE(s.phantom_marking);
    }
  }
}

TEST(Scheme, NamesAreUniqueAndLookUpTheirOwnEntry) {
  const std::vector<std::string> names = scheme_names();
  EXPECT_EQ(names.size(), 13u);
  EXPECT_EQ(names.front(), "uno");  // the default leads the --help list
  for (const std::string& name : names) {
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 1) << name;
    EXPECT_EQ(SchemeSpec::named(name).name, name);
  }
  // Renamed variants have no aliases.
  for (const char* old : {"uno-noec", "unocc+rps", "unocc+plb", "unocc+reps", "unolb+ec"})
    EXPECT_THROW(SchemeSpec::named(old), std::invalid_argument) << old;
}

TEST(Scheme, FactoryInstantiatesRightTypes) {
  UnoConfig cfg;
  CcParams p;
  EXPECT_NE(dynamic_cast<UnoCc*>(make_cc(CcKind::kUno, p, cfg).get()), nullptr);
  EXPECT_NE(dynamic_cast<GeminiCc*>(make_cc(CcKind::kGemini, p, cfg).get()), nullptr);
  EXPECT_NE(dynamic_cast<MprdmaCc*>(make_cc(CcKind::kMprdma, p, cfg).get()), nullptr);
  EXPECT_NE(dynamic_cast<BbrCc*>(make_cc(CcKind::kBbr, p, cfg).get()), nullptr);

  auto ecmp = make_lb(LbKind::kEcmp, 1, 8, kMicrosecond, cfg, 1);
  EXPECT_STREQ(ecmp->name(), "ecmp");
  auto unolb = make_lb(LbKind::kUnoLb, 1, 32, kMicrosecond, cfg, 1);
  EXPECT_STREQ(unolb->name(), "unolb");
  EXPECT_EQ(dynamic_cast<UnoLb*>(unolb.get())->num_subflows(), 10);
  auto reps = make_lb(LbKind::kReps, 1, 32, kMicrosecond, cfg, 1);
  EXPECT_STREQ(reps->name(), "reps");
  EXPECT_NE(dynamic_cast<SwiftCc*>(make_cc(CcKind::kSwift, p, cfg).get()), nullptr);
}

TEST(Experiment, PhantomOnlyForPhantomSchemes) {
  const UnoConfig u;
  const auto base = Experiment::make_topo_config(u, SchemeSpec::named("gemini"), 4, 1);
  EXPECT_FALSE(base.queue.phantom.enabled);
  EXPECT_TRUE(base.queue.red.enabled);
  EXPECT_EQ(base.queue.red.min_bytes, (1 << 20) / 4);
  EXPECT_EQ(base.queue.red.max_bytes, 3 * (1 << 20) / 4);

  const auto uno = Experiment::make_topo_config(u, SchemeSpec::uno(), 4, 1);
  EXPECT_TRUE(uno.queue.phantom.enabled);
  EXPECT_DOUBLE_EQ(uno.queue.phantom.drain_fraction, 0.9);
  // Intra phantom thresholds sized to intra BDP (15%..100% band), border to
  // inter BDP; virtual occupancy capped at the virtual capacity.
  EXPECT_EQ(uno.queue.phantom.red.min_bytes, 26'250);
  EXPECT_EQ(uno.queue.phantom.red.max_bytes, 175'000);
  EXPECT_EQ(uno.queue.phantom.effective_cap(), 175'000);
  EXPECT_GT(uno.border_queue.phantom.red.min_bytes, 900'000);
  // NIC is deep in both cases.
  EXPECT_GT(base.nic_queue.capacity_bytes, 100ll << 20);
}

TEST(Experiment, FlowParamsDeriveFromSpec) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  Experiment ex(cfg);
  const FlowParams intra = ex.flow_params({0, 5, 1000, 7, false});
  EXPECT_FALSE(intra.ec_enabled);  // EC is inter-only
  EXPECT_EQ(intra.base_rtt, 14 * kMicrosecond);
  EXPECT_EQ(intra.start_time, 7);
  const FlowParams inter = ex.flow_params({0, 20, 1000, 0, true});
  EXPECT_TRUE(inter.ec_enabled);
  EXPECT_EQ(inter.base_rtt, 2 * kMillisecond);
  EXPECT_EQ(ex.cc_params({0, 20, 1000, 0, true}).intra_rtt, 14 * kMicrosecond);
}

TEST(Experiment, EcDisabledForNonEcScheme) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::named("uno+ecmp");
  Experiment ex(cfg);
  EXPECT_FALSE(ex.flow_params({0, 20, 1000, 0, true}).ec_enabled);
}

TEST(Experiment, RunToCompletionCollectsFcts) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::named("dctcp");
  Experiment ex(cfg);
  ASSERT_TRUE(run_flows(ex, {{0, 12, 64 << 10, 0, false}, {1, 13, 64 << 10, 0, false}},
                        100 * kMillisecond));
  EXPECT_EQ(ex.fct().count(), 2u);
  const auto s = ex.fct().summarize();
  EXPECT_GT(s.mean_slowdown, 0.9);
}

TEST(Experiment, ResultViewsTheFctRecord) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  Experiment ex(cfg);
  ASSERT_TRUE(run_flows(ex, {{0, 12, 64 << 10, 0, false}, {1, 20, 64 << 10, 0, true}},
                        100 * kMillisecond));
  const ExperimentResult r = ex.result();
  // The result reads the record in place: no FlowResult is copied.
  EXPECT_EQ(r.flows.data(), ex.fct().results().data());
  EXPECT_EQ(r.flows.size(), ex.fct().results().size());
  EXPECT_EQ(r.flows.size(), 2u);
  EXPECT_EQ(r.metrics.counter("flows.spawned"), 2u);
  EXPECT_EQ(r.metrics.counter("flows.completed"), 2u);
}

TEST(Experiment, MetricsLeaveOutAnEmptyFctClass) {
  // One inter-DC flow: the intra class has no FCT to report, and a 0 would
  // read as a perfect one.
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  Experiment ex(cfg);
  ASSERT_TRUE(run_flows(ex, {{1, 20, 64 << 10, 0, true}}, 100 * kMillisecond));
  MetricRegistry m;
  ex.snapshot_metrics(m);
  for (const std::string field :
       {"mean_us", "p50_us", "p99_us", "max_us", "mean_slowdown", "p99_slowdown"}) {
    SCOPED_TRACE(field);
    EXPECT_FALSE(m.has("fct.intra." + field));
    for (const std::string cls : {"all", "inter"}) {
      ASSERT_TRUE(m.has("fct." + cls + "." + field)) << cls;
      EXPECT_GT(m.gauge("fct." + cls + "." + field), 0.0) << cls;
    }
  }
}

TEST(Experiment, DeadlineReturnsFalseWhenUnfinished) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  Experiment ex(cfg);
  // 100 MiB cannot finish in 1 ms.
  EXPECT_FALSE(run_flows(ex, {{0, 16 + 4, 100 << 20, 0, true}}, kMillisecond));
}

// --- Bitset64 (core/bitmap.hpp) ----------------------------------------------

TEST(Bitset64, BasicSetTestReset) {
  Bitset64 b(130);  // three words, partial last
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i : {0u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    EXPECT_FALSE(b.test(i));
    b.set(i);
    EXPECT_TRUE(b.test(i));
  }
  EXPECT_EQ(b.count(), 7u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 6u);
}

TEST(Bitset64, TestAndSetReturnsPrevious) {
  Bitset64 b(70);
  EXPECT_FALSE(b.test_and_set(69));
  EXPECT_TRUE(b.test_and_set(69));
  EXPECT_TRUE(b.test(69));
  EXPECT_EQ(b.count(), 1u);
}

TEST(Bitset64, AssignClears) {
  Bitset64 b(10);
  b.set(3);
  b.assign(200);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitset64, WindowWithinOneWord) {
  Bitset64 b(128);
  b.set(10);
  b.set(12);
  b.set(19);
  EXPECT_EQ(b.window(10, 10), 0b1000000101u);
  EXPECT_EQ(b.window(10, 3), 0b101u);
  EXPECT_EQ(b.window(0, 10), 0u);
  EXPECT_EQ(b.window(0, 0), 0u);
}

TEST(Bitset64, WindowStraddlesWordBoundary) {
  // Shard windows rarely align to 64; bits must flow across the seam.
  Bitset64 b(192);
  b.set(60);
  b.set(63);
  b.set(64);
  b.set(70);
  EXPECT_EQ(b.window(60, 11), (1u << 0) | (1u << 3) | (1u << 4) | (1u << 10));
  EXPECT_EQ(b.window(63, 2), 0b11u);
  // Full 64-bit window starting mid-word.
  b.set(123);
  EXPECT_EQ(b.window(60, 64),
            (1ull << 0) | (1ull << 3) | (1ull << 4) | (1ull << 10) | (1ull << 63));
}

TEST(Bitset64, WindowAtTailOfLastWord) {
  Bitset64 b(100);
  b.set(98);
  b.set(99);
  EXPECT_EQ(b.window(96, 4), 0b1100u);
  EXPECT_EQ(b.window(99, 1), 1u);
}

TEST(Bitset64, CountRangeMatchesBruteForce) {
  Bitset64 b(300);
  for (std::size_t i = 0; i < 300; i += 7) b.set(i);
  for (std::size_t pos : {0u, 1u, 63u, 64u, 90u, 200u}) {
    for (std::size_t n : {0u, 1u, 10u, 64u, 65u, 100u}) {
      if (pos + n > 300) continue;
      std::size_t want = 0;
      for (std::size_t i = pos; i < pos + n; ++i) want += b.test(i);
      EXPECT_EQ(b.count_range(pos, n), want) << pos << "+" << n;
    }
  }
}

// --- PodRing (core/ring.hpp) -------------------------------------------------

// Above 2^63 slots the power-of-two doubling would wrap to 0 and spin; the
// request must fail at once and leave the ring as it was.
TEST(PodRing, ReserveAboveLargestPowerOfTwoThrows) {
  PodRing<std::uint64_t> r;
  for (std::uint64_t v = 0; v < 20; ++v) r.push_back(v);  // grown once, wrapped
  r.pop_front();
  const std::size_t cap = r.capacity();
  EXPECT_THROW(r.reserve(SIZE_MAX), std::length_error);
  EXPECT_THROW(r.reserve((std::size_t{1} << 63) + 1), std::length_error);
  EXPECT_EQ(r.capacity(), cap);
  ASSERT_EQ(r.size(), 19u);
  for (std::uint64_t v = 20; v < 100; ++v) r.push_back(v);
  for (std::uint64_t v = 1; v < 100; ++v) {
    ASSERT_EQ(r.front(), v);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

// The `uno_sim --digest` text: runbench recomputes it and CI's workload-smoke
// job greps it, so the field order and zero-padded hex are a contract.
TEST(RunDigest, LineFormat) {
  RunDigest d;
  d.flows = 3;
  d.events = 12223;
  d.sim_end = 2464000000;
  d.fct_sum = 4125580160;
  d.fct_hash = 0x018c21afd029b7c3ull;
  d.fct_seq_hash = 7;  // not part of the line
  EXPECT_EQ(d.line(),
            "flows=3 events=12223 sim_end=2464000000 fct_sum=4125580160 "
            "fct_hash=018c21afd029b7c3");
  d.fct_hash = 0xab;
  EXPECT_EQ(d.line().substr(d.line().find("fct_hash=")), "fct_hash=00000000000000ab");
}

}  // namespace
}  // namespace uno
