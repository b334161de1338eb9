// Integration tests: scaled-down versions of the paper's headline behaviours
// (fairness convergence, phantom-queue near-zero queuing, EC loss masking,
// UnoLB failure avoidance) plus whole-system conservation checks.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "run_flows.hpp"
#include "stats/sampler.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

ExperimentConfig cfg_for(SchemeSpec scheme, int k = 4) {
  ExperimentConfig cfg;
  cfg.fattree_k = k;
  cfg.scheme = std::move(scheme);
  return cfg;
}

HostSpace hosts_for(int k = 4) { return HostSpace{k * k * k / 4, 2}; }

/// Mixed incast: N intra + N inter flows into one receiver. Returns the
/// rate sampler for fairness analysis (caller keeps the experiment alive).
std::unique_ptr<RateSampler> run_mixed_incast(Experiment& ex, int n_each,
                                              std::uint64_t flow_bytes, Time horizon) {
  ObservedFlows flows(ex, make_incast(hosts_for(), /*receiver=*/0, n_each, n_each, flow_bytes));
  auto sampler = std::make_unique<RateSampler>(ex.eq(), 200 * kMicrosecond);
  flows.begin();
  for (std::size_t i = 0; i < flows.size(); ++i)
    sampler->watch(&flows[i], flows[i].params().interdc ? "inter" : "intra");
  sampler->start();
  flows.run(horizon);
  sampler->stop();
  return sampler;
}

TEST(Integration, UnoMixedIncastConvergesToFairShare) {
  Experiment ex(cfg_for(SchemeSpec::uno()));
  auto sampler = run_mixed_incast(ex, 4, 8 << 20, 100 * kMillisecond);
  ASSERT_TRUE(ex.all_complete());
  const Time conv = sampler->convergence_time(0.9);
  EXPECT_NE(conv, kTimeInfinity);
  EXPECT_LT(conv, 30 * kMillisecond) << "Uno must converge quickly";
}

TEST(Integration, UnoConvergesFasterThanGemini) {
  Time uno_conv, gem_conv;
  {
    Experiment ex(cfg_for(SchemeSpec::uno()));
    auto s = run_mixed_incast(ex, 4, 8 << 20, 150 * kMillisecond);
    uno_conv = s->convergence_time(0.85);
  }
  {
    Experiment ex(cfg_for(SchemeSpec::named("gemini")));
    auto s = run_mixed_incast(ex, 4, 8 << 20, 150 * kMillisecond);
    gem_conv = s->convergence_time(0.85);
  }
  ASSERT_NE(uno_conv, kTimeInfinity);
  // Gemini either converges later or not at all within the horizon (Fig. 3).
  EXPECT_GT(gem_conv, uno_conv);
}

TEST(Integration, AllSchemesSurviveMixedIncast) {
  // Robustness: every catalogued scheme completes the workload.
  for (const char* name : {"uno", "uno+ecmp", "gemini", "mprdma+bbr", "swift+bbr", "dctcp"}) {
    Experiment ex(cfg_for(SchemeSpec::named(name)));
    EXPECT_TRUE(run_flows(ex, make_incast(hosts_for(), 0, 2, 2, 2 << 20), 400 * kMillisecond))
        << name;
  }
}

TEST(Integration, PhantomQueuesKeepPhysicalQueueNearZero) {
  // Fig. 4: inter-DC incast into one receiver; with phantom queues the
  // receiver's edge port stays nearly empty in steady state, without them
  // it hovers around the RED thresholds.
  auto run = [](bool phantom) {
    SchemeSpec s = SchemeSpec::named("unolb");
    s.phantom_marking = phantom;
    Experiment ex(cfg_for(s));
    // Long-lived incast: 6 x 200 MiB keeps the bottleneck saturated for
    // ~100 ms. The interesting regime starts once the flows' additive
    // increase pushes the aggregate window past the BDP (~40 ms in): with
    // physical RED only, a standing queue must form to generate marks; with
    // phantom queues the marks arrive while the physical queue is empty.
    OpenLoopScenario incast(make_incast(hosts_for(), 0, 0, 6, 200 << 20));
    ScenarioHarness h(ex, incast);
    h.begin();
    QueueSampler qs(ex.eq(), 100 * kMicrosecond);
    qs.watch(&ex.topo().host_ingress_queue(0));
    qs.start();
    h.run(40 * kMillisecond);
    const std::size_t skip = qs.physical(0).size();
    h.run(90 * kMillisecond);
    qs.stop();
    const TimeSeries& ts = qs.physical(0);
    double mean = 0;
    for (std::size_t i = skip; i < ts.size(); ++i) mean += ts.v[i];
    return mean / static_cast<double>(ts.size() - skip);
  };
  const double with_phantom = run(true);
  const double without_phantom = run(false);
  EXPECT_LT(with_phantom, without_phantom / 2);
  EXPECT_LT(with_phantom, 128 * 1024);  // "near-zero" vs the 1 MiB buffer
}

TEST(Integration, EcMasksBurstyWanLoss) {
  // Fig. 13B flavour: correlated loss on the WAN; EC avoids most NACK/RTO
  // recovery rounds that the no-EC variant needs.
  auto run = [](bool ec) {
    SchemeSpec s = ec ? SchemeSpec::uno() : SchemeSpec::named("unolb");
    Experiment ex(cfg_for(s));
    for (int j = 0; j < ex.topo().cross_link_count(); ++j) {
      GilbertElliottLoss::Params p;  // aggressive bursts for a short test:
      p.p_good_to_bad = 8e-3;        // ~1.3% packet loss in ~3-packet bursts
      p.p_bad_to_good = 0.3;
      p.loss_bad = 0.5;
      ex.topo().cross_link(0, j).set_loss_model(
          std::make_unique<GilbertElliottLoss>(p, Rng::stream(17, j)));
    }
    EXPECT_TRUE(run_flows(ex, {{1, 16 + 1, 16 << 20, 0, true}}, 2 * kSecond));
    const FlowResult r = ex.fct().count() == 1 ? ex.fct().results()[0] : FlowResult{};
    return std::pair{r.completion_time, r.retransmits};
  };
  const auto [fct_ec, rtx_ec] = run(true);
  const auto [fct_noec, rtx_noec] = run(false);
  // No-EC pays recovery rounds for dozens of losses; EC + UnoLB spreads each
  // block over distinct WAN links so a burst rarely kills 3 of 10 shards.
  EXPECT_LT(fct_ec, fct_noec);
  EXPECT_LT(rtx_ec, rtx_noec / 2 + 1);
}

TEST(Integration, UnoLbRoutesAroundFailedCrossLink) {
  // Fig. 13A flavour: one border link dies mid-flow. UnoLB must reroute the
  // affected subflow and finish without being stuck behind repeated RTOs.
  Experiment ex(cfg_for(SchemeSpec::uno()));
  ObservedFlows flows(ex, {{2, 16 + 5, 16 << 20, 0, true}});
  flows.begin();
  FlowSender& snd = flows[0];
  // The flow starts at spawn; its LB exists only while it runs.
  ASSERT_NE(dynamic_cast<UnoLb*>(&snd.lb()), nullptr);
  flows.run(kMillisecond);
  ex.topo().cross_link(0, 3).set_up(false);  // fail one of 8 WAN links
  ASSERT_TRUE(flows.run(kSecond));
  EXPECT_TRUE(snd.done());
  // The failed link's subflow was evicted (or never used): no subflow may
  // still map to a path crossing link 3 *and* have stale ACKs.
  EXPECT_GE(snd.reroutes() + snd.nacks_received(), 0u);  // sanity
  // Completion time stays within a small multiple of the no-failure run.
  Experiment clean(cfg_for(SchemeSpec::uno()));
  ASSERT_TRUE(run_flows(clean, {{2, 16 + 5, 16 << 20, 0, true}}, kSecond));
  EXPECT_LT(snd.fct(), 3 * clean.fct().results()[0].completion_time);
}

TEST(Integration, ConservationUnderHeavyIncast) {
  // Heavy incast with a baseline scheme that *will* drop packets: every
  // packet is eventually delivered or dropped, and all flows still finish.
  Experiment ex(cfg_for(SchemeSpec::named("dctcp")));
  ASSERT_TRUE(run_flows(ex, make_incast(hosts_for(), 0, 6, 6, 4 << 20), 2 * kSecond));
  for (int h = 0; h < ex.topo().num_hosts(); ++h)
    EXPECT_EQ(ex.topo().host(h).stray_packets(), 0u);
  // With 12 x BDP initial windows colliding, the 1 MiB ingress port must
  // have shed load — as trims (payload losses) under the trimming fabric.
  EXPECT_GT(ex.topo().total_trims(), 0u);
}

TEST(Integration, PermutationAllFlowsComplete) {
  Experiment ex(cfg_for(SchemeSpec::uno()));
  ASSERT_TRUE(run_flows(ex, make_permutation(hosts_for(), 1 << 20, 3), kSecond));
  EXPECT_EQ(ex.fct().count(), 32u);
}

TEST(Integration, RealisticMiniWorkloadRuns) {
  // A miniature Fig. 10 cell: Poisson websearch+WAN mix at 20% load on the
  // k=4 topology with scaled flow sizes.
  Experiment ex(cfg_for(SchemeSpec::uno()));
  PoissonConfig pc;
  pc.load = 0.2;
  pc.duration = 4 * kMillisecond;
  pc.seed = 11;
  auto specs = make_poisson_mixed(hosts_for(), EmpiricalCdf::websearch().scaled(1.0 / 64),
                                  EmpiricalCdf::alibaba_wan().scaled(1.0 / 64), pc);
  ASSERT_FALSE(specs.empty());
  ASSERT_TRUE(run_flows(ex, specs, kSecond));
  const auto all = ex.fct().summarize();
  EXPECT_EQ(all.count, specs.size());
  EXPECT_GT(all.mean_slowdown, 0.99);
}

}  // namespace
}  // namespace uno
