// Flow retirement (DESIGN.md §15): an Experiment destroys a harness flow's
// record at the first sync point at which nothing can touch the flow again,
// keeps every flow that lost a data packet, pinned flows and flows an
// on_spawn observer sees, and no result moves.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "net/loss.hpp"
#include "obs/metrics.hpp"
#include "workload/scenario.hpp"

namespace uno {
namespace {

ExperimentConfig quick_cfg(int shards, int dcs = 2) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.shards = shards;
  cfg.uno.num_dcs = dcs;
  return cfg;
}

/// uno_sim --loss-scale: Table-1 burst loss on every cross-DC link.
void apply_wan_loss(Experiment& ex, double scale) {
  BurstLoss::Params p = BurstLoss::table1_setup1();
  p.event_rate *= scale;
  std::uint64_t stream = 900;
  for (int d = 0; d < ex.topo().num_dcs(); ++d)
    for (int peer = 0; peer < ex.topo().num_dcs(); ++peer)
      for (int j = 0; peer != d && j < ex.topo().cross_link_count(); ++j)
        ex.topo().cross_link(d, peer, j).set_loss_model(
            std::make_unique<BurstLoss>(p, Rng::stream(ex.config().seed, stream++)));
}

/// Run rpc_churn's quick preset with `kvs` through a harness on `ex`;
/// `observe`, if set, becomes the harness's on_spawn observer.
bool run_rpc_churn(Experiment& ex, const std::vector<ScenarioOption>& kvs,
                   std::function<void(FlowSender&)> observe = nullptr) {
  auto sc = ScenarioRegistry::instance().create("rpc_churn");
  const ScenarioEnv env{{ex.topo().hosts_per_dc(), ex.topo().num_dcs()}, ex.config().seed,
                        ex.config().uno.link_rate, true};
  std::string err;
  EXPECT_TRUE(sc->set_options(kvs, &err)) << err;
  EXPECT_TRUE(sc->init(env, &err)) << err;
  ScenarioHarness harness(ex, *sc);
  if (observe) harness.on_spawn(std::move(observe));
  return harness.run(kSecond);
}

MetricRegistry metrics_of(const Experiment& ex) {
  MetricRegistry m;
  ex.snapshot_metrics(m);
  return m;
}

/// Flow `id`'s receiver, found the way a data packet finds it, or null once
/// the flow's record is gone.
const FlowReceiver* receiver_of(Experiment& ex, std::uint64_t id, int dst) {
  Packet probe;
  probe.type = PacketType::kData;
  probe.flow_id = id;
  return dynamic_cast<const FlowReceiver*>(
      ex.topo().host(dst).flow_table().endpoint(probe));
}

TEST(FlowRetirement, LosslessOpenLoopRetiresEveryCompletedFlow) {
  Experiment ex(quick_cfg(1));
  ASSERT_TRUE(run_rpc_churn(ex, {}));
  const MetricRegistry m = metrics_of(ex);
  ASSERT_EQ(m.counter("fabric.drops"), 0u);
  const std::uint64_t spawned = m.counter("flows.spawned");
  EXPECT_EQ(spawned, 19087u);
  EXPECT_EQ(m.counter("flows.completed"), spawned);
  EXPECT_EQ(m.counter("flows.retired"), spawned);
  // About one sync window of flows in progress is kept across each sync
  // point, not the run's history.
  EXPECT_GT(m.counter("flows.resident_peak"), 0u);
  EXPECT_LT(m.counter("flows.resident_peak") * 5, spawned);
  for (std::size_t i = 0; i < ex.flows_spawned(); ++i) {
    const SenderView v = ex.sender(i);
    ASSERT_EQ(v.live(), nullptr) << i;
    EXPECT_EQ(v.params().id, i + 1);
    EXPECT_EQ(receiver_of(ex, i + 1, v.params().dst), nullptr) << i;
  }
}

TEST(FlowRetirement, CountersAndDigestAgreeAcrossShardCounts) {
  // Four DCs, so that four shards are four.
  RunDigest want;
  std::uint64_t want_retired = 0, want_peak = 0;
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Experiment ex(quick_cfg(shards, 4));
    ASSERT_EQ(ex.shards(), shards);
    ASSERT_TRUE(run_rpc_churn(ex, {{"duration-ms", "0.5"}}));
    const MetricRegistry m = metrics_of(ex);
    if (shards == 1) {
      want = ex.digest();
      want_retired = m.counter("flows.retired");
      want_peak = m.counter("flows.resident_peak");
      EXPECT_GT(want_retired, 0u);
      continue;
    }
    EXPECT_EQ(ex.digest(), want);
    EXPECT_EQ(m.counter("flows.retired"), want_retired);
    EXPECT_EQ(m.counter("flows.resident_peak"), want_peak);
  }
}

TEST(FlowRetirement, LossyRunKeepsFlowsThatLostDataAndMatchesPinnedRun) {
  const std::vector<ScenarioOption> kvs{{"duration-ms", "0.5"}, {"inter-frac", "0.5"}};
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Experiment streamed(quick_cfg(shards));
    apply_wan_loss(streamed, 200);
    ASSERT_TRUE(run_rpc_churn(streamed, kvs));

    // The same flows, spawned up front and pinned.
    std::vector<FlowSpec> specs;
    for (std::size_t i = 0; i < streamed.flows_spawned(); ++i) {
      const FlowParams& p = streamed.sender(i).params();
      specs.push_back({p.src, p.dst, p.size_bytes, p.start_time, p.interdc});
    }
    Experiment pinned(quick_cfg(shards));
    apply_wan_loss(pinned, 200);
    pinned.spawn_all(specs);
    ASSERT_TRUE(pinned.run_to_completion(kSecond));
    EXPECT_EQ(streamed.digest(), pinned.digest());
    ASSERT_GT(pinned.topo().total_drops(), 0u);

    std::size_t lost = 0, retired = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const FlowSender& snd = *pinned.sender(i).live();
      const FlowReceiver* rcv = receiver_of(pinned, i + 1, specs[i].dst);
      ASSERT_NE(rcv, nullptr);
      const bool lost_data = snd.packets_sent() != rcv->data_packets_received() +
                                                       rcv->duplicates() + rcv->trims_seen();
      const SenderView v = streamed.sender(i);
      // A retired flow's parameters are rebuilt from its spec, exactly.
      EXPECT_EQ(v.params(), snd.params()) << i;
      if (lost_data) {
        ++lost;
        EXPECT_NE(v.live(), nullptr) << "flow " << i + 1 << " lost data yet retired";
      }
      if (v.live() == nullptr) ++retired;
    }
    EXPECT_GT(lost, 0u);
    EXPECT_GT(retired, 0u);
    const MetricRegistry m = metrics_of(streamed);
    EXPECT_EQ(m.counter("flows.retired"), retired);
    EXPECT_LE(retired + lost, m.counter("flows.completed"));
    EXPECT_EQ(metrics_of(pinned).counter("flows.retired"), 0u);
  }
}

TEST(FlowRetirement, OnSpawnObserverPinsEveryFlow) {
  Experiment plain(quick_cfg(1));
  ASSERT_TRUE(run_rpc_churn(plain, {{"duration-ms", "0.5"}}));
  Experiment observed(quick_cfg(1));
  std::size_t seen = 0;
  ASSERT_TRUE(run_rpc_churn(observed, {{"duration-ms", "0.5"}},
                            [&seen](FlowSender&) { ++seen; }));
  EXPECT_EQ(seen, observed.flows_spawned());
  EXPECT_EQ(metrics_of(observed).counter("flows.retired"), 0u);
  EXPECT_GT(metrics_of(plain).counter("flows.retired"), 0u);
  for (std::size_t i = 0; i < observed.flows_spawned(); ++i)
    ASSERT_NE(observed.sender(i).live(), nullptr) << i;
  EXPECT_EQ(observed.digest(), plain.digest());
}

}  // namespace
}  // namespace uno
