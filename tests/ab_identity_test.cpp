// A/B byte-identity guard for the event-core + net hot paths.
//
// Every golden runs through a ScenarioHarness, the one driver loop. The
// timing-wheel scheduler (sim/wheel.hpp), batched link delivery
// (net/link.cpp) and conservative-PDES sharding (sim/shard.hpp) are pure
// performance work: they must not perturb the simulation at all. These tests
// pin two inter-DC scenarios — a scaled-down perm_inter (the BENCH_PERF
// outlier) and a FEC-lossy WAN incast — to golden numbers, and run each at
// --shards 1, 2 and 4 against the SAME golden: a sharded run must reproduce
// the monolithic run bit for bit (event counts, final time, the exact FCT
// sequence). See DESIGN.md §14 for why that holds: cross-seam deliveries are
// keyed canonically in every mode, per-atom event order is preserved, and
// each step's completion records are appended in canonical order, so the
// record is canonical at every sync point.
//
// If a deliberate behavior change invalidates these numbers, regenerate with
//   UNO_PRINT_GOLDEN=1 ./tests/ab_identity_test
// and update the constants — but a perf-only PR must never need to.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/experiment.hpp"
#include "net/loss.hpp"
#include "workload/scenario.hpp"
#include "workload/scenario_lib.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

/// The golden subset of a RunDigest (Experiment::digest()): event count
/// (summed over shards), final clock, exact FCT sum (ps), the order-sensitive
/// FCT sequence hash, and the transport counters.
struct GoldenRun {
  std::uint64_t events;
  Time sim_end;
  std::uint64_t fct_sum;
  std::uint64_t fct_seq_hash;
  std::uint64_t packets;
  std::uint64_t retransmits;
  std::uint64_t nacks;
  std::uint64_t fec_masked;
};

void print_or_check(const char* name, const RunDigest& got, const GoldenRun& want) {
  if (std::getenv("UNO_PRINT_GOLDEN") != nullptr) {
    std::printf(
        "golden %s = {%lluull, %lld, %lluull, %lluull, %lluull, %lluull, %lluull, "
        "%lluull};\n",
        name, (unsigned long long)got.events, (long long)got.sim_end,
        (unsigned long long)got.fct_sum, (unsigned long long)got.fct_seq_hash,
        (unsigned long long)got.packets, (unsigned long long)got.retransmits,
        (unsigned long long)got.nacks, (unsigned long long)got.fec_masked);
    return;
  }
  EXPECT_EQ(got.events, want.events) << name << ": event count drifted";
  EXPECT_EQ(got.sim_end, want.sim_end) << name << ": final sim time drifted";
  EXPECT_EQ(got.fct_sum, want.fct_sum) << name << ": FCT sum drifted";
  EXPECT_EQ(got.fct_seq_hash, want.fct_seq_hash) << name << ": FCT order/values drifted";
  EXPECT_EQ(got.packets, want.packets) << name;
  EXPECT_EQ(got.retransmits, want.retransmits) << name;
  EXPECT_EQ(got.nacks, want.nacks) << name;
  EXPECT_EQ(got.fec_masked, want.fec_masked) << name;
}

/// Shard counts every scenario runs at. With two DCs the partition has two
/// atoms, so 4 exercises the clamp path (resolves to 2) on top of the real
/// two-shard run; the 4-DC mesh scenario runs all three counts for real.
constexpr int kShardCounts[] = {1, 2, 4};

/// `run` at every shard count: the monolithic digest must match the golden
/// and every sharded digest must equal the monolithic one, field for field.
void check_golden(const char* name, RunDigest (*run)(int), const GoldenRun& want) {
  RunDigest mono;
  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const RunDigest got = run(shards);
    if (shards == 1) {
      mono = got;
      print_or_check(name, got, want);  // golden print once
    } else {
      EXPECT_EQ(got, mono) << "sharded run diverged from the monolithic golden";
    }
  }
}

/// Scaled-down perm_inter: the BENCH_PERF outlier scenario at k=4 — random
/// inter/intra permutation, Uno scheme (EC framing + UnoLB + phantom marking
/// on the WAN path), deep 2 ms windows.
RunDigest run_perm_inter(int shards) {
  ExperimentConfig cfg;
  cfg.seed = 1;
  cfg.fattree_k = 4;
  cfg.shards = shards;
  Experiment ex(cfg);
  OpenLoopScenario perm(make_permutation(HostSpace{16, 2}, 128 * 1024, cfg.seed));
  EXPECT_TRUE(ScenarioHarness(ex, perm).run(20 * kSecond));
  return ex.digest();
}

TEST(AbIdentity, PermInterGolden) {
  const GoldenRun want{32460ull,         2240000000,           24812224320ull,
                       9087153265894020800ull, 1120ull, 0ull, 0ull, 0ull};
  check_golden("perm_inter", run_perm_inter, want);
}

/// FEC-lossy inter-DC incast: 1% Bernoulli loss on every cross-DC link, so
/// the run exercises block NACKs, retransmissions, parity-masked losses and
/// the RTO/block-timer churn, all across the shard seam.
RunDigest run_fec_lossy(int shards) {
  ExperimentConfig cfg;
  cfg.seed = 1;
  cfg.fattree_k = 4;
  cfg.shards = shards;
  Experiment ex(cfg);
  for (int d = 0; d < 2; ++d)
    for (int j = 0; j < ex.topo().cross_link_count(); ++j)
      ex.topo().cross_link(d, j).set_loss_model(
          std::make_unique<BernoulliLoss>(0.01, Rng::stream(31, d * 8 + j)));
  OpenLoopScenario incast(make_incast(HostSpace{16, 2}, 0, 0, 8, 512 * 1024));
  EXPECT_TRUE(ScenarioHarness(ex, incast).run(20 * kSecond));
  return ex.digest();
}

TEST(AbIdentity, FecLossyInterGolden) {
  const GoldenRun want{68455ull,         4256000000,           33471365120ull,
                       5728454634497507328ull, 1919ull, 639ull, 60ull, 9ull};
  check_golden("fec_lossy_inter", run_fec_lossy, want);
}

/// 4-DC WAN mesh with a heterogeneous latency matrix (two near pairs at
/// 2 ms, the rest at 8 ms): permutation traffic crosses every seam, so
/// shards 1, 2 and 4 all exercise real multi-atom schedules — 4 shards is
/// no longer the clamp path but a genuine 4-thread run, with per-pair WAN
/// latencies as per-seam PDES lookahead.
RunDigest run_mesh4(int shards) {
  ExperimentConfig cfg;
  cfg.seed = 1;
  cfg.fattree_k = 4;
  cfg.uno.num_dcs = 4;
  cfg.shards = shards;
  cfg.uno.inter_rtt_matrix.assign(16, 0);
  auto set_rtt = [&](int a, int b, Time rtt) {
    cfg.uno.inter_rtt_matrix[static_cast<std::size_t>(a) * 4 + b] = rtt;
    cfg.uno.inter_rtt_matrix[static_cast<std::size_t>(b) * 4 + a] = rtt;
  };
  set_rtt(0, 1, 2 * kMillisecond);
  set_rtt(2, 3, 2 * kMillisecond);
  set_rtt(0, 2, 8 * kMillisecond);
  set_rtt(0, 3, 8 * kMillisecond);
  set_rtt(1, 2, 8 * kMillisecond);
  set_rtt(1, 3, 8 * kMillisecond);
  Experiment ex(cfg);
  OpenLoopScenario perm(make_permutation(HostSpace{16, 4}, 128 * 1024, cfg.seed));
  EXPECT_TRUE(ScenarioHarness(ex, perm).run(40 * kSecond));
  return ex.digest();
}

TEST(AbIdentity, MeshFourDcGolden) {
  const GoldenRun want{80076ull,         8064000000,           282273678400ull,
                       7853276802856749888ull, 2400ull, 0ull, 0ull, 0ull};
  check_golden("mesh4_hetero", run_mesh4, want);
}

/// Closed-loop scenario through the ScenarioHarness sync grid: a small
/// gpu_cluster run (pipeline forward/backward chains, NVLink-delayed
/// cross-DC gradient rings — every flow spawned in *reaction* to another
/// flow finishing). Pins the harness's canonical-delivery contract to a
/// golden: sharded reaction timing must reproduce the monolithic run bit
/// for bit, not just statistically.
RunDigest run_gpu_cluster(int shards) {
  ExperimentConfig cfg;
  cfg.seed = 1;
  cfg.fattree_k = 4;
  cfg.shards = shards;
  Experiment ex(cfg);
  std::unique_ptr<Scenario> sc = ScenarioRegistry::instance().create("gpu_cluster");
  EXPECT_NE(sc, nullptr);
  std::string err;
  EXPECT_TRUE(sc->set_options({{"jobs", "2"}, {"pp-stages", "2"}, {"microbatches", "2"},
                               {"buckets", "2"}, {"iterations", "1"},
                               {"act-mb", "1"}, {"size-mb", "8"}},
                              &err))
      << err;
  ScenarioEnv env;
  env.hosts = HostSpace{16, 2};
  env.seed = cfg.seed;
  EXPECT_TRUE(sc->init(env, &err)) << err;
  ScenarioHarness harness(ex, *sc);
  EXPECT_TRUE(harness.run(20 * kSecond));
  return ex.digest();
}

TEST(AbIdentity, GpuClusterScenarioGolden) {
  const GoldenRun want{794606ull,         5824000000,           101270478255ull,
                       14779931097824780237ull, 24576ull, 0ull, 0ull, 0ull};
  check_golden("gpu_cluster_scn", run_gpu_cluster, want);
}

/// Open-loop short-RPC churn at quick scale (the rpc_churn defaults behind
/// `uno_sim --scenario rpc_churn --quick`): thousands of tiny flows, every
/// one spawned at t=0 with a future start time, so the pin covers the flow
/// lifecycle end to end: deferred starts, per-flow LB streams, slab state
/// taken at start and handed back at completion, and path-pair churn.
RunDigest run_rpc_churn(int shards) {
  ExperimentConfig cfg;
  cfg.seed = 1;
  cfg.fattree_k = 4;
  cfg.shards = shards;
  Experiment ex(cfg);
  std::unique_ptr<Scenario> sc = ScenarioRegistry::instance().create("rpc_churn");
  EXPECT_NE(sc, nullptr);
  ScenarioEnv env;
  env.hosts = HostSpace{16, 2};
  env.seed = cfg.seed;
  env.host_rate = cfg.uno.link_rate;
  env.quick = true;
  std::string err;
  EXPECT_TRUE(sc->init(env, &err)) << err;
  ScenarioHarness harness(ex, *sc);
  EXPECT_TRUE(harness.run(20 * kSecond));
  return ex.digest();
}

TEST(AbIdentity, RpcChurnScenarioGolden) {
  const GoldenRun want{965826ull,         3136000000,           3913997097208ull,
                       4424399517349395266ull, 38053ull, 0ull, 0ull, 0ull};
  check_golden("rpc_churn_scn", run_rpc_churn, want);
}

}  // namespace
}  // namespace uno
