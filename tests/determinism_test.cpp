// Reproducibility guarantees: identical configuration + seed must yield
// bit-identical results (every stochastic component draws from seeded,
// component-local RNG streams); changing the seed must actually change the
// outcome. Plus randomized property sweeps of the EC framing arithmetic.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/experiment.hpp"
#include "fec/block.hpp"
#include "fec/gf256_simd.hpp"
#include "workload/scenario.hpp"
#include "workload/scenario_lib.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

std::vector<Time> run_mixed_scenario(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  cfg.seed = seed;
  Experiment ex(cfg);
  // A workload exercising every stochastic component: RED sampling, RPS
  // spraying on the mprdma path? (uno uses UnoLb rng + poisson rngs).
  PoissonConfig pc;
  pc.load = 0.3;
  pc.duration = 2 * kMillisecond;
  pc.seed = seed;
  auto specs = make_poisson_mixed(HostSpace{16, 2}, EmpiricalCdf::google_rpc(),
                                  EmpiricalCdf::google_rpc().scaled(16), pc);
  OpenLoopScenario poisson(specs);
  ScenarioHarness h(ex, poisson);
  h.begin();
  // Bursty loss adds the loss-model RNG to the mix.
  BurstLoss::Params loss = BurstLoss::table1_setup1();
  loss.event_rate *= 500;
  for (int d = 0; d < 2; ++d)
    for (int j = 0; j < ex.topo().cross_link_count(); ++j)
      ex.topo().cross_link(d, j).set_loss_model(
          std::make_unique<BurstLoss>(loss, Rng::stream(seed, 70 + d * 8 + j)));
  h.run(2 * kSecond);
  std::vector<Time> fcts;
  for (const FlowResult& r : ex.fct().results()) fcts.push_back(r.completion_time);
  return fcts;
}

TEST(Determinism, IdenticalSeedsBitExact) {
  const auto a = run_mixed_scenario(42);
  const auto b = run_mixed_scenario(42);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "flow " << i;
}

TEST(Determinism, DifferentSeedsDiffer) {
  const auto a = run_mixed_scenario(42);
  const auto c = run_mixed_scenario(43);
  bool any_diff = a.size() != c.size();
  for (std::size_t i = 0; !any_diff && i < a.size(); ++i) any_diff = a[i] != c[i];
  EXPECT_TRUE(any_diff);
}

// --- kernel invariance --------------------------------------------------------

/// Lossy WAN transfer with payload verification, under a forced GF(256)
/// kernel. Returns (completion time, verified blocks, sender retransmits).
std::tuple<Time, std::uint32_t, std::uint64_t> run_verified_lossy(gf256::Kernel k) {
  gf256::set_kernel(k);
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  Experiment ex(cfg);
  for (int d = 0; d < 2; ++d)
    for (int j = 0; j < ex.topo().cross_link_count(); ++j)
      ex.topo().cross_link(d, j).set_loss_model(
          std::make_unique<BernoulliLoss>(0.01, Rng::stream(31, d * 8 + j)));
  FlowSpec spec{2, 16 + 9, 2 << 20, 0, true};
  FlowParams params = ex.flow_params(spec);
  params.id = 424242;
  params.verify_payload = true;
  params.payload_shard_bytes = 256;
  const PathSet& paths = ex.topo().paths(spec.src, spec.dst);
  const FlowEnv env{ex.eq(), ex.stacks()};
  Flow flow(env, ex.topo().host(spec.src), ex.topo().host(spec.dst), params, &paths);
  flow.start();
  ex.run_until(kSecond);
  return {ex.eq().now(), flow.receiver().payload_blocks_verified(),
          flow.sender().retransmits()};
}

TEST(Determinism, SimulationBitExactAcrossGfKernels) {
  // GF(2^8) arithmetic is exact, so swapping the vector kernel must not
  // perturb the simulation at all: same verified-block count, same
  // retransmit count, same final event time under every supported kernel.
  const gf256::Kernel initial = gf256::active_kernel();
  const auto reference = run_verified_lossy(gf256::Kernel::kScalar);
  EXPECT_EQ(std::get<1>(reference), 64u);  // all blocks decoded + verified
  for (gf256::Kernel k : {gf256::Kernel::kSsse3, gf256::Kernel::kAvx2,
                          gf256::Kernel::kNeon}) {
    if (!gf256::kernel_supported(k)) continue;
    const auto got = run_verified_lossy(k);
    EXPECT_EQ(got, reference) << gf256::kernel_name(k);
  }
  gf256::set_kernel(initial);
}

// --- randomized BlockFrame properties ----------------------------------------

class BlockFrameProperty : public ::testing::TestWithParam<int> {};

TEST_P(BlockFrameProperty, FramingArithmeticConsistent) {
  Rng rng = Rng::stream(0xB10C, static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t mtu = 512 << rng.uniform_below(4);  // 512..4096
    const std::uint64_t size = 1 + rng.uniform_below(64ull * 4096);
    const int x = 1 + static_cast<int>(rng.uniform_below(12));
    const int y = static_cast<int>(rng.uniform_below(5));
    const bool ec = y > 0;
    BlockFrame f(size, mtu, ec, x, y);

    // Sizes over all data shards sum to the message; shard_of is total and
    // consistent with block boundaries.
    std::uint64_t data_bytes = 0;
    std::uint64_t last_block_first = 0;
    for (std::uint64_t seq = 0; seq < f.total_packets(); ++seq) {
      const auto s = f.shard_of(seq);
      ASSERT_LT(s.block, f.num_blocks());
      ASSERT_LT(static_cast<int>(s.index), f.shards_in_block(s.block));
      ASSERT_EQ(seq >= f.first_seq_of_block(s.block), true);
      if (!s.parity) data_bytes += s.size;
      if (s.block == f.num_blocks() - 1) last_block_first = f.first_seq_of_block(s.block);
    }
    EXPECT_EQ(data_bytes, std::max<std::uint64_t>(size, 1));
    EXPECT_LE(last_block_first, f.total_packets());

    // Marking exactly the data shards of each block completes the frame.
    for (std::uint32_t b = 0; b < f.num_blocks(); ++b) {
      const std::uint64_t first = f.first_seq_of_block(b);
      for (int i = 0; i < f.data_shards_in_block(b); ++i) f.mark(first + i);
      EXPECT_TRUE(f.block_complete(b));
    }
    EXPECT_TRUE(f.complete());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockFrameProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace uno
