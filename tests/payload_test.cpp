// End-to-end payload verification: the Reed–Solomon codec running in-line
// with the transport, proving that "block decodable" in the accounting
// really reconstructs the original bytes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "fec/payload.hpp"

namespace uno {
namespace {

std::vector<std::uint8_t> bytes_of(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

// --- unit level ---------------------------------------------------------------

TEST(Payload, StoreShardsAreDeterministic) {
  BlockFrame frame(16 * 4096, 4096, true, 8, 2);
  PayloadStore a(42, frame, 128);
  PayloadStore b(42, frame, 128);
  PayloadStore c(43, frame, 128);
  for (std::uint64_t seq : {0ull, 7ull, 8ull, 9ull, 10ull, 19ull}) {
    EXPECT_EQ(bytes_of(a.shard(seq)), bytes_of(b.shard(seq))) << seq;
  }
  EXPECT_NE(bytes_of(a.shard(0)), bytes_of(c.shard(0)));  // keyed by flow id
}

TEST(Payload, DataShardsMatchExpected) {
  BlockFrame frame(16 * 4096, 4096, true, 8, 2);
  PayloadStore store(7, frame, 128);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(bytes_of(store.shard(i)), PayloadStore::expected_data(7, 0, i, 128));
}

TEST(Payload, StoreEncodesEachBlockOnce) {
  BlockFrame frame(16 * 4096, 4096, true, 8, 2);
  PayloadStore store(21, frame, 128);
  for (int rep = 0; rep < 3; ++rep)
    for (std::uint64_t seq = 0; seq < frame.total_packets(); ++seq) store.shard(seq);
  EXPECT_EQ(store.blocks_encoded(), frame.num_blocks());
}

TEST(Payload, VerifierAcceptsFullBlock) {
  BlockFrame frame(8 * 4096, 4096, true, 8, 2);
  PayloadStore store(9, frame, 128);
  PayloadVerifier v(9, frame, 128);
  for (int i = 0; i < 8; ++i) {
    const bool completed = v.on_shard(0, i, store.shard(i).data());
    EXPECT_EQ(completed, i == 7);
  }
  EXPECT_EQ(v.blocks_verified(), 1u);
  EXPECT_EQ(v.blocks_corrupt(), 0u);
  EXPECT_TRUE(v.all_verified());
}

class PayloadErasureTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PayloadErasureTest, ReconstructsFromAnyEightOfTen) {
  // Drop the two parametrized shards; the other eight must reconstruct.
  const auto [skip1, skip2] = GetParam();
  BlockFrame frame(8 * 4096, 4096, true, 8, 2);
  PayloadStore store(11, frame, 256);
  PayloadVerifier v(11, frame, 256);
  for (int i = 0; i < 10; ++i) {
    if (i == skip1 || i == skip2) continue;
    v.on_shard(0, i, store.shard(i).data());
  }
  EXPECT_EQ(v.blocks_verified(), 1u);
  EXPECT_EQ(v.blocks_corrupt(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ErasurePairs, PayloadErasureTest,
                         ::testing::Values(std::pair{0, 1}, std::pair{0, 9},
                                           std::pair{3, 7}, std::pair{8, 9},
                                           std::pair{4, 8}, std::pair{6, 7}));

TEST(Payload, CorruptShardDetected) {
  BlockFrame frame(8 * 4096, 4096, true, 8, 2);
  PayloadStore store(13, frame, 128);
  PayloadVerifier v(13, frame, 128);
  for (int i = 0; i < 7; ++i) v.on_shard(0, i, store.shard(i).data());
  std::vector<std::uint8_t> bad = bytes_of(store.shard(7));
  bad[5] ^= 0xFF;
  v.on_shard(0, 7, bad.data());
  EXPECT_EQ(v.blocks_corrupt(), 1u);
  EXPECT_FALSE(v.all_verified());
}

TEST(Payload, ShortLastBlockVerifies) {
  // 11 data shards -> second block has 3 data + 2 parity.
  BlockFrame frame(11 * 4096, 4096, true, 8, 2);
  PayloadStore store(17, frame, 64);
  PayloadVerifier v(17, frame, 64);
  // Deliver block 1 with its first data shard missing: parity must cover.
  const std::uint64_t first = frame.first_seq_of_block(1);
  for (std::uint64_t seq = first + 1; seq < first + 5; ++seq) {
    const auto s = frame.shard_of(seq);
    v.on_shard(1, s.index, store.shard(seq).data());
  }
  EXPECT_EQ(v.blocks_verified(), 1u);
  EXPECT_EQ(v.blocks_corrupt(), 0u);
}

TEST(Payload, DuplicatesIgnored) {
  BlockFrame frame(8 * 4096, 4096, true, 8, 2);
  PayloadStore store(19, frame, 64);
  PayloadVerifier v(19, frame, 64);
  for (int rep = 0; rep < 3; ++rep)
    for (int i = 0; i < 5; ++i) v.on_shard(0, i, store.shard(i).data());
  EXPECT_EQ(v.blocks_verified(), 0u);  // still only 5 distinct shards
  for (int i = 5; i < 8; ++i) v.on_shard(0, i, store.shard(i).data());
  EXPECT_EQ(v.blocks_verified(), 1u);
}

TEST(Payload, VerifierSteadyStateAllocationFree) {
  // Zero per-block heap allocations once warm: blocks decode one at a time,
  // so the verifier's arena pool must recycle a single arena — acquires()
  // grows per block while heap_allocs() stays pinned at the warm-up count.
  const std::uint32_t blocks = 64;
  BlockFrame frame(blocks * 8 * 512, 512, true, 8, 2);
  PayloadStore store(23, frame, 64);
  PayloadVerifier v(23, frame, 64);
  ASSERT_EQ(frame.num_blocks(), blocks);
  std::uint64_t warm_allocs = 0;
  for (std::uint32_t b = 0; b < blocks; ++b) {
    const std::uint64_t first = frame.first_seq_of_block(b);
    // Erase a rotating pair so reconstruct (not just copy-through) runs.
    const int skip1 = static_cast<int>(b % 10);
    const int skip2 = static_cast<int>((b / 10 + 3) % 10);
    for (int i = 0; i < 10; ++i) {
      if (i == skip1 || i == skip2) continue;
      v.on_shard(b, i, store.shard(first + static_cast<std::uint64_t>(i)).data());
    }
    if (b == 0) warm_allocs = v.pool_heap_allocs();
  }
  EXPECT_EQ(v.blocks_verified(), blocks);
  EXPECT_EQ(v.pool_heap_allocs(), warm_allocs) << "verifier allocated per block";
  EXPECT_EQ(v.pool_acquires(), static_cast<std::uint64_t>(blocks));
  // The sender side is one slab for the whole flow, encoded lazily.
  EXPECT_EQ(store.blocks_encoded(), blocks);
}

TEST(Payload, InterleavedBlocksReusepooledArenas) {
  // Two blocks in flight at once -> pool high-water of two arenas, still no
  // growth afterwards.
  BlockFrame frame(4 * 8 * 512, 512, true, 8, 2);
  PayloadStore store(29, frame, 64);
  PayloadVerifier v(29, frame, 64);
  for (int i = 0; i < 8; ++i) {
    for (std::uint32_t b = 0; b < 4; ++b)
      v.on_shard(b, i, store.shard(frame.first_seq_of_block(b) + i).data());
  }
  EXPECT_EQ(v.blocks_verified(), 4u);
  EXPECT_EQ(v.pool_acquires(), 4u);
  EXPECT_LE(v.pool_heap_allocs(), 4u);
}

// --- transport level ----------------------------------------------------------

ExperimentConfig cfg_with_uno() {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  return cfg;
}

/// Build and start an EC flow with payload verification enabled, on `env`
/// (hand-built because verify_payload is a per-flow knob).
struct VerifiedFlow {
  std::unique_ptr<Flow> flow;
  FlowSender* sender;
  FlowReceiver* receiver;
};

VerifiedFlow spawn_verified(Experiment& ex, const FlowEnv& env, const FlowSpec& spec) {
  FlowParams params = ex.flow_params(spec);
  params.id = 777000 + static_cast<std::uint64_t>(spec.src) * 1000 + spec.dst;
  params.verify_payload = true;
  params.payload_shard_bytes = 128;
  const PathSet& paths = ex.topo().paths(spec.src, spec.dst);
  auto flow = std::make_unique<Flow>(env, ex.topo().host(spec.src),
                                     ex.topo().host(spec.dst), params, &paths);
  flow->start();
  VerifiedFlow v{std::move(flow), nullptr, nullptr};
  v.sender = &v.flow->sender();
  v.receiver = &v.flow->receiver();
  return v;
}

TEST(Payload, CleanWanTransferVerifiesEveryBlock) {
  Experiment ex(cfg_with_uno());
  const FlowEnv env{ex.eq(), ex.stacks()};
  VerifiedFlow v = spawn_verified(ex, env, {0, 16 + 5, 2 << 20, 0, true});
  ex.run_until(200 * kMillisecond);
  ASSERT_TRUE(v.sender->done());
  // 512 data packets -> 64 blocks, each reconstructed and bit-checked.
  EXPECT_EQ(v.receiver->payload_blocks_verified(), 64u);
  EXPECT_EQ(v.receiver->payload_blocks_corrupt(), 0u);
}

TEST(Payload, LossyWanTransferStillVerifies) {
  // Random WAN loss: blocks complete via parity or retransmission; every
  // reconstruction must still be bit-exact.
  Experiment ex(cfg_with_uno());
  for (int d = 0; d < 2; ++d)
    for (int j = 0; j < ex.topo().cross_link_count(); ++j)
      ex.topo().cross_link(d, j).set_loss_model(
          std::make_unique<BernoulliLoss>(0.01, Rng::stream(21, d * 8 + j)));
  const FlowEnv env{ex.eq(), ex.stacks()};
  VerifiedFlow v = spawn_verified(ex, env, {1, 16 + 6, 2 << 20, 0, true});
  ex.run_until(kSecond);
  ASSERT_TRUE(v.sender->done());
  EXPECT_EQ(v.receiver->payload_blocks_corrupt(), 0u);
  EXPECT_EQ(v.receiver->payload_blocks_verified(), 64u);
}

TEST(Payload, TrimmedShardsCarryNoBytes) {
  // Force trims on the WAN bottleneck and confirm verification still
  // completes purely from the shards whose payload survived.
  Experiment ex(cfg_with_uno());
  const FlowEnv env{ex.eq(), ex.stacks()};
  VerifiedFlow a = spawn_verified(ex, env, {0, 16 + 3, 2 << 20, 0, true});
  VerifiedFlow b = spawn_verified(ex, env, {1, 16 + 3, 2 << 20, 0, true});
  VerifiedFlow c = spawn_verified(ex, env, {2, 16 + 3, 2 << 20, 0, true});
  ex.run_until(kSecond);
  ASSERT_TRUE(a.sender->done() && b.sender->done() && c.sender->done());
  for (const VerifiedFlow* v : {&a, &b, &c}) {
    EXPECT_EQ(v->receiver->payload_blocks_corrupt(), 0u);
    EXPECT_EQ(v->receiver->payload_blocks_verified(), 64u);
  }
}

}  // namespace
}  // namespace uno
