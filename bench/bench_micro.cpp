// Micro-benchmarks (google-benchmark): throughput of the substrates the
// simulations lean on — GF(256) coding, the Reed–Solomon (8,2) codec, the
// event queue, and a queue+link pipeline. Not a paper figure; used to keep
// the simulator fast enough for the Fig. 10/11 sweeps.
#include <benchmark/benchmark.h>

#include <vector>

#include "fec/gf256.hpp"
#include "fec/rs.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/event.hpp"
#include "sim/rng.hpp"

namespace uno {
namespace {

void BM_Gf256MulAdd(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> dst(len, 0), src(len, 0x5A);
  for (auto _ : state) {
    gf256::mul_add(dst.data(), src.data(), 0x1D, len);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * len));
}
BENCHMARK(BM_Gf256MulAdd)->Arg(4096)->Arg(65536);

void BM_RsEncode82(benchmark::State& state) {
  const std::size_t shard = static_cast<std::size_t>(state.range(0));
  ReedSolomon rs(8, 2);
  Rng rng(1);
  std::vector<std::vector<std::uint8_t>> shards(10);
  for (int i = 0; i < 8; ++i) {
    shards[i].resize(shard);
    for (auto& b : shards[i]) b = static_cast<std::uint8_t>(rng.uniform_below(256));
  }
  for (auto _ : state) {
    rs.encode(shards);
    benchmark::DoNotOptimize(shards[9].data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * shard * 8));
}
BENCHMARK(BM_RsEncode82)->Arg(4096);

void BM_RsReconstructTwoErasures(benchmark::State& state) {
  const std::size_t shard = 4096;
  ReedSolomon rs(8, 2);
  Rng rng(2);
  std::vector<std::vector<std::uint8_t>> shards(10);
  for (int i = 0; i < 8; ++i) {
    shards[i].resize(shard);
    for (auto& b : shards[i]) b = static_cast<std::uint8_t>(rng.uniform_below(256));
  }
  rs.encode(shards);
  const auto original = shards;
  for (auto _ : state) {
    auto work = original;
    std::vector<bool> present(10, true);
    present[1] = present[6] = false;
    work[1].clear();
    work[6].clear();
    benchmark::DoNotOptimize(rs.reconstruct(work, present));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * shard * 8));
}
BENCHMARK(BM_RsReconstructTwoErasures);

class Ticker : public EventHandler {
 public:
  explicit Ticker(EventQueue& eq) : eq_(eq) {}
  void on_event(std::uint64_t) override { eq_.schedule_in(1000, this); }

 private:
  EventQueue& eq_;
};

void BM_EventQueueChurn(benchmark::State& state) {
  // Sustained schedule/dispatch throughput with many concurrent timers.
  EventQueue eq;
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (int i = 0; i < state.range(0); ++i) {
    tickers.push_back(std::make_unique<Ticker>(eq));
    eq.schedule_in(i, tickers.back().get());
  }
  std::uint64_t events = 0;
  for (auto _ : state) events += eq.run_until(eq.now() + 100'000);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(1024);

class NullSink : public PacketSink {
 public:
  void receive(Packet&&) override { ++count; }
  const std::string& name() const override { return name_; }
  std::uint64_t count = 0;

 private:
  std::string name_ = "null";
};

void BM_QueueLinkPipeline(benchmark::State& state) {
  // Packets through a serializing queue + propagation link, the simulator's
  // hot path (one of these per hop per packet).
  EventQueue eq;
  PacketPool pool;
  QueueConfig qc;
  qc.red.enabled = true;
  qc.red.min_bytes = 1 << 18;
  qc.red.max_bytes = 3 << 18;
  Link l(eq, pool, "l", kMicrosecond);
  Queue q(eq, pool, "q", qc, l);
  NullSink sink;
  Route r;
  r.hops = {&q, &sink};
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      Packet p = make_data_packet(1, seq++, 4096);
      p.hops = r.hops.begin();
      p.hop = 0;
      forward(std::move(p));
    }
    eq.run_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(seq));
}
BENCHMARK(BM_QueueLinkPipeline);

}  // namespace
}  // namespace uno

BENCHMARK_MAIN();
