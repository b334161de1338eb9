// bench_fec — GF(256) kernel and erasure-coding data-path benchmark.
//
// Micro: encode / reconstruct / raw mul_add throughput for the paper's
// (8,2) code across shard sizes and every kernel this CPU supports
// (scalar reference always included, so the speedup column is measured,
// not assumed). Bytes/s counts source data consumed: one encode of k
// shards of L bytes = k*L bytes; one reconstruct from 2 erasures = k*L.
//
// Macro: inter-DC permutation over lossy WAN links with per-flow payload
// verification on — the full send-side encode + receive-side reconstruct
// path inline with the transport, reporting events/s plus the pool and
// decode-cache counters that prove the steady state allocates nothing.
//
//   bench_fec                 full run, writes BENCH_FEC.json
//   bench_fec --quick         ~10x shorter timing windows (CI smoke)
//   bench_fec --reps N        best-of-N timing windows (default 3)
//   bench_fec --only micro    run only the named blocks ("micro", "macro")
//   bench_fec --out FILE      JSON output path ("" = skip)
//
// Only a full run writes BENCH_FEC.json by default (bench::Harness's write
// rule). Its encode headline (encode_gbps_scalar, encode_gbps_best,
// encode_speedup: (8,2) encode at 4 KiB shards, 1 KiB under --quick) is
// the only place the repo records the SIMD kernels' speedup.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "fec/arena.hpp"
#include "fec/gf256_simd.hpp"
#include "fec/payload.hpp"
#include "fec/rs.hpp"

using namespace uno;

namespace {

constexpr int kData = 8;
constexpr int kParity = 2;

/// Run `op` (which processes `bytes_per_op` bytes) repeatedly for at least
/// `min_time` seconds and return the best-of-`reps` GB/s.
template <typename Op>
double measure_gbps(std::uint64_t bytes_per_op, double min_time, int reps, Op&& op) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // Calibrate the iteration count so the clock is read rarely.
    std::uint64_t iters = 0;
    const double t0 = bench::now_seconds();
    double t1 = t0;
    std::uint64_t batch = 1;
    while (t1 - t0 < min_time) {
      for (std::uint64_t i = 0; i < batch; ++i) op();
      iters += batch;
      t1 = bench::now_seconds();
      if (batch < 1024) batch *= 2;
    }
    const double gbps =
        static_cast<double>(iters * bytes_per_op) / (t1 - t0) / 1e9;
    if (gbps > best) best = gbps;
  }
  return best;
}

void fill_pattern(ShardArena& a, int shards) {
  for (int s = 0; s < shards; ++s) {
    std::uint8_t* p = a.shard(s);
    for (std::size_t i = 0; i < a.shard_len(); ++i)
      p[i] = static_cast<std::uint8_t>((i * 31 + static_cast<std::size_t>(s) * 131 + 7) & 0xFF);
  }
}

struct MicroResult {
  std::string kernel;
  std::size_t shard_bytes = 0;
  double encode_gbps = 0;
  double reconstruct_gbps = 0;
  double mul_add_gbps = 0;
};

MicroResult run_micro(gf256::Kernel k, std::size_t shard_bytes, bool quick, int reps) {
  gf256::set_kernel(k);
  const double min_time = quick ? 0.02 : 0.15;
  ReedSolomon rs(kData, kParity);
  ShardArena arena;
  arena.reset(kData + kParity, shard_bytes);
  fill_pattern(arena, kData);

  MicroResult r;
  r.kernel = gf256::kernel_name(gf256::active_kernel());
  r.shard_bytes = shard_bytes;

  const std::uint64_t data_bytes = static_cast<std::uint64_t>(kData) * shard_bytes;
  r.encode_gbps = measure_gbps(data_bytes, min_time, reps, [&] { rs.encode(arena); });

  // Reconstruct from the worst case: two data shards erased.
  rs.encode(arena);
  ShardArena work;
  work.reset(kData + kParity, shard_bytes);
  const std::uint64_t full = (1ull << (kData + kParity)) - 1;
  r.reconstruct_gbps = measure_gbps(data_bytes, min_time, reps, [&] {
    for (int s = 0; s < kData + kParity; ++s)
      std::memcpy(work.shard(s), arena.shard(s), shard_bytes);
    std::uint64_t present = full & ~0b1001ull;  // shards 0 and 3 missing
    rs.reconstruct(work, present);
  });

  // Raw multiply-accumulate: the codec inner loop in isolation.
  r.mul_add_gbps = measure_gbps(shard_bytes, min_time, reps, [&] {
    gf256::mul_add_region(work.shard(0), arena.shard(1), 0x57, shard_bytes);
  });
  return r;
}

struct MacroResult {
  double wall_s = 0;
  std::uint64_t events = 0;
  double events_per_sec = 0;
  std::uint64_t blocks_verified = 0;
  std::uint64_t blocks_corrupt = 0;
  std::uint64_t pool_acquires = 0;
  std::uint64_t pool_heap_allocs = 0;
  std::size_t flows = 0;
  std::size_t completed = 0;
};

struct VerifiedFlow {
  std::unique_ptr<Flow> flow;
  FlowSender* sender = nullptr;
  FlowReceiver* receiver = nullptr;
};

VerifiedFlow spawn_verified(Experiment& ex, const FlowEnv& env, const FlowSpec& spec) {
  FlowParams params = ex.flow_params(spec);
  params.id = 880000 + static_cast<std::uint64_t>(spec.src) * 1000 + spec.dst;
  params.verify_payload = true;
  params.payload_shard_bytes = 1024;
  const PathSet& paths = ex.topo().paths(spec.src, spec.dst);
  auto flow = std::make_unique<Flow>(env, ex.topo().host(spec.src),
                                     ex.topo().host(spec.dst), params, &paths);
  flow->start();
  VerifiedFlow v;
  v.flow = std::move(flow);
  v.sender = &v.flow->sender();
  v.receiver = &v.flow->receiver();
  return v;
}

/// Inter-DC permutation with 0.5% WAN loss and payload verification on every
/// flow: every block is really encoded, shipped, reconstructed and checked.
MacroResult run_macro(bool quick) {
  ExperimentConfig cfg;
  cfg.seed = bench::seed();
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  Experiment ex(cfg);
  for (int d = 0; d < 2; ++d)
    for (int j = 0; j < ex.topo().cross_link_count(); ++j)
      ex.topo().cross_link(d, j).set_loss_model(
          std::make_unique<BernoulliLoss>(0.005, Rng::stream(97, d * 8 + j)));

  const int hosts = ex.topo().hosts_per_dc();
  const std::uint64_t bytes = (quick ? 1 : 4) * (1u << 20);
  // Hand-built flows (verify_payload is a per-flow knob) on a local env.
  const FlowEnv env{ex.eq(), ex.stacks()};
  std::vector<VerifiedFlow> flows;
  for (int h = 0; h < hosts; ++h)
    flows.push_back(spawn_verified(ex, env, {h, hosts + (h + 3) % hosts, bytes, 0, true}));

  const double t0 = bench::now_seconds();
  ex.run_until(30 * kSecond);
  MacroResult r;
  r.wall_s = bench::now_seconds() - t0;
  r.events = ex.eq().dispatched();
  r.events_per_sec = r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0;
  r.flows = flows.size();
  for (const VerifiedFlow& v : flows) {
    if (v.sender->done()) ++r.completed;
    r.blocks_verified += v.receiver->payload_blocks_verified();
    r.blocks_corrupt += v.receiver->payload_blocks_corrupt();
    r.pool_acquires += v.receiver->payload_pool_acquires();
    r.pool_heap_allocs += v.receiver->payload_pool_heap_allocs();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "bench_fec", "GF(256) kernels + coding path",
                   {"micro", "macro"}, /*takes_reps=*/true);
  const bool quick = h.quick();
  MetricRegistry& m = h.results();
  const gf256::Kernel initial = gf256::active_kernel();
  std::printf("dispatch: %s (best supported: %s)\n", gf256::kernel_name(initial),
              gf256::kernel_name(gf256::best_supported_kernel()));

  if (h.wants("micro")) {
    std::vector<gf256::Kernel> kernels = {gf256::Kernel::kScalar};
    for (gf256::Kernel k : {gf256::Kernel::kSsse3, gf256::Kernel::kAvx2,
                            gf256::Kernel::kNeon})
      if (gf256::kernel_supported(k)) kernels.push_back(k);
    const std::vector<std::size_t> sizes = quick
        ? std::vector<std::size_t>{1024, 16384}
        : std::vector<std::size_t>{64, 256, 1024, 4096, 16384, 65536};

    std::vector<MicroResult> micro;
    for (gf256::Kernel k : kernels)
      for (std::size_t sz : sizes) micro.push_back(run_micro(k, sz, quick, h.reps()));
    gf256::set_kernel(initial);

    Table t({"kernel", "shard B", "encode GB/s", "reconstruct GB/s", "mul_add GB/s"});
    for (const MicroResult& r : micro)
      t.add_row({r.kernel, std::to_string(r.shard_bytes), Table::fmt(r.encode_gbps, 3),
                 Table::fmt(r.reconstruct_gbps, 3), Table::fmt(r.mul_add_gbps, 3)});
    t.print("(8,2) codec throughput");

    // Reference size for the headline speedup: one MTU-ish shard.
    const std::size_t ref_sz = quick ? 1024 : 4096;
    double scalar_ref = 0, best_ref = 0;
    std::string best_kernel = "scalar";
    for (const MicroResult& r : micro) {
      if (r.shard_bytes != ref_sz) continue;
      if (r.kernel == "scalar") scalar_ref = r.encode_gbps;
      if (r.encode_gbps > best_ref) {
        best_ref = r.encode_gbps;
        best_kernel = r.kernel;
      }
    }
    const double speedup = scalar_ref > 0 ? best_ref / scalar_ref : 0;
    std::printf("\nencode @%zuB: scalar %.3f GB/s, best (%s) %.3f GB/s, speedup %.2fx\n",
                ref_sz, scalar_ref, best_kernel.c_str(), best_ref, speedup);
    m.set_info("best_kernel", best_kernel);
    m.set_gauge("encode_gbps_scalar", scalar_ref);
    m.set_gauge("encode_gbps_best", best_ref);
    m.set_gauge("encode_speedup", speedup);
    for (const MicroResult& r : micro) {
      const std::string key = "micro." + r.kernel + "." + std::to_string(r.shard_bytes) + ".";
      m.set_gauge(key + "encode_gbps", r.encode_gbps);
      m.set_gauge(key + "reconstruct_gbps", r.reconstruct_gbps);
      m.set_gauge(key + "mul_add_gbps", r.mul_add_gbps);
    }
  }

  bool ok = true;
  if (h.wants("macro")) {
    const MacroResult macro = run_macro(quick);
    std::printf("\nmacro (inter-DC perm, lossy WAN, verified payloads): "
                "wall %.3fs, %.3f Mev/s, %zu/%zu flows, %llu blocks verified "
                "(%llu corrupt), pool %llu acquires / %llu heap allocs\n",
                macro.wall_s, macro.events_per_sec / 1e6, macro.completed, macro.flows,
                static_cast<unsigned long long>(macro.blocks_verified),
                static_cast<unsigned long long>(macro.blocks_corrupt),
                static_cast<unsigned long long>(macro.pool_acquires),
                static_cast<unsigned long long>(macro.pool_heap_allocs));
    m.set_gauge("macro.wall_s", macro.wall_s);
    m.set_counter("macro.events", macro.events);
    m.set_counter("macro.events_per_sec",
                  static_cast<std::uint64_t>(std::llround(macro.events_per_sec)));
    m.set_counter("macro.flows", macro.flows);
    m.set_counter("macro.completed", macro.completed);
    m.set_counter("macro.blocks_verified", macro.blocks_verified);
    m.set_counter("macro.blocks_corrupt", macro.blocks_corrupt);
    m.set_counter("macro.pool_acquires", macro.pool_acquires);
    m.set_counter("macro.pool_heap_allocs", macro.pool_heap_allocs);
    ok = macro.blocks_corrupt == 0;
  }
  return h.write() && ok ? 0 : 1;
}
