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
//   bench_fec --only micro    run only "micro" or "macro"
//   bench_fec --out FILE      JSON output path ("" = skip)
#include <chrono>
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

double now_seconds() {
  using clk = std::chrono::steady_clock;
  return std::chrono::duration<double>(clk::now().time_since_epoch()).count();
}

/// Run `op` (which processes `bytes_per_op` bytes) repeatedly for at least
/// `min_time` seconds and return the best-of-`reps` GB/s.
template <typename Op>
double measure_gbps(std::uint64_t bytes_per_op, double min_time, int reps, Op&& op) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // Calibrate the iteration count so the clock is read rarely.
    std::uint64_t iters = 0;
    const double t0 = now_seconds();
    double t1 = t0;
    std::uint64_t batch = 1;
    while (t1 - t0 < min_time) {
      for (std::uint64_t i = 0; i < batch; ++i) op();
      iters += batch;
      t1 = now_seconds();
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

VerifiedFlow spawn_verified(Experiment& ex, const FlowSpec& spec) {
  FlowParams params = ex.flow_params(spec);
  params.id = 880000 + static_cast<std::uint64_t>(spec.src) * 1000 + spec.dst;
  params.verify_payload = true;
  params.payload_shard_bytes = 1024;
  const PathSet& paths = ex.topo().paths(spec.src, spec.dst);
  auto flow = std::make_unique<Flow>(ex.flow_env(), ex.topo().host(spec.src),
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
  std::vector<VerifiedFlow> flows;
  for (int h = 0; h < hosts; ++h)
    flows.push_back(spawn_verified(ex, {h, hosts + (h + 3) % hosts, bytes, 0, true}));

  const double t0 = now_seconds();
  ex.run_until(30 * kSecond);
  MacroResult r;
  r.wall_s = now_seconds() - t0;
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

void write_json(const std::string& path, bool quick,
                const std::vector<MicroResult>& micro, const MacroResult& macro,
                bool ran_macro, double scalar_ref, double best_ref,
                const std::string& best_kernel) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"quick\": %s,\n  \"code\": \"(%d,%d)\",\n",
               quick ? "true" : "false", kData, kParity);
  std::fprintf(f, "  \"best_kernel\": \"%s\",\n", best_kernel.c_str());
  std::fprintf(f,
               "  \"encode_gbps_scalar\": %.3f,\n  \"encode_gbps_best\": %.3f,\n"
               "  \"encode_speedup\": %.2f,\n",
               scalar_ref, best_ref, scalar_ref > 0 ? best_ref / scalar_ref : 0);
  std::fprintf(f, "  \"micro\": [\n");
  for (std::size_t i = 0; i < micro.size(); ++i) {
    const MicroResult& m = micro[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"shard_bytes\": %zu, "
                 "\"encode_gbps\": %.3f, \"reconstruct_gbps\": %.3f, "
                 "\"mul_add_gbps\": %.3f}%s\n",
                 m.kernel.c_str(), m.shard_bytes, m.encode_gbps, m.reconstruct_gbps,
                 m.mul_add_gbps, i + 1 < micro.size() ? "," : "");
  }
  std::fprintf(f, "  ]%s\n", ran_macro ? "," : "");
  if (ran_macro) {
    std::fprintf(f,
                 "  \"macro\": {\"wall_s\": %.4f, \"events\": %llu, "
                 "\"events_per_sec\": %.0f, \"flows\": %zu, \"completed\": %zu, "
                 "\"blocks_verified\": %llu, \"blocks_corrupt\": %llu, "
                 "\"pool_acquires\": %llu, \"pool_heap_allocs\": %llu}\n",
                 macro.wall_s, static_cast<unsigned long long>(macro.events),
                 macro.events_per_sec, macro.flows, macro.completed,
                 static_cast<unsigned long long>(macro.blocks_verified),
                 static_cast<unsigned long long>(macro.blocks_corrupt),
                 static_cast<unsigned long long>(macro.pool_acquires),
                 static_cast<unsigned long long>(macro.pool_heap_allocs));
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int reps = 3;
  std::string out = "BENCH_FEC.json";
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--only") && i + 1 < argc) {
      only = argv[++i];
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_fec [--quick] [--reps N] [--only micro|macro] "
                   "[--out FILE]\n");
      return 2;
    }
  }
  const auto wanted = [&](const char* name) {
    return only.empty() || only.find(name) != std::string::npos;
  };

  bench::print_header("bench_fec", quick ? "GF(256) kernels + coding path (quick)"
                                         : "GF(256) kernels + coding path");
  const gf256::Kernel initial = gf256::active_kernel();
  std::printf("dispatch: %s (best supported: %s)\n", gf256::kernel_name(initial),
              gf256::kernel_name(gf256::best_supported_kernel()));

  std::vector<gf256::Kernel> kernels = {gf256::Kernel::kScalar};
  for (gf256::Kernel k : {gf256::Kernel::kSsse3, gf256::Kernel::kAvx2,
                          gf256::Kernel::kNeon})
    if (gf256::kernel_supported(k)) kernels.push_back(k);

  const std::vector<std::size_t> sizes = quick
      ? std::vector<std::size_t>{1024, 16384}
      : std::vector<std::size_t>{64, 256, 1024, 4096, 16384, 65536};

  std::vector<MicroResult> micro;
  double scalar_ref = 0, best_ref = 0;
  std::string best_kernel = "scalar";
  if (wanted("micro")) {
    for (gf256::Kernel k : kernels)
      for (std::size_t sz : sizes) micro.push_back(run_micro(k, sz, quick, reps));
    gf256::set_kernel(initial);

    Table t({"kernel", "shard B", "encode GB/s", "reconstruct GB/s", "mul_add GB/s"});
    for (const MicroResult& m : micro)
      t.add_row({m.kernel, std::to_string(m.shard_bytes), Table::fmt(m.encode_gbps, 3),
                 Table::fmt(m.reconstruct_gbps, 3), Table::fmt(m.mul_add_gbps, 3)});
    t.print("(8,2) codec throughput");

    // Reference size for the headline speedup: one MTU-ish shard.
    const std::size_t ref_sz = quick ? 1024 : 4096;
    for (const MicroResult& m : micro) {
      if (m.shard_bytes != ref_sz) continue;
      if (m.kernel == "scalar") scalar_ref = m.encode_gbps;
      if (m.encode_gbps > best_ref) {
        best_ref = m.encode_gbps;
        best_kernel = m.kernel;
      }
    }
    std::printf("\nencode @%zuB: scalar %.3f GB/s, best (%s) %.3f GB/s, speedup %.2fx\n",
                quick ? 1024uz : 4096uz, scalar_ref, best_kernel.c_str(), best_ref,
                scalar_ref > 0 ? best_ref / scalar_ref : 0);
  }

  MacroResult macro;
  const bool ran_macro = wanted("macro");
  if (ran_macro) {
    macro = run_macro(quick);
    std::printf("\nmacro (inter-DC perm, lossy WAN, verified payloads): "
                "wall %.3fs, %.3f Mev/s, %zu/%zu flows, %llu blocks verified "
                "(%llu corrupt), pool %llu acquires / %llu heap allocs\n",
                macro.wall_s, macro.events_per_sec / 1e6, macro.completed, macro.flows,
                static_cast<unsigned long long>(macro.blocks_verified),
                static_cast<unsigned long long>(macro.blocks_corrupt),
                static_cast<unsigned long long>(macro.pool_acquires),
                static_cast<unsigned long long>(macro.pool_heap_allocs));
  }

  if (!out.empty())
    write_json(out, quick, micro, macro, ran_macro, scalar_ref, best_ref, best_kernel);
  return macro.blocks_corrupt == 0 ? 0 : 1;
}
