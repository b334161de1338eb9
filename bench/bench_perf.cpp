// bench_perf — macro-benchmark of simulator throughput (events/sec).
//
// Runs three canonical scenarios end-to-end through the Experiment harness
// and reports raw event-core throughput: total events dispatched, wall time,
// events/sec and ns/event. A fourth scenario times a 15-point Poisson load
// sweep through the parallel runner to track multi-core scaling.
//
//   bench_perf                     full run, writes BENCH_PERF.json
//   bench_perf --quick             ~10x smaller (CI smoke)
//   bench_perf --jobs 8            worker threads for the sweep scenario
//   bench_perf --reps N            repeat each scenario N times, keep the
//                                  fastest rep (noise-robust; default 3)
//   bench_perf --only a,b          run only the named scenarios
//   bench_perf --out FILE          JSON output path ("" = skip)
//
// A full run writes BENCH_PERF.json unless --out says otherwise; it lands at
// the repo root by convention (run from there) so the perf trajectory is
// checked in: compare BENCH_PERF.json across commits. A partial run (--only)
// writes only with an explicit --out, and only the blocks that ran, so it
// never overwrites a baseline with zeros. Every file records the CPU model
// and hardware thread count it was measured on.
//
// Scenarios:
//   incast_intra   32-to-1 intra-DC incast, k=8 fat tree (heap churn from
//                  one saturated ToR queue + per-flow pacing timers)
//   perm_inter     inter-DC permutation over the WAN mesh at 2 ms RTT
//                  (deep in-flight windows, EC framing, border queues)
//   fault_flap     incast under a flapping border link (retransmit-timer
//                  storms; exercises stale-entry compaction)
//   allreduce      closed-loop inter-DC gradient sync through the Scenario
//                  API (ScenarioHarness sync-grid stepping on the hot path)
//   gpu_cluster    multi-job pipeline+data-parallel training: activation
//                  chains, NVLink-delayed cross-DC gradient rings
//   tornado        rotating shifted-permutation matrix (adversarial LB churn)
//   rpc_churn      Poisson short-RPC storm (tiny flows, huge flow counts —
//                  stresses flow setup/teardown, not steady-state transfer)
//   sweep          15-point load sweep, independent sims via parallel_for
//   shards         ONE perm_inter run at --shards 1 vs 2 (conservative PDES
//                  along the DC seam, DESIGN.md §14): asserts the two runs
//                  are bit-identical and reports the wall-clock speedup.
//                  Speedup needs >= 2 real cores; hw_threads is recorded so
//                  a 1-core reading is never mistaken for a regression
//   fec            (8,2) encode GB/s, scalar vs best SIMD kernel (headline
//                  number only; bench_fec has the full kernel x size matrix)
//   trace          mixed incast with the flight recorder off vs on (all
//                  categories); reports the tracing overhead percentage,
//                  which the perf-smoke CI leg asserts stays under 3%
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/parallel.hpp"
#include "fec/arena.hpp"
#include "fec/gf256_simd.hpp"
#include "fec/rs.hpp"
#include "workload/cdf.hpp"
#include "workload/scenario.hpp"

using namespace uno;

namespace {

struct ScenarioResult {
  std::string name;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  double ns_per_event = 0;
  double sim_ms = 0;
  std::size_t flows = 0;
  std::size_t completed = 0;
};

double now_seconds() {
  using clk = std::chrono::steady_clock;
  return std::chrono::duration<double>(clk::now().time_since_epoch()).count();
}

ScenarioResult finish(const char* name, Experiment& ex, double wall_s) {
  ScenarioResult r;
  r.name = name;
  r.events = ex.eq().dispatched();
  r.wall_s = wall_s;
  r.events_per_sec = wall_s > 0 ? static_cast<double>(r.events) / wall_s : 0;
  r.ns_per_event = r.events > 0 ? wall_s * 1e9 / static_cast<double>(r.events) : 0;
  r.sim_ms = to_milliseconds(ex.eq().now());
  r.flows = ex.flows_spawned();
  r.completed = ex.flows_completed();
  if (std::getenv("UNO_BENCH_DEBUG"))
    std::fprintf(stderr, "[%s] peak_pending=%zu compactions=%llu compacted=%llu\n", name,
                 ex.eq().peak_pending(), (unsigned long long)ex.eq().compactions(),
                 (unsigned long long)ex.eq().compacted_entries());
  return r;
}

ScenarioResult run_incast_intra(bool quick) {
  ExperimentConfig cfg;
  cfg.seed = bench::seed();
  Experiment ex(cfg);
  const std::uint64_t bytes = (quick ? 1 : 8) * (1 << 20);
  ex.spawn_all(make_incast(bench::hosts_of(ex), 0, 32, 0, bytes));
  const double t0 = now_seconds();
  ex.run_to_completion(10 * kSecond);
  return finish("incast_intra", ex, now_seconds() - t0);
}

ScenarioResult run_perm_inter(bool quick) {
  ExperimentConfig cfg;
  cfg.seed = bench::seed();
  Experiment ex(cfg);
  const std::uint64_t bytes = (quick ? 256 : 2048) * 1024ull;
  ex.spawn_all(make_permutation(bench::hosts_of(ex), bytes, cfg.seed));
  const double t0 = now_seconds();
  ex.run_to_completion(20 * kSecond);
  return finish("perm_inter", ex, now_seconds() - t0);
}

ScenarioResult run_fault_flap(bool quick) {
  ExperimentConfig cfg;
  cfg.seed = bench::seed();
  std::string err;
  FaultPlan::parse("100us flap border:* period=200us duty=0.5 until=5ms", &cfg.faults, &err);
  Experiment ex(cfg);
  const int senders = quick ? 8 : 16;
  const std::uint64_t bytes = (quick ? 1 : 4) * (1 << 20);
  // Half intra, half inter: the inter flows ride the flapping WAN links and
  // drive retransmit-timer rearm/cancel storms through the event heap.
  ex.spawn_all(make_incast(bench::hosts_of(ex), 0, senders / 2, senders / 2, bytes));
  const double t0 = now_seconds();
  ex.run_to_completion(20 * kSecond);
  return finish("fault_flap", ex, now_seconds() - t0);
}

/// One registry scenario end-to-end through a ScenarioHarness: the same
/// code path as `uno_sim --scenario NAME`, so these arms track the harness's
/// sync-grid stepping cost alongside the raw event core.
ScenarioResult run_scenario_arm(const char* name,
                                const std::vector<ScenarioOption>& kvs,
                                bool quick) {
  ExperimentConfig cfg;
  cfg.seed = bench::seed();
  Experiment ex(cfg);
  std::unique_ptr<Scenario> sc = ScenarioRegistry::instance().create(name);
  std::string err;
  if (sc == nullptr || !sc->set_options(kvs, &err) ||
      !sc->init({bench::hosts_of(ex), cfg.seed, cfg.uno.link_rate, quick}, &err)) {
    std::fprintf(stderr, "scenario %s: %s\n", name, err.c_str());
    std::exit(2);
  }
  ScenarioHarness harness(ex, *sc);
  const double t0 = now_seconds();
  harness.run(20 * kSecond);
  return finish(name, ex, now_seconds() - t0);
}

ScenarioResult run_scn_allreduce(bool quick) {
  return run_scenario_arm("allreduce",
                          {{"groups", "8"},
                           {"size-mb", quick ? "4" : "32"},
                           {"iterations", quick ? "2" : "4"}},
                          quick);
}

ScenarioResult run_scn_gpu_cluster(bool quick) {
  // Library defaults; --quick engages the scenario's own scaled-down preset.
  return run_scenario_arm("gpu_cluster", {}, quick);
}

ScenarioResult run_scn_tornado(bool quick) {
  return run_scenario_arm(
      "tornado", {{"rounds", quick ? "2" : "4"}, {"size-mb", quick ? "0.25" : "1"}},
      quick);
}

ScenarioResult run_scn_rpc_churn(bool quick) {
  return run_scenario_arm(
      "rpc_churn",
      {{"active-hosts", "64"}, {"duration-ms", quick ? "1" : "5"}}, quick);
}

struct SweepResult {
  int points = 0;
  int jobs = 1;
  double wall_s = 0;
  std::uint64_t events = 0;
  double events_per_sec = 0;
};

SweepResult run_sweep(bool quick, int jobs) {
  const int points = 15;
  struct PointOut {
    std::uint64_t events = 0;
    double mean_us = 0;
  };
  const double t0 = now_seconds();
  auto outs = parallel_map(jobs, points, [&](std::size_t i) {
    ExperimentConfig cfg;
    cfg.seed = bench::seed();
    cfg.fattree_k = 4;
    Experiment ex(cfg);
    PoissonConfig pc;
    pc.load = 0.1 + 0.05 * static_cast<double>(i);  // 0.10 .. 0.80
    pc.duration = (quick ? 1 : 4) * kMillisecond;
    pc.seed = cfg.seed;
    auto specs = make_poisson_mixed(bench::hosts_of(ex), EmpiricalCdf::google_rpc(),
                                    EmpiricalCdf::google_rpc().scaled(16), pc);
    ex.spawn_all(specs);
    ex.run_to_completion(10 * kSecond);
    return PointOut{ex.eq().dispatched(), ex.fct().summarize().mean_us};
  });
  SweepResult r;
  r.points = points;
  r.jobs = jobs;
  r.wall_s = now_seconds() - t0;
  for (const PointOut& o : outs) r.events += o.events;
  r.events_per_sec = r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0;
  return r;
}

struct ShardScaleResult {
  int shards = 0;            // effective shard count of the parallel run
  unsigned hw_threads = 0;   // std::thread::hardware_concurrency()
  std::uint64_t events = 0;  // per run — identical across shard counts
  double wall_1_s = 0;       // monolithic wall (best of reps)
  double wall_n_s = 0;       // sharded wall (best of reps)
  std::uint64_t sync_rounds = 0;  // barrier rounds of the sharded run
  bool deterministic = false;     // sharded digest == monolithic digest
  double speedup() const { return wall_n_s > 0 ? wall_1_s / wall_n_s : 0; }
};

/// The same ONE simulation as run_perm_inter, at a caller-chosen shard
/// count. Contrast run_sweep, which parallelizes across independent runs —
/// this is the single-run path (--shards, DESIGN.md §14).
RunDigest run_perm_inter_sharded(bool quick, int shards, double* wall_s,
                                 std::uint64_t* sync_rounds) {
  ExperimentConfig cfg;
  cfg.seed = bench::seed();
  cfg.shards = shards;
  Experiment ex(cfg);
  const std::uint64_t bytes = (quick ? 256 : 2048) * 1024ull;
  ex.spawn_all(make_permutation(bench::hosts_of(ex), bytes, cfg.seed));
  const double t0 = now_seconds();
  ex.run_to_completion(20 * kSecond);
  *wall_s = now_seconds() - t0;
  if (sync_rounds != nullptr) {
    MetricRegistry m;
    ex.snapshot_metrics(m);
    *sync_rounds = m.counter("sim.shard.sync_rounds");
  }
  return ex.digest();
}

ShardScaleResult run_shard_scale(bool quick, int reps) {
  ShardScaleResult r;
  r.shards = 2;  // the two-DC topology partitions into two atoms
  r.hw_threads = std::thread::hardware_concurrency();
  RunDigest mono, par;
  for (int i = 0; i < reps; ++i) {
    double w1 = 0, wn = 0;
    std::uint64_t rounds = 0;
    mono = run_perm_inter_sharded(quick, 1, &w1, nullptr);
    par = run_perm_inter_sharded(quick, r.shards, &wn, &rounds);
    r.wall_1_s = i == 0 ? w1 : std::min(r.wall_1_s, w1);
    r.wall_n_s = i == 0 ? wn : std::min(r.wall_n_s, wn);
    r.sync_rounds = rounds;
  }
  r.events = mono.events;
  r.deterministic = par == mono;
  return r;
}

struct FecResult {
  std::string best_kernel = "scalar";
  double scalar_gbps = 0;
  double best_gbps = 0;
  double speedup() const { return scalar_gbps > 0 ? best_gbps / scalar_gbps : 0; }
};

/// Headline FEC number for the perf trajectory: (8,2) encode GB/s at 4 KiB
/// shards, scalar vs the best kernel this CPU dispatches to. bench_fec has
/// the full matrix; this keeps the speedup visible in BENCH_PERF.json.
FecResult run_fec(bool quick) {
  constexpr int k = 8, m = 2;
  constexpr std::size_t shard = 4096;
  ReedSolomon rs(k, m);
  ShardArena arena;
  arena.reset(k + m, shard);
  for (int s = 0; s < k; ++s)
    for (std::size_t i = 0; i < shard; ++i)
      arena.shard(s)[i] = static_cast<std::uint8_t>(i * 31 + s * 131 + 7);

  const gf256::Kernel initial = gf256::active_kernel();
  auto encode_gbps = [&](gf256::Kernel kern) {
    gf256::set_kernel(kern);
    const double min_time = quick ? 0.02 : 0.2;
    std::uint64_t iters = 0;
    const double t0 = now_seconds();
    double t1 = t0;
    while (t1 - t0 < min_time) {
      for (int i = 0; i < 64; ++i) rs.encode(arena);
      iters += 64;
      t1 = now_seconds();
    }
    return static_cast<double>(iters) * k * shard / (t1 - t0) / 1e9;
  };
  FecResult r;
  r.scalar_gbps = encode_gbps(gf256::Kernel::kScalar);
  const gf256::Kernel best = gf256::best_supported_kernel();
  r.best_kernel = gf256::kernel_name(best);
  r.best_gbps = best == gf256::Kernel::kScalar ? r.scalar_gbps : encode_gbps(best);
  gf256::set_kernel(initial);
  return r;
}

/// Flight-recorder cost on a hot scenario: same mixed incast with tracing
/// off, then on with every category enabled. With UNO_TRACE=OFF the macro
/// compiles to nothing and the two walls should be statistically identical.
struct TraceOverheadResult {
  bool compiled = trace_compiled();
  double untraced_wall_s = 0;
  double traced_wall_s = 0;
  std::uint64_t trace_events = 0;
  double overhead_pct() const {
    return untraced_wall_s > 0 ? (traced_wall_s / untraced_wall_s - 1.0) * 100.0 : 0;
  }
};

TraceOverheadResult run_trace_overhead(bool quick, int reps) {
  (void)quick;  // see below: this scenario must not shrink
  auto run = [&](bool traced, std::uint64_t* trace_events) {
    ExperimentConfig cfg;
    cfg.seed = bench::seed();
    cfg.trace.enabled = traced;
    Experiment ex(cfg);
    // Always the full-size flows, even under --quick: the measurement target
    // is the recorder's *steady-state* relative cost, and a smoke-sized run
    // is dominated by one-time ring allocation + first-touch page faults
    // (~5% apparent overhead at 1 MiB vs ~2% at 4 MiB for the same
    // per-event cost). A rep is still only ~0.5 s wall.
    const std::uint64_t bytes = 4 * (1 << 20);
    ex.spawn_all(make_incast(bench::hosts_of(ex), 0, 16, 16, bytes));
    const double t0 = now_seconds();
    ex.run_to_completion(20 * kSecond);
    const double wall = now_seconds() - t0;
    if (trace_events != nullptr && ex.tracer() != nullptr)
      *trace_events = ex.tracer()->total_events() + ex.tracer()->total_dropped();
    return wall;
  };
  TraceOverheadResult r;
  r.untraced_wall_s = run(false, nullptr);
  r.traced_wall_s = run(true, &r.trace_events);
  for (int i = 1; i < reps; ++i) {
    r.untraced_wall_s = std::min(r.untraced_wall_s, run(false, nullptr));
    r.traced_wall_s = std::min(r.traced_wall_s, run(true, &r.trace_events));
  }
  return r;
}

/// Writes the machine header plus only the blocks that ran.
void write_json(const std::string& path, bool quick, int jobs,
                const std::vector<ScenarioResult>& rs, const std::optional<SweepResult>& sweep,
                const std::optional<ShardScaleResult>& shards,
                const std::optional<FecResult>& fec,
                const std::optional<TraceOverheadResult>& trace) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"schema\": 1,\n  \"quick\": %s,\n  \"seed\": %llu,\n"
               "  \"cpu\": \"%s\",\n  \"hw_threads\": %u",
               quick ? "true" : "false", static_cast<unsigned long long>(bench::seed()),
               bench::cpu_model().c_str(), std::thread::hardware_concurrency());
  if (!rs.empty()) std::fprintf(f, ",\n  \"scenarios\": [\n");
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const ScenarioResult& r = rs[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, \"wall_s\": %.4f, "
                 "\"events_per_sec\": %.0f, \"ns_per_event\": %.1f, "
                 "\"sim_ms\": %.3f, \"flows\": %zu, \"completed\": %zu}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events), r.wall_s,
                 r.events_per_sec, r.ns_per_event, r.sim_ms, r.flows, r.completed,
                 i + 1 < rs.size() ? "," : "");
  }
  if (!rs.empty()) std::fprintf(f, "  ]");
  if (sweep)
    std::fprintf(f,
                 ",\n  \"sweep\": {\"points\": %d, \"jobs\": %d, \"wall_s\": %.4f, "
                 "\"events\": %llu, \"events_per_sec\": %.0f}",
                 sweep->points, jobs, sweep->wall_s,
                 static_cast<unsigned long long>(sweep->events), sweep->events_per_sec);
  if (shards)
    std::fprintf(f,
                 ",\n  \"shards\": {\"scenario\": \"perm_inter\", \"shards\": %d, "
                 "\"hw_threads\": %u, \"events\": %llu, \"wall_1_s\": %.4f, "
                 "\"wall_n_s\": %.4f, \"speedup\": %.2f, \"sync_rounds\": %llu, "
                 "\"deterministic\": %s}",
                 shards->shards, shards->hw_threads,
                 static_cast<unsigned long long>(shards->events), shards->wall_1_s,
                 shards->wall_n_s, shards->speedup(),
                 static_cast<unsigned long long>(shards->sync_rounds),
                 shards->deterministic ? "true" : "false");
  if (fec)
    std::fprintf(f,
                 ",\n  \"fec\": {\"best_kernel\": \"%s\", \"encode_gbps_scalar\": %.3f, "
                 "\"encode_gbps_best\": %.3f, \"encode_speedup\": %.2f}",
                 fec->best_kernel.c_str(), fec->scalar_gbps, fec->best_gbps, fec->speedup());
  if (trace)
    std::fprintf(f,
                 ",\n  \"trace\": {\"compiled\": %s, \"untraced_wall_s\": %.4f, "
                 "\"traced_wall_s\": %.4f, \"overhead_pct\": %.2f, \"events\": %llu}",
                 trace->compiled ? "true" : "false", trace->untraced_wall_s,
                 trace->traced_wall_s, trace->overhead_pct(),
                 static_cast<unsigned long long>(trace->trace_events));
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// Fastest of `reps` runs: simulated work is identical per rep, so the
/// minimum wall time is the least-interference estimate.
ScenarioResult best_of(int reps, ScenarioResult (*run)(bool), bool quick) {
  ScenarioResult best = run(quick);
  for (int i = 1; i < reps; ++i) {
    const ScenarioResult r = run(quick);
    if (r.wall_s < best.wall_s) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int jobs = 1;
  int reps = 3;
  std::string out;
  bool out_set = false;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--only") && i + 1 < argc) {
      only = argv[++i];
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out = argv[++i];
      out_set = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_perf [--quick] [--jobs N] [--reps N] "
                   "[--only a,b] [--out FILE]\n");
      return 2;
    }
  }
  const auto wanted = [&](const char* name) {
    return only.empty() || only.find(name) != std::string::npos;
  };
  // Only a full run may replace the checked-in baseline by default.
  if (!out_set && only.empty()) out = "BENCH_PERF.json";

  bench::print_header("bench_perf", quick ? "event-core throughput (quick)"
                                          : "event-core throughput");
  std::vector<ScenarioResult> results;
  if (wanted("incast_intra")) results.push_back(best_of(reps, run_incast_intra, quick));
  if (wanted("perm_inter")) results.push_back(best_of(reps, run_perm_inter, quick));
  if (wanted("fault_flap")) results.push_back(best_of(reps, run_fault_flap, quick));
  if (wanted("allreduce")) results.push_back(best_of(reps, run_scn_allreduce, quick));
  if (wanted("gpu_cluster")) results.push_back(best_of(reps, run_scn_gpu_cluster, quick));
  if (wanted("tornado")) results.push_back(best_of(reps, run_scn_tornado, quick));
  if (wanted("rpc_churn")) results.push_back(best_of(reps, run_scn_rpc_churn, quick));

  Table t({"scenario", "events", "wall s", "Mev/s", "ns/event", "sim ms", "flows"});
  for (const ScenarioResult& r : results) {
    char flows[32];
    std::snprintf(flows, sizeof(flows), "%zu/%zu", r.completed, r.flows);
    t.add_row({r.name, std::to_string(r.events), Table::fmt(r.wall_s, 3),
               Table::fmt(r.events_per_sec / 1e6, 3), Table::fmt(r.ns_per_event, 0),
               Table::fmt(r.sim_ms, 2), flows});
  }
  t.print("single-run throughput");

  std::optional<SweepResult> sweep;
  if (wanted("sweep")) {
    sweep = run_sweep(quick, jobs);
    std::printf("\nsweep: %d points, jobs=%d, wall %.3fs, %llu events, %.3f Mev/s\n",
                sweep->points, sweep->jobs, sweep->wall_s,
                static_cast<unsigned long long>(sweep->events), sweep->events_per_sec / 1e6);
  }

  std::optional<ShardScaleResult> shards;
  if (wanted("shards")) {
    shards = run_shard_scale(quick, reps);
    std::printf("\nshards: perm_inter x1 %.3fs, x%d %.3fs (%.2fx, %llu sync rounds, "
                "%u hw threads) — %s\n",
                shards->wall_1_s, shards->shards, shards->wall_n_s, shards->speedup(),
                static_cast<unsigned long long>(shards->sync_rounds), shards->hw_threads,
                shards->deterministic ? "bit-identical" : "DIGESTS DIVERGED");
  }

  std::optional<FecResult> fec;
  if (wanted("fec")) {
    fec = run_fec(quick);
    std::printf("\nfec: (8,2) encode %.3f GB/s scalar, %.3f GB/s %s (%.2fx)\n",
                fec->scalar_gbps, fec->best_gbps, fec->best_kernel.c_str(), fec->speedup());
  }

  std::optional<TraceOverheadResult> trace;
  if (wanted("trace")) {
    trace = run_trace_overhead(quick, reps);
    std::printf("\ntrace: compiled=%s, untraced %.3fs, traced %.3fs, overhead %.2f%% "
                "(%llu events)\n",
                trace->compiled ? "yes" : "no", trace->untraced_wall_s,
                trace->traced_wall_s, trace->overhead_pct(),
                static_cast<unsigned long long>(trace->trace_events));
  }

  if (!out.empty())
    write_json(out, quick, jobs, results, sweep, shards, fec, trace);
  else if (!out_set)
    std::printf("\npartial run: no JSON written (pass --out FILE)\n");
  return 0;
}
