// bench_perf — macro-benchmark of simulator throughput (events/sec).
//
// Runs canonical workloads end-to-end through a ScenarioHarness and
// reports raw event-core throughput: total events dispatched, wall time,
// events/sec and ns/event.
//
//   bench_perf                     full run, writes BENCH_PERF.json
//   bench_perf --quick             ~10x smaller (CI smoke)
//   bench_perf --reps N            repeat each scenario N times, keep the
//                                  fastest rep (noise-robust; default 3)
//   bench_perf --only a,b          run only the named blocks
//   bench_perf --out FILE          JSON output path ("" = skip)
//
// Only a full run writes BENCH_PERF.json by default (bench::Harness's write
// rule); it lands at the repo root by convention (run from there) so the
// perf trajectory is checked in: compare BENCH_PERF.json across commits.
//
// Blocks:
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
//   shards         ONE perm_inter run at --shards 1 vs 2 (conservative PDES
//                  along the DC seam, DESIGN.md §14): asserts the two runs
//                  are bit-identical and reports the wall-clock speedup.
//                  Speedup needs >= 2 real cores; hw_threads is recorded so
//                  a 1-core reading is never mistaken for a regression
//   trace          mixed incast with the flight recorder off vs on (all
//                  categories); reports the tracing overhead percentage,
//                  which the perf-smoke CI leg asserts stays under 3%
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"

using namespace uno;

namespace {

/// One timed run, read off its finished Experiment.
struct ArmRun {
  double wall_s = 0;
  double sim_ms = 0;
  std::size_t flows = 0;
  std::size_t completed = 0;
  RunDigest digest;                // digest.events: events over every shard
  std::uint64_t sync_rounds = 0;   // shard barrier rounds (0 on one shard)
  std::uint64_t trace_events = 0;  // recorded plus dropped (0 untraced)
};

/// One workload end-to-end through a ScenarioHarness, the same code path as
/// `uno_sim --scenario`, so every arm tracks the harness's sync-grid
/// stepping cost alongside the raw event core; timed and read off `ex`.
ArmRun run_arm(Experiment& ex, Scenario& sc) {
  ScenarioHarness harness(ex, sc);
  const double t0 = bench::now_seconds();
  harness.run(20 * kSecond);
  ArmRun r;
  r.wall_s = bench::now_seconds() - t0;
  r.sim_ms = to_milliseconds(ex.now());
  r.flows = ex.flows_spawned();
  r.completed = ex.flows_completed();
  r.digest = ex.digest();
  MetricRegistry m;
  ex.snapshot_metrics(m);
  r.sync_rounds = m.counter("sim.shard.sync_rounds");
  r.trace_events = m.counter("trace.events") + m.counter("trace.dropped");
  return r;
}

/// Registry scenario `name` with options `kvs` on an Experiment built from
/// `cfg` (`quick` engages the scenario's scaled-down defaults).
ArmRun run_scenario_arm(ExperimentConfig cfg, const char* name,
                        const std::vector<ScenarioOption>& kvs, bool quick) {
  cfg.seed = bench::seed();
  Experiment ex(cfg);
  std::unique_ptr<Scenario> sc = ScenarioRegistry::instance().create(name);
  std::string err;
  if (sc == nullptr || !sc->set_options(kvs, &err) ||
      !sc->init({bench::hosts_of(ex), cfg.seed, cfg.uno.link_rate, quick}, &err)) {
    std::fprintf(stderr, "scenario %s: %s\n", name, err.c_str());
    std::exit(2);
  }
  return run_arm(ex, *sc);
}

ArmRun run_incast_intra(bool quick) {
  ExperimentConfig cfg;
  cfg.seed = bench::seed();
  Experiment ex(cfg);
  OpenLoopScenario incast(
      make_incast(bench::hosts_of(ex), 0, 32, 0, (quick ? 1 : 8) * (1 << 20)));
  return run_arm(ex, incast);
}

/// The perm_inter workload at `shards` shards: the perm_inter arm runs it
/// on one, the shards block on one and two.
ArmRun run_perm_inter(bool quick, int shards) {
  ExperimentConfig cfg;
  cfg.shards = shards;
  return run_scenario_arm(cfg, "permutation", {{"size-mb", quick ? "0.25" : "2"}}, quick);
}

ArmRun run_fault_flap(bool quick) {
  ExperimentConfig cfg;
  std::string err;
  FaultPlan::parse("100us flap border:* period=200us duty=0.5 until=5ms", &cfg.faults, &err);
  // Half intra, half inter: the inter flows ride the flapping WAN links and
  // drive retransmit-timer rearm/cancel storms through the event heap.
  return run_scenario_arm(
      cfg, "incast", {{"flows", quick ? "8" : "16"}, {"size-mb", quick ? "1" : "4"}}, quick);
}

ArmRun run_scn_allreduce(bool quick) {
  return run_scenario_arm({}, "allreduce",
                          {{"groups", "8"},
                           {"size-mb", quick ? "4" : "32"},
                           {"iterations", quick ? "2" : "4"}},
                          quick);
}

ArmRun run_scn_gpu_cluster(bool quick) {
  // Library defaults; --quick engages the scenario's own scaled-down preset.
  return run_scenario_arm({}, "gpu_cluster", {}, quick);
}

ArmRun run_scn_tornado(bool quick) {
  return run_scenario_arm(
      {}, "tornado", {{"rounds", quick ? "2" : "4"}, {"size-mb", quick ? "0.25" : "1"}}, quick);
}

ArmRun run_scn_rpc_churn(bool quick) {
  return run_scenario_arm(
      {}, "rpc_churn", {{"active-hosts", "64"}, {"duration-ms", quick ? "1" : "5"}}, quick);
}

/// The single-run throughput arms, in report order.
struct Arm {
  const char* name;
  ArmRun (*run)(bool quick);
};
const Arm kArms[] = {
    {"incast_intra", run_incast_intra},
    {"perm_inter", [](bool quick) { return run_perm_inter(quick, 1); }},
    {"fault_flap", run_fault_flap},
    {"allreduce", run_scn_allreduce},
    {"gpu_cluster", run_scn_gpu_cluster},
    {"tornado", run_scn_tornado},
    {"rpc_churn", run_scn_rpc_churn},
};

/// Fastest of `reps` runs: simulated work is identical per rep, so the
/// minimum wall time is the least-interference estimate.
ArmRun best_of(int reps, const std::function<ArmRun()>& run) {
  ArmRun best = run();
  for (int i = 1; i < reps; ++i) {
    ArmRun r = run();
    if (r.wall_s < best.wall_s) best = std::move(r);
  }
  return best;
}

void run_arms(bench::Harness& h) {
  MetricRegistry& m = h.results();
  Table t({"scenario", "events", "wall s", "Mev/s", "ns/event", "sim ms", "flows"});
  for (const Arm& arm : kArms) {
    if (!h.wants(arm.name)) continue;
    const ArmRun r = best_of(h.reps(), [&] { return arm.run(h.quick()); });
    const std::uint64_t events = r.digest.events;
    const double events_per_sec = r.wall_s > 0 ? static_cast<double>(events) / r.wall_s : 0;
    const double ns_per_event = events > 0 ? r.wall_s * 1e9 / static_cast<double>(events) : 0;
    const std::string key = std::string(arm.name) + ".";
    m.set_counter(key + "events", events);
    m.set_gauge(key + "wall_s", r.wall_s);
    m.set_counter(key + "events_per_sec", static_cast<std::uint64_t>(std::llround(events_per_sec)));
    m.set_gauge(key + "ns_per_event", ns_per_event);
    m.set_gauge(key + "sim_ms", r.sim_ms);
    m.set_counter(key + "flows", r.flows);
    m.set_counter(key + "completed", r.completed);
    char flows[32];
    std::snprintf(flows, sizeof(flows), "%zu/%zu", r.completed, r.flows);
    t.add_row({arm.name, std::to_string(events), Table::fmt(r.wall_s, 3),
               Table::fmt(events_per_sec / 1e6, 3), Table::fmt(ns_per_event, 0),
               Table::fmt(r.sim_ms, 2), flows});
  }
  t.print("single-run throughput");
}

/// The SAME perm_inter simulation monolithic and at two shards (the two-DC
/// topology partitions into two atoms), best wall of each over the reps.
/// Contrast uno_farm, which parallelizes across independent runs: this is
/// the single-run path (--shards, DESIGN.md §14).
void run_shards(bench::Harness& h) {
  constexpr int kShards = 2;
  ArmRun mono, par;
  double wall_1 = 0, wall_n = 0;
  for (int i = 0; i < h.reps(); ++i) {
    mono = run_perm_inter(h.quick(), 1);
    par = run_perm_inter(h.quick(), kShards);
    wall_1 = i == 0 ? mono.wall_s : std::min(wall_1, mono.wall_s);
    wall_n = i == 0 ? par.wall_s : std::min(wall_n, par.wall_s);
  }
  const bool deterministic = par.digest == mono.digest;
  const double speedup = wall_n > 0 ? wall_1 / wall_n : 0;
  MetricRegistry& m = h.results();
  m.set_counter("shards.shards", kShards);
  m.set_counter("shards.events", mono.digest.events);
  m.set_gauge("shards.wall_1_s", wall_1);
  m.set_gauge("shards.wall_n_s", wall_n);
  m.set_gauge("shards.speedup", speedup);
  m.set_counter("shards.sync_rounds", par.sync_rounds);
  m.set_counter("shards.deterministic", deterministic ? 1 : 0);
  std::printf("\nshards: perm_inter x1 %.3fs, x%d %.3fs (%.2fx, %llu sync rounds, "
              "%u hw threads) — %s\n",
              wall_1, kShards, wall_n, speedup,
              static_cast<unsigned long long>(par.sync_rounds),
              std::thread::hardware_concurrency(),
              deterministic ? "bit-identical" : "DIGESTS DIVERGED");
}

/// Flight-recorder cost on a hot scenario: same mixed incast with tracing
/// off, then on with every category enabled. With UNO_TRACE=OFF the macro
/// compiles to nothing and the two walls should be statistically identical.
void run_trace(bench::Harness& h) {
  auto run = [&](bool traced, std::uint64_t* trace_events) {
    ExperimentConfig cfg;
    cfg.trace.enabled = traced;
    // Always the full-size flows, even under --quick: the measurement target
    // is the recorder's *steady-state* relative cost, and a smoke-sized run
    // is dominated by one-time ring allocation + first-touch page faults
    // (~5% apparent overhead at 1 MiB vs ~2% at 4 MiB for the same
    // per-event cost). A rep is still only ~0.5 s wall.
    const ArmRun r = run_scenario_arm(cfg, "incast", {{"flows", "32"}, {"size-mb", "4"}}, false);
    if (trace_events != nullptr) *trace_events = r.trace_events;
    return r.wall_s;
  };
  std::uint64_t events = 0;
  double untraced = run(false, nullptr);
  double traced = run(true, &events);
  for (int i = 1; i < h.reps(); ++i) {
    untraced = std::min(untraced, run(false, nullptr));
    traced = std::min(traced, run(true, &events));
  }
  const double overhead_pct = untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0;
  MetricRegistry& m = h.results();
  m.set_counter("trace.compiled", trace_compiled() ? 1 : 0);
  m.set_gauge("trace.untraced_wall_s", untraced);
  m.set_gauge("trace.traced_wall_s", traced);
  m.set_gauge("trace.overhead_pct", overhead_pct);
  m.set_counter("trace.events", events);
  std::printf("\ntrace: compiled=%s, untraced %.3fs, traced %.3fs, overhead %.2f%% "
              "(%llu events)\n",
              trace_compiled() ? "yes" : "no", untraced, traced, overhead_pct,
              static_cast<unsigned long long>(events));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> blocks;
  for (const Arm& arm : kArms) blocks.emplace_back(arm.name);
  blocks.insert(blocks.end(), {"shards", "trace"});
  bench::Harness h(argc, argv, "bench_perf", "event-core throughput", blocks,
                   /*takes_reps=*/true);
  run_arms(h);
  if (h.wants("shards")) run_shards(h);
  if (h.wants("trace")) run_trace(h);
  return h.write() ? 0 : 1;
}
