// bench_scale — memory and throughput at scale: many flows, many DCs.
//
// Where bench_perf tracks the event core's ns/event on fixed scenarios,
// bench_scale tracks how the simulator *grows*: bytes of flow state per
// flow, path-table footprint as the host count and DC count rise, and the
// PDES speedup on a >2-DC mesh. Blocks:
//
//   paths    a bidirectional permutation: reports directed pairs served
//            per route slab built — the flyweight store's mirror sharing,
//            2.00 when both directions of every pair share one slab — and
//            asserts it stays above 1.8
//   flows    flow churn: repeated waves of short flows through one
//            experiment. Reports slab bytes/flow and asserts the slab pools
//            stop hitting the heap once warm (steady-state zero-alloc)
//   scale    a hosts-per-DC x DC-count grid of permutation runs recording
//            events/s, p99 FCT, path bytes, and process RSS per cell
//   shards   ONE 4-DC permutation at --shards 1/2/4, each run three times:
//            asserts all nine digests are bit-identical and reports the
//            speedups of the median walls (needs >= 4 real cores to show
//            > 1x; hw_threads is recorded)
//
//   bench_scale                 full run, writes BENCH_SCALE.json
//   bench_scale --quick         CI smoke: smaller cells, same hard gates
//   bench_scale --only a,b      run only the named blocks
//   bench_scale --out FILE      JSON output path ("" = skip)
//
// Only a full run writes BENCH_SCALE.json by default (bench::Harness's write
// rule).
//
// Exit code: 0 when every determinism/memory gate holds, 1 when one fails
// or the results cannot be written, 2 on a bad argument.
// Timing numbers (events/s, speedup) are reported but never gated here —
// CI applies its own retry policy to those.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "workload/traffic.hpp"

using namespace uno;

namespace {

/// Current VmRSS in KiB (0 where /proc is unavailable).
std::uint64_t rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmRSS: %llu kB", reinterpret_cast<unsigned long long*>(&kib)) == 1)
      break;
  std::fclose(f);
  return kib;
}

// ---------------------------------------------------------------- paths --

struct PathsResult {
  double wall_s = 0;
  std::uint64_t directed_pairs = 0;  // distinct (src, dst) pairs with a flow
  std::uint64_t pairs_built = 0;     // route slabs built
  std::uint64_t routes_built = 0;
  std::uint64_t peak_slab_bytes = 0;
  /// Directed pairs served per slab built.
  double sharing() const {
    return pairs_built > 0
               ? static_cast<double>(directed_pairs) / static_cast<double>(pairs_built)
               : 0;
  }
};

PathsResult run_paths(bool quick) {
  ExperimentConfig cfg;
  cfg.seed = bench::seed();
  if (quick) cfg.fattree_k = 4;
  Experiment ex(cfg);
  const std::uint64_t bytes = (quick ? 64 : 512) * 1024ull;
  // Bidirectional permutation: every pair flows both ways, so the flyweight
  // store serves (a,b) and (b,a) from one slab.
  auto specs = make_permutation(bench::hosts_of(ex), bytes, cfg.seed);
  const std::size_t n = specs.size();
  for (std::size_t i = 0; i < n; ++i) {
    FlowSpec rev = specs[i];
    std::swap(rev.src, rev.dst);
    specs.push_back(rev);
  }
  std::set<std::pair<int, int>> directed;
  for (const FlowSpec& s : specs) directed.emplace(s.src, s.dst);
  PathsResult r;
  r.wall_s = bench::timed_run(ex, std::move(specs), 20 * kSecond);
  r.directed_pairs = directed.size();
  const PathStore& ps = ex.topo().path_store();
  r.pairs_built = ps.pairs_built();
  r.routes_built = ps.routes_built();
  r.peak_slab_bytes = ps.peak_slab_bytes();
  return r;
}

// ---------------------------------------------------------------- flows --

struct ChurnResult {
  int waves = 0;
  std::size_t flows_per_wave = 0;
  std::size_t flows_total = 0;
  std::uint64_t slab_peak_bytes = 0;     // pool peak across the whole run
  std::uint64_t heap_allocs_warm = 0;    // slab heap misses after wave 1
  std::uint64_t heap_allocs_final = 0;   // ... after the last wave
  std::uint64_t path_evictions = 0;
  std::uint64_t path_revived = 0;
  std::uint64_t slabs_reused = 0;
  double bytes_per_flow = 0;             // slab peak / peak concurrent flows
  bool steady_state_clean = false;       // no heap growth after warm-up
};

/// Waves of short flows through ONE experiment, one harness per wave: each
/// wave spawns `flows_per_wave` 64 KiB flows in staggered intra-DC permutation rounds,
/// runs them to completion, and lets the completion path release their slab
/// state back to the pools. After two warm-up waves the pools are warm and
/// the run must not touch the heap again — the zero-steady-state-allocation
/// contract. The workload is deliberately congestion-free (permutation
/// rounds, generous stagger): retransmit rings allocate lazily, so a lossy
/// wave could legitimately demand a ring size the pool has never seen —
/// that would measure congestion variance, not a recycling leak.
ChurnResult run_churn(bool quick) {
  ExperimentConfig cfg;
  cfg.seed = bench::seed();
  cfg.fattree_k = 4;  // 16 hosts/DC: churn stresses flow state, not the fabric
  Experiment ex(cfg);
  const HostSpace hosts = bench::hosts_of(ex);
  ChurnResult r;
  r.waves = quick ? 4 : 8;
  r.flows_per_wave = quick ? 256 : 4096;

  auto heap_allocs = [&] {
    MetricRegistry m;
    ex.snapshot_metrics(m);
    return m.counter("mem.flow.slab_heap_allocs");
  };

  std::uint64_t rot = 0;
  for (int w = 0; w < r.waves; ++w) {
    std::vector<FlowSpec> specs;
    specs.reserve(r.flows_per_wave);
    for (std::size_t i = 0; i < r.flows_per_wave; ++i, ++rot) {
      const int per_dc = hosts.hosts_per_dc;
      const int dc = static_cast<int>(rot) % hosts.num_dcs;
      const int local = static_cast<int>(rot / hosts.num_dcs) % per_dc;
      const int shift = 1 + static_cast<int>(rot / hosts.total()) % (per_dc - 1);
      FlowSpec s;
      s.src = dc * per_dc + local;
      s.dst = dc * per_dc + (local + shift) % per_dc;
      s.size_bytes = 64 * 1024;
      s.start_time = ex.now() + static_cast<Time>(i / hosts.total()) * 100 * kMicrosecond;
      s.interdc = false;
      specs.push_back(s);
    }
    OpenLoopScenario wave(std::move(specs));
    ScenarioHarness(ex, wave).run(ex.now() + 20 * kSecond);
    if (w == 1) r.heap_allocs_warm = heap_allocs();
  }
  r.heap_allocs_final = heap_allocs();
  r.flows_total = ex.flows_spawned();

  MetricRegistry m;
  ex.snapshot_metrics(m);
  r.slab_peak_bytes = m.counter("mem.flow.slab_peak_bytes");
  r.path_evictions = m.counter("topo.paths.evictions");
  r.path_revived = m.counter("topo.paths.pairs_revived");
  r.slabs_reused = m.counter("topo.paths.slabs_reused");
  // Flows hold slab state only from start to completion, and each round of
  // one flow per host finishes well inside its 100 us slot, so one round is
  // the peak number of concurrent holders.
  r.bytes_per_flow =
      static_cast<double>(r.slab_peak_bytes) / static_cast<double>(hosts.total());
  r.steady_state_clean = r.heap_allocs_final == r.heap_allocs_warm;
  return r;
}

// ---------------------------------------------------------------- scale --

struct ScaleCell {
  int k = 0;
  int dcs = 0;
  int hosts = 0;
  std::size_t flows = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  double p99_us = 0;
  std::uint64_t path_peak_bytes = 0;
  std::uint64_t rss_kib = 0;
};

ScaleCell run_scale_cell(bool quick, int k, int dcs) {
  ExperimentConfig cfg;
  cfg.seed = bench::seed();
  cfg.fattree_k = k;
  cfg.uno.num_dcs = dcs;
  Experiment ex(cfg);
  ScaleCell c;
  c.k = k;
  c.dcs = dcs;
  c.hosts = ex.topo().num_hosts();
  const std::uint64_t bytes = (quick ? 32 : 128) * 1024ull;
  auto specs = make_permutation(bench::hosts_of(ex), bytes, cfg.seed);
  c.flows = specs.size();
  c.wall_s = bench::timed_run(ex, std::move(specs), 30 * kSecond);
  c.events = ex.events_dispatched();
  c.events_per_sec = c.wall_s > 0 ? static_cast<double>(c.events) / c.wall_s : 0;
  c.p99_us = ex.fct().summarize().p99_us;
  c.path_peak_bytes = ex.topo().path_store().peak_slab_bytes();
  c.rss_kib = ::rss_kib();
  return c;
}

std::vector<ScaleCell> run_scale(bool quick) {
  std::vector<std::pair<int, int>> grid;  // (k, dcs)
  if (quick)
    grid = {{4, 2}, {4, 4}};
  else
    grid = {{4, 2}, {4, 4}, {8, 2}, {8, 4}, {4, 8}};
  std::vector<ScaleCell> cells;
  for (auto [k, dcs] : grid) cells.push_back(run_scale_cell(quick, k, dcs));
  return cells;
}

// --------------------------------------------------------------- shards --

struct ShardsResult {
  std::uint64_t events = 0;
  double wall_s[3] = {0, 0, 0};  // shards 1, 2, 4: the median of kShardReps
  bool deterministic = true;
  double speedup(int i) const { return wall_s[i] > 0 ? wall_s[0] / wall_s[i] : 0; }
};

/// A single wall time swings by up to 2x between runs on a shared machine;
/// the median of three discards one outlier per shard count.
constexpr int kShardReps = 3;

/// The SAME 4-DC permutation at shard counts 1, 2, 4 (the mesh partitions
/// into 4 DC atoms; DESIGN.md §14), the three counts taking turns
/// kShardReps times. Every run must produce the first run's digest — the
/// whole point of conservative PDES along the WAN seams.
ShardsResult run_shards(bool quick) {
  ShardsResult r;
  const int counts[3] = {1, 2, 4};
  double walls[3][kShardReps];
  RunDigest first;
  for (int rep = 0; rep < kShardReps; ++rep) {
    for (int i = 0; i < 3; ++i) {
      ExperimentConfig cfg;
      cfg.seed = bench::seed();
      cfg.fattree_k = quick ? 4 : 8;
      cfg.uno.num_dcs = 4;
      cfg.shards = counts[i];
      Experiment ex(cfg);
      const std::uint64_t bytes = (quick ? 64 : 512) * 1024ull;
      walls[i][rep] = bench::timed_run(
          ex, make_permutation(bench::hosts_of(ex), bytes, cfg.seed), 30 * kSecond);
      if (rep == 0 && i == 0)
        first = ex.digest();
      else
        r.deterministic &= ex.digest() == first;
    }
  }
  for (int i = 0; i < 3; ++i) {
    std::sort(walls[i], walls[i] + kShardReps);
    r.wall_s[i] = walls[i][kShardReps / 2];
  }
  r.events = first.events;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "bench_scale", "memory + scale trajectory",
                   {"paths", "flows", "scale", "shards"});
  const bool quick = h.quick();
  MetricRegistry& m = h.results();
  // Slab state per flow must stay bounded: 64 KiB flows carry ~16 packets of
  // PktMeta + two rings + two block bitmaps, well under this even after
  // power-of-two size-class rounding. A regression that hangs per-packet
  // state off the flow (or stops releasing it) blows through the ceiling.
  constexpr double kBytesPerFlowCeiling = 16 * 1024.0;
  // A bidirectional workload must hit the mirror sharing: one slab serves
  // both directions of a pair (2.00 exactly, absent evictions).
  constexpr double kMinSharing = 1.8;
  bool ok = true;

  if (h.wants("paths")) {
    const PathsResult paths = run_paths(quick);
    std::printf("paths: %llu directed pairs on %llu slabs (%.2fx sharing), %llu B peak, "
                "%.3fs\n",
                static_cast<unsigned long long>(paths.directed_pairs),
                static_cast<unsigned long long>(paths.pairs_built), paths.sharing(),
                static_cast<unsigned long long>(paths.peak_slab_bytes), paths.wall_s);
    if (paths.sharing() <= kMinSharing) {
      std::printf("paths: sharing %.2fx BELOW %.1fx\n", paths.sharing(), kMinSharing);
      ok = false;
    }
    m.set_counter("paths.directed_pairs", paths.directed_pairs);
    m.set_counter("paths.pairs_built", paths.pairs_built);
    m.set_gauge("paths.sharing", paths.sharing());
    m.set_gauge("paths.wall_s", paths.wall_s);
    m.set_counter("paths.routes_built", paths.routes_built);
    m.set_counter("paths.peak_slab_bytes", paths.peak_slab_bytes);
  }

  if (h.wants("flows")) {
    const ChurnResult churn = run_churn(quick);
    std::printf("flows: %zu flows in %d waves, %.0f B/flow slab peak, heap allocs "
                "%llu warm -> %llu final (%s), %llu evictions / %llu revived / "
                "%llu slabs reused\n",
                churn.flows_total, churn.waves, churn.bytes_per_flow,
                static_cast<unsigned long long>(churn.heap_allocs_warm),
                static_cast<unsigned long long>(churn.heap_allocs_final),
                churn.steady_state_clean ? "clean" : "HEAP GREW AFTER WARM-UP",
                static_cast<unsigned long long>(churn.path_evictions),
                static_cast<unsigned long long>(churn.path_revived),
                static_cast<unsigned long long>(churn.slabs_reused));
    ok &= churn.steady_state_clean;
    if (churn.bytes_per_flow > kBytesPerFlowCeiling) {
      std::printf("flows: bytes/flow %.0f EXCEEDS ceiling %.0f\n", churn.bytes_per_flow,
                  kBytesPerFlowCeiling);
      ok = false;
    }
    m.set_counter("flows.waves", churn.waves);
    m.set_counter("flows.flows_per_wave", churn.flows_per_wave);
    m.set_counter("flows.flows_total", churn.flows_total);
    m.set_counter("flows.slab_peak_bytes", churn.slab_peak_bytes);
    m.set_gauge("flows.bytes_per_flow", churn.bytes_per_flow);
    m.set_counter("flows.heap_allocs_warm", churn.heap_allocs_warm);
    m.set_counter("flows.heap_allocs_final", churn.heap_allocs_final);
    m.set_counter("flows.steady_state_clean", churn.steady_state_clean ? 1 : 0);
    m.set_counter("flows.path_evictions", churn.path_evictions);
    m.set_counter("flows.path_revived", churn.path_revived);
    m.set_counter("flows.slabs_reused", churn.slabs_reused);
  }

  if (h.wants("scale")) {
    const std::vector<ScaleCell> cells = run_scale(quick);
    Table t({"k", "DCs", "hosts", "flows", "events", "Mev/s", "p99 us", "path KiB",
             "RSS MiB"});
    for (const ScaleCell& c : cells) {
      t.add_row({std::to_string(c.k), std::to_string(c.dcs), std::to_string(c.hosts),
                 std::to_string(c.flows), std::to_string(c.events),
                 Table::fmt(c.events_per_sec / 1e6, 3), Table::fmt(c.p99_us, 1),
                 Table::fmt(static_cast<double>(c.path_peak_bytes) / 1024.0, 1),
                 Table::fmt(static_cast<double>(c.rss_kib) / 1024.0, 1)});
      const std::string key =
          "scale.k" + std::to_string(c.k) + "_dcs" + std::to_string(c.dcs) + ".";
      m.set_counter(key + "hosts", c.hosts);
      m.set_counter(key + "flows", c.flows);
      m.set_counter(key + "events", c.events);
      m.set_gauge(key + "wall_s", c.wall_s);
      m.set_counter(key + "events_per_sec",
                    static_cast<std::uint64_t>(std::llround(c.events_per_sec)));
      m.set_gauge(key + "p99_us", c.p99_us);
      m.set_counter(key + "path_peak_bytes", c.path_peak_bytes);
      m.set_counter(key + "rss_kib", c.rss_kib);
    }
    t.print("scale grid");
  }

  if (h.wants("shards")) {
    const ShardsResult shards = run_shards(quick);
    std::printf("shards: 4-DC perm x1 %.3fs, x2 %.3fs (%.2fx), x4 %.3fs (%.2fx), "
                "%u hw threads — %s\n",
                shards.wall_s[0], shards.wall_s[1], shards.speedup(1), shards.wall_s[2],
                shards.speedup(2), std::thread::hardware_concurrency(),
                shards.deterministic ? "bit-identical" : "DIGESTS DIVERGED");
    ok &= shards.deterministic;
    m.set_counter("shards.dcs", 4);
    m.set_counter("shards.events", shards.events);
    m.set_gauge("shards.wall_1_s", shards.wall_s[0]);
    m.set_gauge("shards.wall_2_s", shards.wall_s[1]);
    m.set_gauge("shards.wall_4_s", shards.wall_s[2]);
    m.set_gauge("shards.speedup_2", shards.speedup(1));
    m.set_gauge("shards.speedup_4", shards.speedup(2));
    m.set_counter("shards.deterministic", shards.deterministic ? 1 : 0);
  }

  if (!ok) std::fprintf(stderr, "bench_scale: GATE FAILURE (see above)\n");
  return h.write() && ok ? 0 : 1;
}
