// Scale-path guards: flyweight path generation, the N-DC WAN mesh, and
// slab-backed flow state (DESIGN.md §15).
//
// The flyweight PathStore must be a pure memory optimization — every route
// it serves has to match what the topology's generator enumerates, and the
// (a,b)/(b,a) mirror has to be literal storage sharing; the ab_identity
// goldens pin the runs it serves. The churn smoke pins the slab contract:
// once warm, spawning and completing flows touches the heap zero times.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/build_info.hpp"
#include "core/experiment.hpp"
#include "core/sim_options.hpp"
#include "run_flows.hpp"
#include "topo/interdc.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

InterDcConfig mesh_cfg(int k, int dcs) {
  InterDcConfig c;
  c.k = k;
  c.num_dcs = dcs;
  return c;
}

// ---------------------------------------------------------- flyweight ----

/// Every route the store serves must equal, hop for hop, what the
/// generator enumerates for that ordered pair — in both directions, across
/// a fuzzed sample of intra- and inter-DC pairs.
void check_store_matches_generator(InterDcTopology& topo, int pairs,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, topo.num_hosts() - 1);
  std::vector<RouteScratch> fwd, rev;
  for (int t = 0; t < pairs; ++t) {
    const int a = pick(rng);
    int b = pick(rng);
    if (b == a) b = (b + 1) % topo.num_hosts();
    SCOPED_TRACE("pair " + std::to_string(a) + "->" + std::to_string(b));

    fwd.clear();
    rev.clear();
    topo.generate_routes(a, b, fwd);
    topo.generate_routes(b, a, rev);
    const PathSet& ps = topo.paths(a, b);
    ASSERT_EQ(ps.forward.size(), fwd.size());
    ASSERT_EQ(ps.reverse.size(), rev.size());
    for (std::size_t i = 0; i < fwd.size(); ++i) {
      ASSERT_EQ(ps.forward[i].path_id, i);
      ASSERT_EQ(ps.forward[i].size(), static_cast<std::size_t>(fwd[i].n));
      for (int h = 0; h < fwd[i].n; ++h)
        ASSERT_EQ(ps.forward[i].hops[static_cast<std::size_t>(h)], fwd[i].hops[h])
            << "forward route " << i << " hop " << h;
    }
    for (std::size_t i = 0; i < rev.size(); ++i) {
      ASSERT_EQ(ps.reverse[i].size(), static_cast<std::size_t>(rev[i].n));
      for (int h = 0; h < rev[i].n; ++h)
        ASSERT_EQ(ps.reverse[i].hops[static_cast<std::size_t>(h)], rev[i].hops[h])
            << "reverse route " << i << " hop " << h;
    }
  }
}

TEST(Flyweight, StoreMatchesGeneratorK8) {
  EventQueue eq;
  InterDcTopology topo(eq, mesh_cfg(8, 2));
  check_store_matches_generator(topo, 64, 17);
}

TEST(Flyweight, StoreMatchesGeneratorK16) {
  EventQueue eq;
  InterDcTopology topo(eq, mesh_cfg(16, 2));  // 1024 hosts per DC
  check_store_matches_generator(topo, 24, 23);
}

TEST(Flyweight, StoreMatchesGeneratorThreeDcMesh) {
  EventQueue eq;
  InterDcTopology topo(eq, mesh_cfg(4, 3));
  check_store_matches_generator(topo, 48, 29);
}

TEST(Flyweight, MirrorSharesStorage) {
  EventQueue eq;
  InterDcTopology topo(eq, mesh_cfg(4, 2));
  const PathSet& ab = topo.paths(3, 21);  // inter-DC pair
  const PathSet& ba = topo.paths(21, 3);
  ASSERT_EQ(ab.forward.size(), ba.reverse.size());
  // Literal sharing, not equal copies: the two views alias one slab.
  EXPECT_EQ(ab.forward.data, ba.reverse.data);
  EXPECT_EQ(ab.reverse.data, ba.forward.data);
  EXPECT_EQ(topo.path_store().pairs_built(), 1u);
}

TEST(Flyweight, AcquireReleaseReviveEvict) {
  EventQueue eq;
  InterDcConfig cfg = mesh_cfg(4, 2);
  cfg.path_quarantine = 1 * kMillisecond;
  InterDcTopology topo(eq, cfg);
  PathStore& ps = topo.path_store();

  const PathSet& first = topo.acquire_paths(0, 17, 0);
  const Route* slab = first.forward.data;
  EXPECT_EQ(ps.pairs_built(), 1u);
  topo.release_paths(0, 17, 0);

  // Re-acquired inside the quarantine window: same storage, no rebuild.
  const PathSet& again = topo.acquire_paths(0, 17, kMillisecond / 2);
  EXPECT_EQ(again.forward.data, slab);
  EXPECT_EQ(ps.pairs_built(), 1u);
  EXPECT_EQ(ps.pairs_revived(), 1u);
  topo.release_paths(0, 17, kMillisecond / 2);

  // A *new* pair built after the quarantine expires sweeps the idle pair
  // out and can recycle its slab for the next build.
  topo.acquire_paths(1, 18, 3 * kMillisecond);
  EXPECT_EQ(ps.evictions(), 1u);
  EXPECT_EQ(ps.pairs_built(), 2u);
  EXPECT_EQ(ps.slabs_reused(), 1u);  // (1,18) reuses (0,17)'s retired slab
  EXPECT_EQ(ps.live_pairs(), 1u);

  topo.acquire_paths(0, 17, 3 * kMillisecond);
  EXPECT_EQ(ps.pairs_built(), 3u);  // evicted pair really was rebuilt
}

TEST(Flyweight, PinnedPairsSurviveSweeps) {
  EventQueue eq;
  InterDcConfig cfg = mesh_cfg(4, 2);
  cfg.path_quarantine = 1 * kMillisecond;
  InterDcTopology topo(eq, cfg);

  const PathSet& pinned = topo.paths(0, 17);  // get() pins forever
  const Route* slab = pinned.forward.data;
  // Acquire/release the same pair, then let a sweep run long after the
  // quarantine: a pinned pair must never be evicted.
  topo.acquire_paths(0, 17, 0);
  topo.release_paths(0, 17, 0);
  topo.acquire_paths(2, 19, 10 * kMillisecond);  // triggers the sweep
  EXPECT_EQ(topo.path_store().evictions(), 0u);
  EXPECT_EQ(topo.paths(0, 17).forward.data, slab);
}

TEST(Flyweight, QuarantineKeepsOneRecordPerPair) {
  EventQueue eq;
  InterDcConfig cfg = mesh_cfg(4, 2);
  cfg.path_quarantine = 1 * kMillisecond;
  InterDcTopology topo(eq, cfg);
  PathStore& ps = topo.path_store();

  // Churn over one pair: each release used to queue a record that only a
  // new build would sweep.
  Time t = 0;
  for (int i = 0; i < 10000; ++i, t += kMicrosecond) {
    topo.acquire_paths(0, 17, t);
    topo.release_paths(0, 17, t);
    ASSERT_LE(ps.quarantine_records(), 1u) << "cycle " << i;
  }
  const Time last_release = t - kMicrosecond;
  EXPECT_EQ(ps.pairs_built(), 1u);

  // The record dates from the first release, but the pair was released
  // again since: a sweep before the latest quarantine ends must keep it.
  topo.acquire_paths(1, 18, last_release + kMillisecond - 1);
  EXPECT_EQ(ps.evictions(), 0u);
  EXPECT_EQ(ps.quarantine_records(), 1u);
  topo.acquire_paths(2, 19, last_release + kMillisecond);
  EXPECT_EQ(ps.evictions(), 1u);
  EXPECT_EQ(ps.quarantine_records(), 0u);
}

// --------------------------------------------------------------- mesh ----

TEST(Mesh, ChannelAndLatencyLayoutThreeDcs) {
  EventQueue eq;
  InterDcConfig cfg = mesh_cfg(4, 3);
  cfg.cross_links = 4;
  // Heterogeneous WAN: DC2 is far from both others.
  cfg.cross_latency_matrix.assign(9, 0);
  cfg.cross_latency_matrix[0 * 3 + 1] = cfg.cross_latency_matrix[1 * 3 + 0] =
      990 * kMicrosecond;
  cfg.cross_latency_matrix[0 * 3 + 2] = cfg.cross_latency_matrix[2 * 3 + 0] =
      3990 * kMicrosecond;
  cfg.cross_latency_matrix[1 * 3 + 2] = cfg.cross_latency_matrix[2 * 3 + 1] =
      3990 * kMicrosecond;
  InterDcTopology topo(eq, cfg);

  // Full border mesh: cross_links directed links per ordered DC pair.
  EXPECT_EQ(topo.all_channels().size(), 3u * 2u * 4u);
  EXPECT_EQ(topo.num_hosts(), 48);
  EXPECT_EQ(cfg.cross_latency_between(0, 1), 990 * kMicrosecond);
  EXPECT_EQ(cfg.cross_latency_between(2, 1), 3990 * kMicrosecond);
  EXPECT_EQ(cfg.inter_base_rtt_between(0, 1), 2 * kMillisecond);
  EXPECT_EQ(cfg.inter_base_rtt_between(0, 2), 8 * kMillisecond);
  // Unset entries fall back to the scalar default.
  InterDcConfig plain = mesh_cfg(4, 3);
  EXPECT_EQ(plain.cross_latency_between(0, 2), plain.cross_link_latency);
}

TEST(Mesh, PerPairBaseRttReachesFlowParams) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.uno.num_dcs = 3;
  cfg.uno.inter_rtt_matrix.assign(9, 0);
  cfg.uno.inter_rtt_matrix[0 * 3 + 1] = cfg.uno.inter_rtt_matrix[1 * 3 + 0] =
      2 * kMillisecond;
  cfg.uno.inter_rtt_matrix[0 * 3 + 2] = cfg.uno.inter_rtt_matrix[2 * 3 + 0] =
      8 * kMillisecond;
  cfg.uno.inter_rtt_matrix[1 * 3 + 2] = cfg.uno.inter_rtt_matrix[2 * 3 + 1] =
      8 * kMillisecond;
  Experiment ex(cfg);

  FlowSpec near{0, 16, 1 << 20, 0, true};   // DC0 -> DC1
  FlowSpec far{0, 32, 1 << 20, 0, true};    // DC0 -> DC2
  FlowSpec local{0, 5, 1 << 20, 0, false};  // intra DC0
  EXPECT_EQ(ex.flow_params(near).base_rtt, 2 * kMillisecond);
  EXPECT_EQ(ex.flow_params(far).base_rtt, 8 * kMillisecond);
  EXPECT_EQ(ex.flow_params(local).base_rtt, cfg.uno.intra_rtt);
  EXPECT_EQ(ex.cc_params(far).base_rtt, 8 * kMillisecond);
}

TEST(Mesh, FourDcPermutationCompletes) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.uno.num_dcs = 4;
  Experiment ex(cfg);
  EXPECT_TRUE(run_flows(ex, make_permutation(HostSpace{16, 4}, 64 * 1024, 7), 20 * kSecond));
  EXPECT_EQ(ex.flows_completed(), 64u);
}

// -------------------------------------------------------- slab churn ----

/// 10^5 flows through one experiment in waves, one harness per wave: after
/// the warm-up wave the slab pools must serve every subsequent
/// spawn/complete cycle without a single heap allocation. Staggered intra-DC permutation rounds keep the
/// run congestion-free, so the per-wave slab demand is exactly constant
/// (retransmit rings never allocate — see bench_scale's churn notes).
TEST(SlabChurn, HundredThousandFlowsZeroSteadyStateAllocs) {
  // Sanitizers slow the event loop ~10-20x; keep their smoke meaningful
  // but CI-sized.
  const bool sanitized = !build_info().sanitize.empty();
  const int waves = 10;
  const std::size_t per_wave = sanitized ? 1000 : 10000;

  ExperimentConfig cfg;
  cfg.seed = 3;
  cfg.fattree_k = 4;
  Experiment ex(cfg);
  const HostSpace hosts{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};

  auto counters = [&](const char* name) {
    MetricRegistry m;
    ex.snapshot_metrics(m);
    return m.counter(name);
  };

  std::uint64_t heap_after_warmup = 0;
  std::uint64_t acquires_after_warmup = 0;
  std::uint64_t rot = 0;
  for (int w = 0; w < waves; ++w) {
    std::vector<FlowSpec> specs;
    specs.reserve(per_wave);
    for (std::size_t i = 0; i < per_wave; ++i, ++rot) {
      const int per_dc = hosts.hosts_per_dc;
      const int dc = static_cast<int>(rot) % hosts.num_dcs;
      const int local = static_cast<int>(rot / hosts.num_dcs) % per_dc;
      const int shift = 1 + static_cast<int>(rot / hosts.total()) % (per_dc - 1);
      FlowSpec s;
      s.src = dc * per_dc + local;
      s.dst = dc * per_dc + (local + shift) % per_dc;
      s.size_bytes = 16 * 1024;
      s.start_time =
          ex.now() + static_cast<Time>(i / hosts.total()) * 50 * kMicrosecond;
      s.interdc = false;
      specs.push_back(s);
    }
    ASSERT_TRUE(run_flows(ex, specs, ex.now() + 20 * kSecond));
    ASSERT_EQ(ex.flows_spawned(), per_wave * (w + 1));
    if (w == 0) {
      heap_after_warmup = counters("mem.flow.slab_heap_allocs");
      acquires_after_warmup = counters("mem.flow.slab_acquires");
      EXPECT_GT(heap_after_warmup, 0u);  // the warm-up really did allocate
    }
  }

  EXPECT_EQ(ex.flows_completed(), per_wave * waves);
  // Slab traffic kept flowing...
  EXPECT_GT(counters("mem.flow.slab_acquires"), acquires_after_warmup);
  // ...but after warm-up none of it touched the heap.
  EXPECT_EQ(counters("mem.flow.slab_heap_allocs"), heap_after_warmup);
  // Completed flows returned their state: nothing live at quiescence.
  EXPECT_EQ(counters("mem.flow.slab_live_bytes"), 0u);
}

/// Per-packet slab state is held only from a flow's start to its
/// completion: spawning flows that start later takes nothing from the
/// pools. Inter-DC flows put sender and receiver on different shards, so
/// at --shards 2 both endpoints acquire on their own shard's thread.
void check_state_follows_flows_in_progress(int shards) {
  SCOPED_TRACE("shards=" + std::to_string(shards));
  ExperimentConfig cfg;
  cfg.seed = 5;
  cfg.fattree_k = 4;
  cfg.shards = shards;
  Experiment ex(cfg);
  const HostSpace hosts{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};
  auto counter = [&](const char* name) {
    MetricRegistry m;
    ex.snapshot_metrics(m);
    return m.counter(name);
  };

  const Time first_start = 100 * kMicrosecond;
  std::vector<FlowSpec> specs;
  for (int i = 0; i < 64; ++i) {
    FlowSpec s;
    s.src = i % hosts.total();
    s.dst = (s.src + 1 + (i % 3 == 0 ? hosts.hosts_per_dc : 0)) % hosts.total();
    s.interdc = ex.topo().is_interdc(s.src, s.dst);
    s.size_bytes = 64 * 1024;
    s.start_time = first_start + static_cast<Time>(i) * 10 * kMicrosecond;
    specs.push_back(s);
  }
  OpenLoopScenario sc(specs);
  ScenarioHarness h(ex, sc);
  h.begin();
  EXPECT_GT(ex.flows_spawned(), 0u);
  EXPECT_EQ(counter("mem.flow.slab_acquires"), 0u);
  EXPECT_EQ(counter("mem.flow.slab_live_bytes"), 0u);

  h.run(first_start + kMicrosecond);
  EXPECT_GT(counter("mem.flow.slab_live_bytes"), 0u);

  ASSERT_TRUE(h.run(20 * kSecond));
  EXPECT_EQ(counter("mem.flow.slab_live_bytes"), 0u);
  EXPECT_EQ(counter("mem.flow.slab_acquires"), counter("mem.flow.slab_releases"));
}

TEST(SlabChurn, StateHeldOnlyFromStartToCompletion) {
  check_state_follows_flows_in_progress(1);
  check_state_follows_flows_in_progress(2);
}

// ----------------------------------------------------------- options ----

TEST(ScaleOptions, ParseCrossRtt) {
  std::vector<Time> m;
  std::string err;
  ASSERT_TRUE(parse_cross_rtt("0-1=2,0-2=8,1-2=8", 3, &m, &err)) << err;
  ASSERT_EQ(m.size(), 9u);
  EXPECT_EQ(m[0 * 3 + 1], 2 * kMillisecond);
  EXPECT_EQ(m[1 * 3 + 0], 2 * kMillisecond);  // symmetric fill
  EXPECT_EQ(m[2 * 3 + 0], 8 * kMillisecond);
  EXPECT_EQ(m[0 * 3 + 0], 0);  // diagonal untouched
  // Unlisted pairs stay 0 (= fall back to the scalar default).
  ASSERT_TRUE(parse_cross_rtt("0-1=2", 3, &m, &err)) << err;
  EXPECT_EQ(m[1 * 3 + 2], 0);

  EXPECT_FALSE(parse_cross_rtt("0-1", 3, &m, &err));
  EXPECT_FALSE(parse_cross_rtt("0-0=2", 3, &m, &err));
  EXPECT_FALSE(parse_cross_rtt("0-3=2", 3, &m, &err));
  EXPECT_FALSE(parse_cross_rtt("0-1=0.01", 3, &m, &err));  // below the in-DC path
  EXPECT_FALSE(parse_cross_rtt("garbage", 3, &m, &err));
}

}  // namespace
}  // namespace uno
