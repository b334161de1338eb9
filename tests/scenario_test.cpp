// Scenario API tests (DESIGN.md §16): registry behavior (registration,
// duplicate rejection, did-you-mean), the --scenario-opt grammar,
// option-schema round-trips through set_options, resolve-time validation,
// the open-loop library's flow counters, the closed-loop determinism
// contract — ScenarioHarness digests must be bit-identical across --shards
// {1,2,4} and across repeat runs (which is what makes parallel farm cells
// trivially safe: each run's content is a pure function of its cell, not of
// scheduling) — the allreduce driver's iteration sequencing, and the driver
// loop: its stall rule, reserved starts, resumed runs and successive
// harnesses on one Experiment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "workload/cdf.hpp"
#include "workload/scenario.hpp"
#include "workload/scenario_lib.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

// ---------------------------------------------------------------- registry

TEST(ScenarioRegistry, BuiltinsRegisterUnderTheirNames) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  for (const char* name : {"poisson", "incast", "permutation", "replay",
                           "allreduce", "gpu_cluster", "tornado", "rpc_churn"}) {
    EXPECT_TRUE(reg.known(name)) << name;
    auto sc = reg.create(name);
    ASSERT_NE(sc, nullptr) << name;
    EXPECT_EQ(sc->name(), name);
    EXPECT_FALSE(sc->summary().empty()) << name;
  }
}

TEST(ScenarioRegistry, DuplicateNameIsRejected) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  const std::size_t before = reg.names().size();
  ScenarioRegistry::Factory again = [] {
    return std::unique_ptr<Scenario>(new AllreduceScenario());
  };
  EXPECT_FALSE(reg.add(again));  // "allreduce" already registered
  EXPECT_EQ(reg.names().size(), before);
}

TEST(ScenarioRegistry, UnknownNameIsNullWithSuggestion) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  EXPECT_EQ(reg.create("posson"), nullptr);
  EXPECT_EQ(reg.suggest("posson"), "poisson");
  EXPECT_EQ(reg.suggest("tornaod"), "tornado");
  EXPECT_EQ(reg.suggest("qqqqqqqq"), "");  // nothing plausibly close
}

TEST(ScenarioRegistry, HelpTextListsEveryScenarioAndOption) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  const std::string help = reg.help_text();
  for (const std::string& name : reg.names())
    EXPECT_NE(help.find(name), std::string::npos) << name;
  EXPECT_NE(help.find("--scenario-opt"), std::string::npos);
  EXPECT_NE(help.find("pp-stages"), std::string::npos);  // scoped option shown
}

// ----------------------------------------------------------------- options

TEST(ScenarioOpts, ParsesKeyValueList) {
  std::vector<ScenarioOption> kvs;
  std::string err;
  ASSERT_TRUE(parse_scenario_opts("a=1,b=x=y,c=", &kvs, &err));
  ASSERT_EQ(kvs.size(), 3u);
  EXPECT_EQ(kvs[0], (ScenarioOption{"a", "1"}));
  EXPECT_EQ(kvs[1], (ScenarioOption{"b", "x=y"}));  // '=' allowed in values
  EXPECT_EQ(kvs[2], (ScenarioOption{"c", ""}));
  kvs.clear();
  ASSERT_TRUE(parse_scenario_opts("", &kvs, &err));
  EXPECT_TRUE(kvs.empty());
}

TEST(ScenarioOpts, RejectsMalformedItems) {
  std::vector<ScenarioOption> kvs;
  std::string err;
  EXPECT_FALSE(parse_scenario_opts("noequals", &kvs, &err));
  EXPECT_NE(err.find("noequals"), std::string::npos);
  EXPECT_FALSE(parse_scenario_opts("=value", &kvs, &err));
  EXPECT_FALSE(parse_scenario_opts("a=1,,b=2", &kvs, &err));
}

TEST(ScenarioOpts, SchemaRoundTripThroughSetOptions) {
  auto sc = ScenarioRegistry::instance().create("allreduce");
  ASSERT_NE(sc, nullptr);
  std::string err;
  ASSERT_TRUE(sc->set_options({{"groups", "4"}, {"size-mb", "16"}}, &err)) << err;
  EXPECT_EQ(sc->options().num("groups"), 4);
  EXPECT_EQ(sc->options().num("size-mb"), 16);
  EXPECT_TRUE(sc->options().has("groups"));
  EXPECT_FALSE(sc->options().has("iterations"));  // untouched default
  // Later assignments win.
  ASSERT_TRUE(sc->set_options({{"groups", "2"}}, &err)) << err;
  EXPECT_EQ(sc->options().num("groups"), 2);
}

TEST(ScenarioOpts, UnknownKeyFailsWithDidYouMean) {
  auto sc = ScenarioRegistry::instance().create("allreduce");
  std::string err;
  EXPECT_FALSE(sc->set_options({{"goups", "4"}}, &err));
  EXPECT_NE(err.find("groups"), std::string::npos) << err;
}

TEST(ScenarioOpts, ResolveValidatesConfiguration) {
  ScenarioEnv env;
  env.hosts = HostSpace{16, 2};
  std::string err;
  auto sc = ScenarioRegistry::instance().create("gpu_cluster");
  ASSERT_TRUE(sc->set_options({{"pp-stages", "1"}}, &err)) << err;
  EXPECT_FALSE(sc->init(env, &err));  // pipeline needs >= 2 stages
  EXPECT_FALSE(err.empty());

  auto too_big = ScenarioRegistry::instance().create("gpu_cluster");
  err.clear();
  ASSERT_TRUE(too_big->set_options({{"jobs", "8"}, {"pp-stages", "4"}}, &err));
  EXPECT_FALSE(too_big->init(env, &err));  // 32 stage hosts > 16 per DC

  // Options that crashed or hung resolve(): a per-DC pool below 2 hosts
  // (no distinct destination to draw), a negative intra:inter ratio, a
  // non-positive size scale, and a negative tornado gap (an unsorted plan).
  // Each is rejected with a message naming the option.
  struct Case {
    const char* scenario;
    ScenarioOption opt;
    const char* named;
  };
  for (const Case& c : std::vector<Case>{
           {"poisson", {"active-hosts", "1"}, "active-hosts"},
           {"poisson", {"active-hosts", "2"}, "active-hosts"},
           {"poisson", {"active-hosts", "3"}, "active-hosts"},
           {"rpc_churn", {"active-hosts", "1"}, "active-hosts"},
           {"rpc_churn", {"active-hosts", "3"}, "active-hosts"},
           {"poisson", {"dc-wan-ratio", "-1"}, "dc-wan-ratio"},
           {"poisson", {"dc-wan-ratio", "-0.5"}, "dc-wan-ratio"},
           {"poisson", {"size-scale", "0"}, "size-scale"},
           {"rpc_churn", {"size-scale", "-1"}, "size-scale"},
           {"tornado", {"gap-us", "-100"}, "gap-us"},
           // Sizes at or below zero bytes, or past a 64-bit byte count.
           {"incast", {"size-mb", "-1"}, "size-mb"},
           {"incast", {"size-mb", "0"}, "size-mb"},
           {"permutation", {"size-mb", "1e30"}, "size-mb"},
           {"tornado", {"size-mb", "-0.5"}, "size-mb"},
           {"tornado", {"size-mb", "1e14"}, "size-mb"},
           {"allreduce", {"size-mb", "0"}, "size-mb"},
           {"gpu_cluster", {"size-mb", "-1"}, "size-mb"},
           {"gpu_cluster", {"act-mb", "0"}, "act-mb"},
           {"gpu_cluster", {"act-mb", "1e30"}, "act-mb"},
           // Times past the simulation clock.
           {"poisson", {"duration-ms", "1e300"}, "duration-ms"},
           {"rpc_churn", {"duration-ms", "1e10"}, "duration-ms"},
           {"tornado", {"gap-us", "1e300"}, "gap-us"},
           {"tornado", {"gap-us", "5e12"}, "gap-us"},  // its 4th round starts past 2^63 ps
           {"allreduce", {"compute-us", "1e300"}, "compute-us"},
           {"gpu_cluster", {"compute-us", "-1e300"}, "compute-us"},
           // A mean arrival gap under 1 ps never advances the plan's clock.
           {"poisson", {"load", "1e300"}, "load"},
           {"rpc_churn", {"load", "1e18"}, "load"},
           // Counts cast to int: past its range the cast is undefined, and
           // the wrapped value used to pass (or dodge) the checks after it.
           {"incast", {"flows", "1e12"}, "flows must be in [1, 2147483647]"},
           {"incast", {"flows", "0"}, "flows must be in [1, "},
           {"incast", {"receiver", "-1"}, "receiver must be in [0, 31]"},
           {"incast", {"receiver", "1e30"}, "receiver must be in [0, 31]"},
           {"poisson", {"active-hosts", "5e9"}, "active-hosts must be in [0, "},
           {"rpc_churn", {"active-hosts", "5e9"}, "active-hosts must be in [0, "},
           {"rpc_churn", {"active-hosts", "-1"}, "active-hosts must be in [0, "},
           {"tornado", {"stride", "1e30"}, "stride must be in ["},
           {"tornado", {"stride", "-3e9"}, "stride must be in ["},
           {"tornado", {"rounds", "1e12"}, "rounds must be in [1, "},
           {"tornado", {"rounds", "0"}, "rounds must be in [1, "},
           {"allreduce", {"groups", "-5e9"}, "groups must be in [1, "},
           {"allreduce", {"iterations", "3e9"}, "iterations must be in [1, "},
           {"gpu_cluster", {"iterations", "4294967297"}, "iterations must be in [1, "},
           {"gpu_cluster", {"jobs", "1e30"}, "jobs must be in [1, 255]"},
           {"gpu_cluster", {"pp-stages", "4294967298"}, "pp-stages must be in [2, 255]"},
           {"gpu_cluster", {"microbatches", "256"}, "microbatches must be in [1, 255]"},
           {"gpu_cluster", {"buckets", "-1e30"}, "buckets must be in [1, "},
           {"gpu_cluster", {"gpus-per-host", "1e30"}, "gpus-per-host must be in [1, "},
           {"gpu_cluster", {"nvlink-gbps", "1e30"}, "nvlink-gbps must be positive and fit"},
       }) {
    SCOPED_TRACE(std::string(c.scenario) + " " + c.opt.first + "=" + c.opt.second);
    auto bad = ScenarioRegistry::instance().create(c.scenario);
    err.clear();
    ASSERT_TRUE(bad->set_options({c.opt}, &err)) << err;
    EXPECT_FALSE(bad->init(env, &err));
    EXPECT_NE(err.find(c.named), std::string::npos) << err;
  }
  // The smallest valid pools: every host (0), and 2 per DC.
  for (const char* name : {"poisson", "rpc_churn"}) {
    for (const char* active : {"0", "4"}) {
      SCOPED_TRACE(std::string(name) + " active-hosts=" + active);
      auto ok = ScenarioRegistry::instance().create(name);
      ASSERT_TRUE(ok->set_options({{"active-hosts", active}, {"duration-ms", "0.05"}}, &err));
      EXPECT_TRUE(ok->init(env, &err)) << err;
    }
  }
}

TEST(ScenarioOpts, FlowFinishTimeIsStartPlusDuration) {
  FlowResult r{};
  r.start_time = 5 * kMicrosecond;
  r.completion_time = 7 * kMicrosecond;  // the FCT *duration*
  EXPECT_EQ(flow_finish_time(r), 12 * kMicrosecond);
}

// ------------------------------------------------------ open-loop library

/// The environment uno_sim --quick resolves scenarios against on `ex`.
ScenarioEnv quick_env(Experiment& ex) {
  ScenarioEnv env;
  env.hosts = HostSpace{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};
  env.seed = ex.config().seed;
  env.host_rate = ex.config().uno.link_rate;
  env.quick = true;
  return env;
}

/// A registry open-loop scenario, resolved against `env`.
std::unique_ptr<OpenLoopScenario> open_loop(const std::string& name, const ScenarioEnv& env,
                                            const std::vector<ScenarioOption>& kvs = {}) {
  std::unique_ptr<Scenario> sc = ScenarioRegistry::instance().create(name);
  std::string err;
  EXPECT_TRUE(sc->set_options(kvs, &err)) << err;
  EXPECT_TRUE(sc->init(env, &err)) << err;
  auto* plan = dynamic_cast<OpenLoopScenario*>(sc.get());
  EXPECT_NE(plan, nullptr) << name;
  if (plan == nullptr) return nullptr;
  sc.release();
  return std::unique_ptr<OpenLoopScenario>(plan);
}

/// Every flow a plan's cursor yields, drawn in order.
std::vector<FlowSpec> drain(OpenLoopScenario& plan) {
  std::vector<FlowSpec> specs;
  for (FlowSpec s; plan.next_spec(&s);) specs.push_back(s);
  return specs;
}

TEST(ScenarioOpenLoop, ReportsEveryFlowItSpawns) {
  const std::string trace = ::testing::TempDir() + "uno_open_loop_replay.csv";
  std::ofstream(trace) << "0,17,1048576,0\n3,21,4096,250\n1,2,65536,10\n";
  for (const std::string name : {"poisson", "incast", "permutation", "replay", "tornado",
                                 "rpc_churn"}) {
    SCOPED_TRACE(name);
    ExperimentConfig cfg;
    cfg.fattree_k = 4;
    Experiment ex(cfg);
    std::vector<ScenarioOption> kvs;
    if (name == "replay") kvs = {{"file", trace}};
    // The plan's size, from a second instance's cursor.
    const std::size_t plan = drain(*open_loop(name, quick_env(ex), kvs)).size();
    ASSERT_GT(plan, 0u);
    auto sc = open_loop(name, quick_env(ex), kvs);
    ScenarioHarness harness(ex, *sc);
    harness.begin();
    EXPECT_GT(ex.flows_spawned(), 0u);
    // rpc_churn's 1 ms of arrivals streams in: begin() spawns only the
    // first sync window (plus one flow ahead).
    if (name == "rpc_churn") {
      EXPECT_LT(ex.flows_spawned(), plan);
      EXPECT_FALSE(sc->done());
    }
    // A deadline inside the arrival window still spawns every planned flow.
    harness.run(kMillisecond / 2);
    EXPECT_TRUE(sc->done());
    EXPECT_EQ(ex.flows_spawned(), plan);
    MetricRegistry m;
    sc->report(m);
    EXPECT_EQ(m.counter("scenario." + name + ".flows"), plan);
  }
  std::remove(trace.c_str());
}

/// rpc_churn's plan as the eager generator that preceded its cursor drew it
/// (all hosts take part): the reference the cursor must reproduce.
std::vector<FlowSpec> eager_rpc_churn(const HostSpace& hosts, std::uint64_t seed, double load,
                                      double inter_frac, Time duration, Bandwidth host_rate) {
  const int per_dc = hosts.hosts_per_dc;
  const EmpiricalCdf sizes = EmpiricalCdf::google_rpc();
  const double aggregate_Bps =
      load * static_cast<double>(hosts.total()) * static_cast<double>(host_rate) / 8.0;
  const double mean_gap_ps = static_cast<double>(kSecond) / (aggregate_Bps / sizes.mean());
  std::vector<FlowSpec> specs;
  Rng rng = Rng::stream(seed, 707);
  double t = rng.exponential(mean_gap_ps);
  while (t < static_cast<double>(duration)) {
    const int sdc = static_cast<int>(rng.uniform_below(hosts.num_dcs));
    int ddc = sdc;
    if (hosts.num_dcs > 1 && rng.uniform() < inter_frac)
      ddc = (sdc + 1 +
             (hosts.num_dcs > 2 ? static_cast<int>(rng.uniform_below(hosts.num_dcs - 1))
                                : 0)) %
            hosts.num_dcs;
    int src = sdc * hosts.hosts_per_dc + static_cast<int>(rng.uniform_below(per_dc));
    int dst = ddc * hosts.hosts_per_dc + static_cast<int>(rng.uniform_below(per_dc));
    while (dst == src)
      dst = ddc * hosts.hosts_per_dc + static_cast<int>(rng.uniform_below(per_dc));
    const auto size = static_cast<std::uint64_t>(std::max(1.0, sizes.sample(rng)));
    specs.push_back({src, dst, size, static_cast<Time>(t), ddc != sdc});
    t += rng.exponential(mean_gap_ps);
  }
  return specs;
}

void expect_same_specs(const std::vector<FlowSpec>& got, const std::vector<FlowSpec>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src) << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << i;
    EXPECT_EQ(got[i].size_bytes, want[i].size_bytes) << i;
    EXPECT_EQ(got[i].start_time, want[i].start_time) << i;
    EXPECT_EQ(got[i].interdc, want[i].interdc) << i;
  }
}

TEST(ScenarioOpenLoop, StreamedPlansEqualTheEagerLists) {
  // poisson merges its two classes' streams and rpc_churn draws its one as
  // the run needs them; both must yield the eager generators' lists.
  for (int dcs : {2, 4}) {
    for (std::uint64_t seed : {1u, 6u, 29u}) {
      SCOPED_TRACE("dcs=" + std::to_string(dcs) + " seed=" + std::to_string(seed));
      ScenarioEnv env;
      env.hosts = HostSpace{16, dcs};
      env.seed = seed;

      PoissonConfig pc;
      pc.load = 0.6;
      pc.duration = kMillisecond;
      pc.active_hosts = 0;
      pc.host_rate = env.host_rate;
      pc.seed = seed;
      const std::vector<FlowSpec> mix = make_poisson_mixed(
          env.hosts, EmpiricalCdf::websearch().scaled(1.0 / 32.0),
          EmpiricalCdf::alibaba_wan().scaled(1.0 / 32.0), pc);
      ASSERT_GT(mix.size(), 100u);
      expect_same_specs(
          drain(*open_loop("poisson", env,
                           {{"load", "0.6"}, {"duration-ms", "1"}, {"active-hosts", "0"}})),
          mix);

      const std::vector<FlowSpec> churn =
          eager_rpc_churn(env.hosts, seed, 0.3, 0.25, kMillisecond / 2, env.host_rate);
      ASSERT_GT(churn.size(), 100u);
      expect_same_specs(drain(*open_loop("rpc_churn", env,
                                         {{"load", "0.3"},
                                          {"inter-frac", "0.25"},
                                          {"duration-ms", "0.5"}})),
                        churn);
    }
  }
}

/// Digest of a harness run of `name` under uno_sim --quick's configuration.
RunDigest run_quick(const std::string& name, const std::vector<ScenarioOption>& kvs,
                    int shards, Time deadline, std::size_t* spawned = nullptr,
                    bool* done = nullptr) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.shards = shards;
  Experiment ex(cfg);
  auto sc = ScenarioRegistry::instance().create(name);
  std::string err;
  EXPECT_TRUE(sc->set_options(kvs, &err)) << err;
  EXPECT_TRUE(sc->init(quick_env(ex), &err)) << err;
  ScenarioHarness harness(ex, *sc);
  const bool all_done = harness.run(deadline);
  if (spawned != nullptr) *spawned = ex.flows_spawned();
  if (done != nullptr) *done = all_done;
  return ex.digest();
}

/// Spawns its whole list at start(), each flow's start event scheduled
/// then: the eager reference a streamed list must match.
class EagerList final : public Scenario {
 public:
  explicit EagerList(std::vector<FlowSpec> specs)
      : Scenario("eager", "spawn every flow at start"), specs_(std::move(specs)) {}
  void start(ScenarioHarness& h) override {
    for (const FlowSpec& s : specs_) h.spawn(s);
  }

 private:
  std::vector<FlowSpec> specs_;
};

/// Ties, starts exactly on sync points (the grid is 224 us at k=4) and
/// starts between them, intra- and inter-DC, in start-time order.
std::vector<FlowSpec> tie_heavy_list() {
  std::vector<FlowSpec> specs;
  int row = 0;
  for (double start_us : {0.0, 0.0, 0.0, 100.0, 224.0, 224.0, 224.0, 300.5, 448.0, 448.0,
                          672.0, 672.0, 672.0, 700.0, 896.0, 1120.0, 1120.0}) {
    for (int k = 0; k < 3; ++k, ++row) {
      const int src = (row * 7) % 32;
      const int dst = (src + 1 + (row % 5 == 0 ? 16 : row % 3)) % 32;
      specs.push_back({src, dst, 4096ull * (1 + row % 9),
                       static_cast<Time>(start_us * static_cast<double>(kMicrosecond)),
                       src / 16 != dst / 16});
    }
  }
  return specs;
}

TEST(ScenarioOpenLoop, StreamedMatchesSpawnAll) {
  // Streaming spawns each flow a window ahead, and its start must dispatch
  // where spawning the whole list at t=0 puts it.
  const std::string trace = ::testing::TempDir() + "uno_streamed_replay.csv";
  {
    std::ofstream out(trace);
    for (const FlowSpec& s : tie_heavy_list())
      out << s.src << "," << s.dst << "," << s.size_bytes << ","
          << to_microseconds(s.start_time) << "\n";
  }
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExperimentConfig cfg;
    cfg.fattree_k = 4;
    cfg.shards = shards;
    Experiment eager(cfg);
    ASSERT_EQ(eager.sync_chunk(), 224 * kMicrosecond);
    EagerList list(tie_heavy_list());
    ScenarioHarness h(eager, list);
    ASSERT_TRUE(h.run(20 * kSecond));
    const RunDigest want = eager.digest();
    EXPECT_EQ(want.flows, 51u);
    EXPECT_EQ(run_quick("replay", {{"file", trace}}, shards, 20 * kSecond), want);
  }
  std::remove(trace.c_str());
}

TEST(ScenarioOpenLoop, GapLongerThanEveryFlowDoesNotStall) {
  // Three rounds 2 ms apart of flows that finish in well under 2 ms: the
  // flow spawned ahead keeps the driver loop going through each gap.
  std::size_t spawned = 0;
  bool done = false;
  const RunDigest d = run_quick(
      "tornado",
      {{"gap-us", "2000"}, {"size-mb", "0.01"}, {"rounds", "3"}, {"inter-frac", "0"}}, 1,
      kSecond, &spawned, &done);
  EXPECT_TRUE(done);
  EXPECT_EQ(spawned, 96u);
  EXPECT_EQ(d.line(),
            "flows=96 events=5632 sim_end=4032000000 fct_sum=1176825600 "
            "fct_hash=3282179653475563");
}

TEST(ScenarioOpenLoop, DeadlineCountsEveryPlannedFlow) {
  // uno_sim --scenario rpc_churn --quick --deadline-ms 1 prints "completed
  // 17019/19087 flows (DEADLINE HIT)". At 0.3 ms most of the plan is not
  // spawned yet when the run stops; run() spawns the rest, which never
  // start.
  for (const auto& [deadline, completed] :
       {std::pair{kMillisecond, 17019u}, std::pair{3 * kMillisecond / 10, 4830u}}) {
    SCOPED_TRACE(to_milliseconds(deadline));
    std::size_t spawned = 0;
    bool done = true;
    const RunDigest d = run_quick("rpc_churn", {}, 1, deadline, &spawned, &done);
    EXPECT_FALSE(done);
    EXPECT_EQ(spawned, 19087u);
    EXPECT_EQ(d.flows, completed);
    EXPECT_EQ(d.sim_end, deadline);
  }
}

// ----------------------------------------------------- harness determinism

/// One full scenario run at a given shard count; digest of the canonical
/// FCT record (what `uno_sim --digest` prints, and more).
RunDigest run_scenario(const std::string& name,
                       const std::vector<ScenarioOption>& kvs, int shards,
                       int num_dcs = 2) {
  ExperimentConfig cfg;
  cfg.seed = 1;
  cfg.fattree_k = 4;
  cfg.shards = shards;
  cfg.uno.num_dcs = num_dcs;
  Experiment ex(cfg);

  auto sc = ScenarioRegistry::instance().create(name);
  EXPECT_NE(sc, nullptr) << name;
  std::string err;
  EXPECT_TRUE(sc->set_options(kvs, &err)) << err;
  ScenarioEnv env;
  env.hosts = HostSpace{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};
  env.seed = cfg.seed;
  env.host_rate = cfg.uno.link_rate;
  EXPECT_TRUE(sc->init(env, &err)) << err;

  ScenarioHarness harness(ex, *sc);
  EXPECT_TRUE(harness.run(20 * kSecond)) << name << " did not complete";
  return ex.digest();
}

void expect_shard_identical(const std::string& name,
                            const std::vector<ScenarioOption>& kvs,
                            int num_dcs = 2) {
  const RunDigest base = run_scenario(name, kvs, 1, num_dcs);
  EXPECT_GT(base.flows, 0u) << name;
  for (int shards : {2, 4}) {
    SCOPED_TRACE(name + " shards=" + std::to_string(shards));
    EXPECT_EQ(run_scenario(name, kvs, shards, num_dcs), base);
  }
  // Repeat-run identity: per-run content is a pure function of the cell, so
  // batch --jobs parallelism (independent runs on worker threads) cannot
  // perturb it.
  EXPECT_EQ(run_scenario(name, kvs, 1, num_dcs), base);
}

TEST(ScenarioDeterminism, AllreduceShardIdentical) {
  expect_shard_identical(
      "allreduce", {{"groups", "4"}, {"size-mb", "4"}, {"iterations", "2"}});
}

TEST(ScenarioDeterminism, GpuClusterShardIdentical) {
  expect_shard_identical("gpu_cluster",
                         {{"jobs", "2"}, {"pp-stages", "2"}, {"microbatches", "2"},
                          {"buckets", "2"}, {"iterations", "1"},
                          {"act-mb", "1"}, {"size-mb", "8"}});
}

TEST(ScenarioDeterminism, RpcChurnShardIdentical) {
  expect_shard_identical(
      "rpc_churn", {{"load", "0.1"}, {"duration-ms", "0.5"}, {"active-hosts", "8"}});
}

TEST(ScenarioDeterminism, TornadoShardIdenticalAtFourDcs) {
  expect_shard_identical(
      "tornado", {{"rounds", "2"}, {"size-mb", "1"}, {"inter-frac", "0.25"}},
      /*num_dcs=*/4);
}

TEST(ScenarioDeterminism, ClosedLoopMetricsReported) {
  ExperimentConfig cfg;
  cfg.seed = 1;
  cfg.fattree_k = 4;
  Experiment ex(cfg);
  auto sc = ScenarioRegistry::instance().create("allreduce");
  std::string err;
  ASSERT_TRUE(sc->set_options(
      {{"groups", "2"}, {"size-mb", "4"}, {"iterations", "3"}}, &err));
  ScenarioEnv env;
  env.hosts = HostSpace{16, 2};
  ASSERT_TRUE(sc->init(env, &err)) << err;
  ScenarioHarness harness(ex, *sc);
  ASSERT_TRUE(harness.run(20 * kSecond));
  // 3 iterations x 2 groups x 2 phases x 2 directions.
  EXPECT_EQ(harness.spawned(), 24u);
  MetricRegistry m;
  sc->report(m);
  EXPECT_EQ(m.counter("scenario.allreduce.iterations"), 3u);
  EXPECT_GT(m.gauge("scenario.allreduce.mean_iter_us"), 0);
}

// ------------------------------------------------------- allreduce driver

TEST(Allreduce, IterationsRunSequentially) {
  ExperimentConfig cfg;
  cfg.seed = 1;
  cfg.fattree_k = 4;
  Experiment ex(cfg);
  AllreduceScenario ar;
  std::string err;
  ASSERT_TRUE(ar.set_options({{"groups", "2"}, {"size-mb", "1"}, {"iterations", "3"}},
                             &err));
  ScenarioEnv env;
  env.hosts = HostSpace{16, 2};
  ASSERT_TRUE(ar.init(env, &err)) << err;
  ScenarioHarness harness(ex, ar);
  ASSERT_TRUE(harness.run(20 * kSecond));
  EXPECT_EQ(ar.iteration_times().size(), 3u);

  // Iteration i is flows 8i+1..8i+8 (ids follow spawn order): 2 groups x
  // 2 phases x 2 directions, every one an inter-DC chunk of the gradient.
  constexpr std::size_t kPerIteration = 8;
  ASSERT_EQ(ex.fct().count(), 3 * kPerIteration);
  Time last_finish[3] = {0, 0, 0};
  Time first_start[3] = {kTimeInfinity, kTimeInfinity, kTimeInfinity};
  for (const FlowResult& r : ex.fct().results()) {
    EXPECT_TRUE(r.interdc);
    EXPECT_EQ(r.size_bytes, (1u << 20) / 2);
    const std::size_t i = (r.id - 1) / kPerIteration;
    ASSERT_LT(i, 3u);
    last_finish[i] = std::max(last_finish[i], flow_finish_time(r));
    first_start[i] = std::min(first_start[i], r.start_time);
  }
  for (int i = 0; i + 1 < 3; ++i)
    EXPECT_GE(first_start[i + 1], last_finish[i]) << "iteration " << i + 1;
}

TEST(Allreduce, IdealTimeIsCutSerializationPlusRtt) {
  AllreduceScenario ar;
  std::string err;
  ASSERT_TRUE(ar.set_options({{"size-mb", "100"}}, &err));
  ScenarioEnv env;
  env.hosts = HostSpace{16, 2};
  ASSERT_TRUE(ar.init(env, &err)) << err;
  const Time ideal = ar.ideal_iteration_time(800 * kGbps, 2 * kMillisecond);
  // 200 MiB over 800 Gbps ~ 2.097 ms, plus 2 ms RTT.
  EXPECT_NEAR(to_milliseconds(ideal), 4.1, 0.2);
}

// ------------------------------------------------------------ stall rule

/// Spawns one flow, never reports done, and reacts to nothing.
class StallingScenario final : public Scenario {
 public:
  StallingScenario() : Scenario("stalling", "one flow, then nothing, never done") {}
  void start(ScenarioHarness& h) override { h.spawn({0, 1, 64 * 1024, 0, false}); }
  bool done() const override { return false; }
};

TEST(ScenarioHarness, StallStopsWithinOneChunkOfTheLastFinish) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  Experiment ex(cfg);
  StallingScenario sc;
  std::string err;
  ScenarioEnv env;
  env.hosts = HostSpace{16, 2};
  ASSERT_TRUE(sc.init(env, &err)) << err;
  ScenarioHarness harness(ex, sc);
  EXPECT_FALSE(harness.run(kSecond));
  ASSERT_EQ(ex.fct().count(), 1u);
  const Time finish = flow_finish_time(ex.fct().results()[0]);
  // Stopped at the first sync point after the finish, not at the deadline:
  // one chunk is max(16 intra RTTs, 100 us), so below their sum.
  EXPECT_GE(ex.now(), finish);
  EXPECT_LT(ex.now() - finish, 16 * cfg.uno.intra_rtt + 100 * kMicrosecond);
}

TEST(ScenarioHarness, SpawnReservedKeepsTheReservationsPlace) {
  // Two probes fire at a reserved flow's start time: one scheduled before
  // begin() reserves the list's starts, one after it but before the flow
  // is spawned. The start dispatches between them, where spawning it at
  // begin() would have put it.
  struct Probe final : EventHandler {
    FlowSender* flow = nullptr;
    bool saw_started = false;
    void on_event(std::uint64_t) override { saw_started = flow->started(); }
  };
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  Experiment ex(cfg);
  // Three windows out: begin() spawns only the first flow, the one ahead.
  const Time at = 3 * ex.sync_chunk();
  OpenLoopScenario list({{0, 12, 4096, at, false}, {1, 13, 4096, at, false}});
  ScenarioHarness h(ex, list);
  std::vector<FlowSender*> senders;
  h.on_spawn([&senders](FlowSender& s) { senders.push_back(&s); });
  Probe before, after;
  ex.eq().schedule_at(at, &before);
  h.begin();
  ex.eq().schedule_at(at, &after);
  EXPECT_FALSE(list.done());
  ASSERT_EQ(ex.flows_spawned(), 1u);
  h.run(at - ex.sync_chunk() / 2);
  ASSERT_EQ(senders.size(), 2u);
  EXPECT_TRUE(list.done());
  EXPECT_EQ(senders[0]->params().id, 1u);
  EXPECT_EQ(senders[1]->params().id, 2u);
  before.flow = senders[0];
  after.flow = senders[1];
  ASSERT_TRUE(h.run(kSecond));
  EXPECT_FALSE(before.saw_started);
  EXPECT_TRUE(after.saw_started);
}

TEST(ScenarioHarness, RunResumesWhereItsDeadlineStopped) {
  // A list run to a deadline and then on gives the digest of one run, also
  // where the deadline is off the sync grid, or after the last completion
  // but before the grid point one run would have stopped at.
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExperimentConfig cfg;
    cfg.fattree_k = 4;
    cfg.shards = shards;
    Experiment whole(cfg);
    OpenLoopScenario list(tie_heavy_list());
    ASSERT_TRUE(ScenarioHarness(whole, list).run(20 * kSecond));
    const RunDigest want = whole.digest();
    const Time last_finish = flow_finish_time(whole.fct().results().back());
    ASSERT_LT(last_finish + kMicrosecond, want.sim_end);
    for (const Time split : {37 * kMicrosecond, 448 * kMicrosecond, 1300 * kMicrosecond,
                             last_finish + kMicrosecond}) {
      SCOPED_TRACE(to_microseconds(split));
      Experiment ex(cfg);
      OpenLoopScenario resumed(tie_heavy_list());
      ScenarioHarness h(ex, resumed);
      EXPECT_EQ(h.run(split), split > last_finish);
      EXPECT_EQ(ex.now(), split);
      EXPECT_EQ(ex.flows_spawned(), want.flows);
      EXPECT_TRUE(h.run(20 * kSecond));
      EXPECT_EQ(ex.digest(), want);
    }
  }
}

TEST(ScenarioHarness, RunContinuesAfterTheClockMovedOutsideIt) {
  // A bare Experiment::run_until may move the clock past the harness's next
  // grid point: after begin(), between runs, or after a finished run. The
  // next run() continues from the first grid point after the clock, and a
  // list whose flows were all spawned by then gives the digest of one run.
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExperimentConfig cfg;
    cfg.fattree_k = 4;
    cfg.shards = shards;
    const auto one_run = [&cfg](std::vector<FlowSpec> specs) {
      Experiment ex(cfg);
      OpenLoopScenario list(std::move(specs));
      EXPECT_TRUE(ScenarioHarness(ex, list).run(20 * kSecond));
      return std::pair{ex.digest(), flow_finish_time(ex.fct().results().back())};
    };
    std::vector<FlowSpec> at_zero;  // all spawned by begin()
    for (const FlowSpec& s : tie_heavy_list())
      if (s.start_time == 0) at_zero.push_back(s);
    const auto [want_zero, zero_finish] = one_run(at_zero);
    const auto [want, last_finish] = one_run(tie_heavy_list());

    Experiment ex(cfg);
    const Time chunk = ex.sync_chunk();
    ASSERT_GT(zero_finish, 3 * chunk + chunk / 2);
    OpenLoopScenario zero_list(at_zero);
    ScenarioHarness h(ex, zero_list);
    h.begin();
    ex.run_until(3 * chunk + chunk / 2);
    EXPECT_TRUE(h.run(20 * kSecond));
    EXPECT_EQ(ex.digest(), want_zero);

    Experiment ex2(cfg);
    OpenLoopScenario list(tie_heavy_list());
    ScenarioHarness h2(ex2, list);
    EXPECT_FALSE(h2.run(485 * kMicrosecond));
    ex2.run_until(ex2.now() + 2 * chunk + chunk / 2);
    ASSERT_LT(ex2.now(), last_finish);
    EXPECT_TRUE(h2.run(20 * kSecond));
    EXPECT_EQ(ex2.digest(), want);
    const Time end = ex2.now();
    ex2.run_until(end + 10 * chunk + chunk / 2);
    EXPECT_TRUE(h2.run(20 * kSecond));
    EXPECT_EQ(ex2.now(), end + 11 * chunk);
  }
}

/// An open-loop list that counts the completions its harness hands it.
class CountedList final : public OpenLoopScenario {
 public:
  using OpenLoopScenario::OpenLoopScenario;
  void on_flow_complete(const FlowResult&, std::uint64_t, ScenarioHarness&) override {
    ++completions;
  }
  std::size_t completions = 0;
};

TEST(ScenarioHarness, SuccessiveHarnessesShareOneExperiment) {
  // Two lists in turn on one Experiment, every flow starting in the future:
  // the second harness reserves afresh once the first reservation is spent,
  // hands its scenario only its own completions, and dispatches each start
  // where spawning the second list eagerly would have.
  struct Probe final : EventHandler {
    std::vector<FlowSender*> flows;
    std::size_t started = 0;
    void on_event(std::uint64_t) override {
      for (const FlowSender* f : flows) started += f->started() ? 1 : 0;
    }
  };
  const auto run = [](bool eager, Probe* probe) {
    ExperimentConfig cfg;
    cfg.fattree_k = 4;
    Experiment ex(cfg);
    const Time w = ex.sync_chunk();
    CountedList first({{0, 12, 64 << 10, w / 2, false}, {1, 17, 64 << 10, w / 2, true},
                       {2, 13, 64 << 10, 3 * w, false}, {3, 20, 64 << 10, 5 * w, true}});
    EXPECT_TRUE(ScenarioHarness(ex, first).run(kSecond));
    EXPECT_EQ(first.completions, 4u);

    const Time t = ex.now() + 3 * w;
    const std::vector<FlowSpec> second{{4, 14, 64 << 10, t, false},
                                       {5, 21, 64 << 10, t, true}};
    EagerList eager_list(second);
    CountedList streamed(second);
    ScenarioHarness h(ex, eager ? static_cast<Scenario&>(eager_list) : streamed);
    h.on_spawn([probe](FlowSender& s) { probe->flows.push_back(&s); });
    ex.eq().schedule_at(t, probe);  // before the second list's starts
    EXPECT_TRUE(h.run(kSecond));
    EXPECT_EQ(ex.flows_spawned(), 6u);
    if (!eager) {
      EXPECT_EQ(streamed.completions, 2u);
    }
    return ex.digest();
  };
  Probe eager_probe, streamed_probe;
  const RunDigest want = run(true, &eager_probe);
  EXPECT_EQ(run(false, &streamed_probe), want);
  EXPECT_EQ(eager_probe.started, 0u);
  EXPECT_EQ(streamed_probe.started, 0u);
}

/// An open-loop list that keeps the id of every completion its harness
/// hands it, in order.
class RecordingList final : public OpenLoopScenario {
 public:
  using OpenLoopScenario::OpenLoopScenario;
  void on_flow_complete(const FlowResult& r, std::uint64_t, ScenarioHarness&) override {
    delivered.push_back(r.id);
  }
  std::vector<std::uint64_t> delivered;
};

TEST(ScenarioHarness, RecordIsCanonicalAtEverySyncPoint) {
  // Each step appends its completions sorted, so the record is canonical
  // after every run(t), off the sync grid too, and the scenario is handed
  // the records in the record's own order.
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExperimentConfig cfg;
    cfg.fattree_k = 4;
    cfg.shards = shards;
    Experiment ex(cfg);
    ASSERT_EQ(ex.shards(), shards);
    RecordingList list(drain(*open_loop(
        "rpc_churn", quick_env(ex),
        {{"load", "0.3"}, {"inter-frac", "0.3"}, {"duration-ms", "0.5"}})));
    ScenarioHarness h(ex, list);
    std::size_t steps = 0;
    for (Time t = 137 * kMicrosecond; !h.run(t); t += 137 * kMicrosecond) {
      ASSERT_LT(t, kSecond);
      const std::span<const FlowResult> record = ex.fct().results();
      ASSERT_TRUE(std::is_sorted(record.begin(), record.end(), finishes_before)) << t;
      ++steps;
    }
    EXPECT_GT(steps, 5u);
    const std::span<const FlowResult> record = ex.fct().results();
    EXPECT_TRUE(std::is_sorted(record.begin(), record.end(), finishes_before));
    ASSERT_EQ(record.size(), ex.flows_spawned());
    ASSERT_EQ(list.delivered.size(), record.size());
    for (std::size_t i = 0; i < record.size(); ++i)
      ASSERT_EQ(list.delivered[i], record[i].id) << i;
  }
}

TEST(ScenarioHarness, OverlappingReservationThrows) {
  // A harness begun while another's reserved flows are still unspawned
  // would hand them numbers already given to other events.
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  Experiment ex(cfg);
  const Time far = 10 * ex.sync_chunk();
  OpenLoopScenario first({{0, 12, 4096, far, false}, {1, 13, 4096, far, false}});
  ScenarioHarness a(ex, first);
  a.begin();
  OpenLoopScenario second({{2, 14, 4096, far, false}});
  ScenarioHarness b(ex, second);
  EXPECT_THROW(b.begin(), std::logic_error);
}

}  // namespace
}  // namespace uno
