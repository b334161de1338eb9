// uno_sim — command-line driver for ad-hoc simulations.
//
// Runs any catalogued scheme against any registered workload scenario on a
// configurable multi-DC topology and prints an FCT summary. Examples:
//
//   uno_sim --scheme uno --scenario poisson --scenario-opt load=0.4,duration-ms=5
//   uno_sim --scheme gemini --scenario incast --scenario-opt flows=8,size-mb=16
//   uno_sim --scheme uno --scenario gpu_cluster --scenario-opt jobs=4,pp-stages=4
//   uno_sim --scheme uno --scenario tornado --scenario-opt stride=3,inter-frac=0.5
//   uno_sim --scheme uno --scenario allreduce --quick --digest
//   uno_sim --scheme uno --rtt-ratio 512 --fault "0ms down border:0; 0ms down border:1"
//   uno_sim --scheme uno --fault "2ms down border:0"
//   uno_sim --scheme uno --trace out.json --trace-categories cc,queue
//
// Workloads come from the Scenario registry (workload/scenario.hpp):
// --list-scenarios prints every registered scenario with its scoped option
// table, and --scenario-opt key=value[,key=value...] is the one way to set
// those options. A scenario option given as a top-level flag exits 2 with a
// message naming --scenario-opt.
//
// Every flag lives in one declarative OptionSet table shared with uno_farm
// (core/sim_options.hpp): --help is generated from it, unknown flags are
// rejected with a nearest-match suggestion. Run with --help for the full
// list. Seeds, sweeps and grids are uno_farm specs: each farm cell is one
// `uno_sim --one-cell FILE` run, which writes the run's result document (the
// one --metrics writes) to FILE and exits 0 once it is written (see
// tools/uno_farm.cpp).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/build_info.hpp"
#include "core/experiment.hpp"
#include "core/sim_options.hpp"
#include "faults/plan.hpp"
#include "obs/trace.hpp"
#include "stats/resilience.hpp"
#include "stats/summary.hpp"
#include "workload/scenario.hpp"
#include "workload/traffic.hpp"

using namespace uno;

namespace {

/// --trace / --trace-categories / --trace-ring / --metrics / --one-cell,
/// resolved once.
struct ObsOptions {
  std::string trace_file;
  std::string metrics_file;
  std::string cell_file;
  std::uint32_t categories = kTraceAllCategories;
  std::size_t ring = 1 << 10;
  Time depth_interval = 4 * kMicrosecond;

  ExperimentConfig::TraceOptions to_config() const {
    ExperimentConfig::TraceOptions t;
    t.enabled = !trace_file.empty();
    t.categories = categories;
    t.ring_capacity = ring;
    t.depth_sample_interval = depth_interval;
    return t;
  }
};

bool parse_obs(const OptionSet& opts, ObsOptions* obs, std::string* err) {
  obs->trace_file = opts.str("trace");
  obs->metrics_file = opts.str("metrics");
  obs->cell_file = opts.str("one-cell");
  obs->ring = static_cast<std::size_t>(opts.num("trace-ring"));
  obs->depth_interval =
      static_cast<Time>(opts.num("trace-depth-us") * static_cast<double>(kMicrosecond));
  return Tracer::parse_categories(opts.str("trace-categories"), &obs->categories, err);
}

ExperimentConfig build_config(const OptionSet& opts, const FaultPlan& faults,
                              const ObsOptions& obs) {
  ExperimentConfig cfg;
  cfg.scheme = SchemeSpec::named(opts.str("scheme"));  // checked by validate_sim_options
  cfg.seed = static_cast<std::uint64_t>(opts.num("seed"));
  cfg.shards = static_cast<int>(opts.num("shards"));
  cfg.uno.fattree_k = static_cast<int>(opts.num("k"));
  // The smoke preset shrinks the topology unless the user sized it.
  if (opts.flag("quick") && !opts.has("k")) cfg.uno.fattree_k = 4;
  cfg.uno.num_dcs = static_cast<int>(opts.num("dcs"));
  cfg.uno.cross_links = static_cast<int>(opts.num("cross-links"));
  cfg.uno.ec_data = static_cast<int>(opts.num("ec-data"));
  cfg.uno.ec_parity = static_cast<int>(opts.num("ec-parity"));
  if (opts.has("rtt-ratio") && opts.num("rtt-ratio") > 0)
    cfg.uno.inter_rtt =
        static_cast<Time>(opts.num("rtt-ratio") * static_cast<double>(cfg.uno.intra_rtt));
  if (opts.has("cross-rtt")) {
    // Validated in main() by validate_sim_options; a failure here would be
    // a programming error, so the result is applied unconditionally.
    std::string err;
    parse_cross_rtt(opts.str("cross-rtt"), cfg.uno.num_dcs, &cfg.uno.inter_rtt_matrix,
                    &err);
  }
  cfg.faults = faults;
  cfg.trace = obs.to_config();
  return cfg;
}

/// Create, configure, and init the run's scenario (its name was checked in
/// main()) from its --scenario-opt assignments.
std::unique_ptr<Scenario> make_scenario(const OptionSet& opts, const ScenarioEnv& env,
                                        std::string* err) {
  const std::string& name = opts.str("scenario");
  std::unique_ptr<Scenario> sc = ScenarioRegistry::instance().create(name);
  std::vector<ScenarioOption> kvs;
  if (!parse_scenario_opts(opts.str("scenario-opt"), &kvs, err)) return nullptr;
  if (!sc->set_options(kvs, err) || !sc->init(env, err)) {
    *err = "scenario " + name + ": " + *err;
    return nullptr;
  }
  return sc;
}

/// The error for the first argument that names a scenario's option instead
/// of a uno_sim one, or "" when none does: scenario options are set only
/// through --scenario-opt.
std::string scenario_flag_error(int argc, char** argv, const OptionSet& opts) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string name = arg.substr(2);
    name = name.substr(0, name.find('='));
    if (opts.known(name)) continue;
    std::string owners;
    for (const std::string& scenario : registry.names())
      if (registry.create(scenario)->options().known(name))
        owners += (owners.empty() ? "" : ", ") + scenario;
    if (!owners.empty())
      return "unknown flag: --" + name + " is a scenario option (" + owners +
             "); set it with --scenario-opt " + name + "=VALUE";
  }
  return {};
}

/// Table-1 burst loss on every cross-DC link, scaled by --loss-scale.
void apply_loss_scale(Experiment& ex, std::uint64_t seed, double loss_scale) {
  if (loss_scale <= 0) return;
  BurstLoss::Params p = BurstLoss::table1_setup1();
  p.event_rate *= loss_scale;
  std::uint64_t stream = 900;
  for (int d = 0; d < ex.topo().num_dcs(); ++d)
    for (int peer = 0; peer < ex.topo().num_dcs(); ++peer)
      for (int j = 0; peer != d && j < ex.topo().cross_link_count(); ++j)
        ex.topo().cross_link(d, peer, j).set_loss_model(
            std::make_unique<BurstLoss>(p, Rng::stream(seed, stream++)));
}

/// A configured run, ready for its harness.
struct Run {
  std::unique_ptr<Experiment> ex;
  std::unique_ptr<Scenario> sc;
};

/// The setup both modes share (single run, farm cell): config, experiment,
/// fault-target check, WAN loss, scenario. False + *err on a configuration
/// error, which both modes report with exit 2 — so a fault whose target
/// matches nothing never runs (or caches) as a fault-free run.
bool set_up(const OptionSet& opts, const FaultPlan& faults, const ObsOptions& obs,
            Run* run, std::string* err) {
  run->ex = std::make_unique<Experiment>(build_config(opts, faults, obs));
  Experiment& ex = *run->ex;
  if (const FaultInjector* fi = ex.fault_injector(); fi && !fi->unmatched().empty()) {
    err->clear();
    for (const std::string& t : fi->unmatched()) {
      if (!err->empty()) *err += '\n';
      *err += "fault target matched nothing: " + t;
    }
    return false;
  }
  apply_loss_scale(ex, ex.config().seed, opts.num("loss-scale"));
  const ScenarioEnv env{{ex.topo().hosts_per_dc(), ex.topo().num_dcs()}, ex.config().seed,
                        ex.config().uno.link_rate, opts.flag("quick")};
  run->sc = make_scenario(opts, env, err);
  return run->sc != nullptr;
}

/// The run's one result document, which --metrics and --one-cell both
/// write: the experiment's counters and gauges, the scenario's own
/// scenario.<name>.* metrics, and `done`, 1 when every flow finished before
/// the deadline.
MetricRegistry run_document(const Experiment& ex, const Scenario& sc, bool done) {
  MetricRegistry m;
  ex.snapshot_metrics(m);
  sc.report(m);
  m.set_counter("done", done ? 1 : 0);
  return m;
}

/// Trace and result-document export for one finished run.
bool export_run(Experiment& ex, const Scenario& sc, bool done, const ObsOptions& obs,
                std::string* err) {
  if (!obs.trace_file.empty()) {
    if (ex.tracer() == nullptr || !ex.tracer()->write_chrome_trace(obs.trace_file)) {
      *err = "cannot write trace file: " + obs.trace_file;
      return false;
    }
  }
  if (obs.metrics_file.empty() && obs.cell_file.empty()) return true;
  const MetricRegistry doc = run_document(ex, sc, done);
  for (const std::string& path : {obs.metrics_file, obs.cell_file}) {
    if (!path.empty() && !doc.write_json(path)) {
      *err = "cannot write result file: " + path;
      return false;
    }
  }
  return true;
}

/// Farm-worker mode: run the single configured simulation and write its
/// result document. Exit-code contract (what uno_farm keys off):
/// 0 = result written (a deadline miss is still a result, done=0),
/// 2 = configuration error; any other exit means the worker died and the
/// attempt should be retried.
int run_one_cell(const OptionSet& opts, const FaultPlan& faults, const ObsOptions& obs) {
  Run run;
  std::string err;
  if (!set_up(opts, faults, obs, &run, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  ScenarioHarness harness(*run.ex, *run.sc);
  const bool done =
      harness.run(static_cast<Time>(opts.num("deadline-ms") * kMillisecond));
  if (!export_run(*run.ex, *run.sc, done, obs, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  OptionSet opts = make_sim_options();
  std::string err;
  if (!opts.parse(argc, argv, &err)) {
    const std::string scenario_err = scenario_flag_error(argc, argv, opts);
    std::fprintf(stderr, "%s\n", scenario_err.empty() ? err.c_str() : scenario_err.c_str());
    return 2;
  }
  if (opts.flag("help")) {
    std::fputs(opts.help_text().c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(ScenarioRegistry::instance().help_text().c_str(), stdout);
    return 0;
  }
  if (opts.flag("list-scenarios")) {
    std::fputs(ScenarioRegistry::instance().help_text().c_str(), stdout);
    return 0;
  }
  if (opts.flag("version")) {
    // First line is the canonical build id (what the farm hashes into every
    // cell's cache key); the rest is for humans.
    const BuildInfo& b = build_info();
    std::printf("%s\n", build_info_string().c_str());
    std::printf("  git:       %s\n  compiler:  %s\n  type:      %s\n", b.git.c_str(),
                b.compiler.c_str(), b.build_type.c_str());
    std::printf("  simd:      %s\n  trace:     %s\n  sanitize:  %s\n", b.simd.c_str(),
                b.trace.c_str(), b.sanitize.empty() ? "none" : b.sanitize.c_str());
    return 0;
  }

  // Check the scenario name, with the registry's did-you-mean, before the
  // topology is built.
  const std::string& scenario = opts.str("scenario");
  if (!ScenarioRegistry::instance().known(scenario)) {
    err = "unknown scenario: " + scenario;
    const std::string near = ScenarioRegistry::instance().suggest(scenario);
    if (!near.empty()) err += " (did you mean " + near + "?)";
    std::fprintf(stderr, "%s; see --list-scenarios\n", err.c_str());
    return 2;
  }

  ObsOptions obs;
  if (!parse_obs(opts, &obs, &err)) {
    std::fprintf(stderr, "bad --trace-categories: %s\n", err.c_str());
    return 2;
  }

  if (!validate_sim_options(opts, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }

  FaultPlan faults;
  if (!FaultPlan::parse(opts.str("fault"), &faults, &err)) {
    std::fprintf(stderr, "bad --fault: %s\n", err.c_str());
    return 2;
  }

  if (opts.has("one-cell")) return run_one_cell(opts, faults, obs);

  Run run;
  if (!set_up(opts, faults, obs, &run, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  Experiment& ex = *run.ex;
  const ExperimentConfig& cfg = ex.config();
  ScenarioHarness harness(ex, *run.sc);
  // With a fault plan active, track recovery: goodput per flow, sampled
  // periodically, with the pre-fault baseline snapshotted at the first
  // disruptive event. The tracker watches every flow from its spawn on,
  // which keeps the flow resident for the whole run.
  std::unique_ptr<ResilienceTracker> tracker;
  if (ex.fault_injector()) {
    const Time period =
        static_cast<Time>(opts.num("fault-sample-us") * kMicrosecond);
    tracker = std::make_unique<ResilienceTracker>(ex.eq(), period);
    harness.on_spawn([t = tracker.get()](FlowSender& s) { t->watch(&s); });
  }
  // Open-loop scenarios spawn their first window here and draw the rest as
  // the run reaches it.
  harness.begin();

  std::printf("scheme=%s scenario=%s hosts=%d inter-RTT=%.2fms", cfg.scheme.name.c_str(),
              run.sc->name().c_str(), ex.topo().num_hosts(),
              to_milliseconds(cfg.uno.inter_rtt));
  if (cfg.shards != 1) {
    std::printf(" shards=%d", ex.shards());
    if (ex.shards() == 1)
      std::printf(" (fault plans pin the run to one shard)");
  }
  std::printf("\n");

  if (tracker) {
    const Time onset = ex.fault_injector()->first_onset();
    if (onset != kTimeInfinity) tracker->note_fault(onset);
    tracker->start();
  }

  const Time deadline = static_cast<Time>(opts.num("deadline-ms") * kMillisecond);
  const bool done = harness.run(deadline);
  if (tracker) tracker->stop();

  Table t({"class", "count", "mean us", "p50 us", "p99 us", "max us", "mean slowdown"});
  for (auto [name, cls] :
       {std::pair{"all", FctCollector::Class::kAll}, {"intra", FctCollector::Class::kIntra},
        {"inter", FctCollector::Class::kInter}}) {
    const FctSummary s = ex.fct().summarize(cls);
    t.add_row({name, std::to_string(s.count), Table::fmt(s.mean_us, 1),
               Table::fmt(s.p50_us, 1), Table::fmt(s.p99_us, 1), Table::fmt(s.max_us, 1),
               Table::fmt(s.mean_slowdown, 2)});
  }
  t.print("flow completion times");
  std::printf("\ncompleted %zu/%zu flows%s | fabric drops=%llu trims=%llu | sim time %.2f ms\n",
              ex.flows_completed(), ex.flows_spawned(), done ? "" : " (DEADLINE HIT)",
              static_cast<unsigned long long>(ex.topo().total_drops()),
              static_cast<unsigned long long>(ex.topo().total_trims()),
              to_milliseconds(ex.now()));
  if (opts.flag("digest")) std::printf("digest: %s\n", ex.digest().line().c_str());

  if (tracker) {
    const ResilienceSummary rs = tracker->summarize();
    std::printf("faults: events=%zu actions=%llu onset=%.3fms\n", cfg.faults.size(),
                static_cast<unsigned long long>(ex.fault_injector()->actions()),
                to_milliseconds(tracker->fault_onset()));
    std::printf(
        "resilience: affected=%zu recovered=%zu mean_recovery_us=%.1f "
        "max_recovery_us=%.1f reroutes=%llu retransmits=%llu fec_masked=%llu\n",
        rs.flows_affected, rs.flows_recovered, rs.mean_recovery_us, rs.max_recovery_us,
        static_cast<unsigned long long>(rs.reroutes),
        static_cast<unsigned long long>(rs.retransmits),
        static_cast<unsigned long long>(rs.fec_masked));
  }

  if (!export_run(ex, *run.sc, done, obs, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (!obs.trace_file.empty() && ex.tracer() != nullptr)
    std::printf("trace: %s (%zu components, %zu events, %llu dropped)\n",
                obs.trace_file.c_str(), ex.tracer()->num_components(),
                ex.tracer()->total_events(),
                static_cast<unsigned long long>(ex.tracer()->total_dropped()));
  if (!obs.metrics_file.empty()) std::printf("metrics: %s\n", obs.metrics_file.c_str());

  if (opts.flag("queues")) {
    auto qs = ex.topo().all_queues();
    std::sort(qs.begin(), qs.end(),
              [](Queue* a, Queue* b) { return a->bytes_forwarded() > b->bytes_forwarded(); });
    Table qt({"queue", "GB fwd", "max occ KiB", "trims", "ecn marked"});
    for (std::size_t i = 0; i < 10 && i < qs.size(); ++i)
      qt.add_row({qs[i]->name(), Table::fmt(qs[i]->bytes_forwarded() / 1e9, 2),
                  Table::fmt(qs[i]->max_occupancy() / 1024.0, 0),
                  std::to_string(qs[i]->trims()), std::to_string(qs[i]->ecn_marked())});
    qt.print("busiest queues");
  }
  return done ? 0 : 1;
}
