// uno_sim — command-line driver for ad-hoc simulations.
//
// Runs any catalogued scheme against any registered workload scenario on a
// configurable multi-DC topology and prints an FCT summary. Examples:
//
//   uno_sim --scheme uno --scenario poisson --load 0.4 --duration-ms 5
//   uno_sim --scheme gemini --scenario incast --flows 8 --size-mb 16
//   uno_sim --scheme uno --scenario gpu_cluster --scenario-opt jobs=4,pp-stages=4
//   uno_sim --scheme uno --scenario tornado --scenario-opt stride=3,inter-frac=0.5
//   uno_sim --scheme uno --scenario allreduce --quick --digest
//   uno_sim --scheme uno --scenario poisson --rtt-ratio 512 --fail-links 2
//   uno_sim --scheme uno --fault "2ms down border:0"
//   uno_sim --scheme uno --trace out.json --trace-categories cc,queue
//
// Workloads come from the Scenario registry (workload/scenario.hpp):
// --list-scenarios prints every registered scenario with its scoped option
// table; --scenario-opt key=value[,key=value...] sets those options, and
// top-level knobs (--load, --size-mb, --flows, ...) forward into the
// scenario when explicitly set. --workload remains as the legacy spelling.
//
// Batch mode: --seeds and/or --sweep expand one configuration into a list of
// independent runs, executed on --jobs worker threads (each run owns its
// Experiment) and merged into one table in submission order — the output is
// identical for --jobs 1 and --jobs 8:
//
//   uno_sim --scheme uno --sweep load=0.1:0.8:15 --jobs 8
//   uno_sim --scheme uno --workload incast --seeds 10 --jobs 4
//
// Every flag lives in one declarative OptionSet table shared with uno_farm
// (core/sim_options.hpp): --help is generated from it, unknown flags are
// rejected with a nearest-match suggestion. Run with --help for the full
// list. `--one-cell FILE` is the farm-worker mode: run one configuration,
// write the result as JSON, exit 0 once the result is written (see
// tools/uno_farm.cpp).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/build_info.hpp"
#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "core/sim_options.hpp"
#include "faults/plan.hpp"
#include "farm/json.hpp"
#include "obs/trace.hpp"
#include "stats/resilience.hpp"
#include "stats/summary.hpp"
#include "workload/scenario.hpp"
#include "workload/traffic.hpp"

using namespace uno;

namespace {

SchemeSpec parse_scheme(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "uno") return SchemeSpec::uno();
  if (name == "uno+ecmp") return SchemeSpec::uno_ecmp();
  if (name == "uno-noec") return SchemeSpec::uno_no_ec();
  if (name == "gemini") return SchemeSpec::gemini();
  if (name == "mprdma+bbr") return SchemeSpec::mprdma_bbr();
  if (name == "dctcp") return SchemeSpec::dctcp();
  if (name == "swift+bbr") return SchemeSpec::swift_bbr();
  if (name == "unocc+rps") return SchemeSpec::unocc_with(LbKind::kRps, true, "unocc+rps");
  if (name == "unocc+plb") return SchemeSpec::unocc_with(LbKind::kPlb, true, "unocc+plb");
  if (name == "unocc+reps") return SchemeSpec::unocc_with(LbKind::kReps, true, "unocc+reps");
  *ok = false;
  return SchemeSpec::uno();
}

/// --trace / --trace-categories / --trace-ring / --metrics, resolved once.
struct ObsOptions {
  std::string trace_file;
  std::string metrics_file;
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
  obs->ring = static_cast<std::size_t>(opts.num("trace-ring"));
  obs->depth_interval =
      static_cast<Time>(opts.num("trace-depth-us") * static_cast<double>(kMicrosecond));
  return Tracer::parse_categories(opts.str("trace-categories"), &obs->categories, err);
}

/// "out.json" -> "out_run3.json": batch runs write one trace file each.
std::string indexed_path(const std::string& path, std::size_t i) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "_run%zu", i);
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + suffix;
  return path.substr(0, dot) + suffix + path.substr(dot);
}

/// The per-run knobs a batch can vary; everything else comes straight from
/// the (immutable, shared) OptionSet.
struct RunParams {
  std::uint64_t seed = 1;
  double load = 0.4;
  double size_mb = 8;
  double rtt_ratio = 0;  // 0 = keep the topology default
  int flows = 8;
};

RunParams base_params(const OptionSet& opts) {
  return RunParams{static_cast<std::uint64_t>(opts.num("seed")), opts.num("load"),
                   opts.num("size-mb"),
                   opts.has("rtt-ratio") ? opts.num("rtt-ratio") : 0,
                   static_cast<int>(opts.num("flows"))};
}

void apply_sweep_value(const Sweep& sw, double v, RunParams* rp) {
  if (sw.key == "load") rp->load = v;
  if (sw.key == "rtt-ratio") rp->rtt_ratio = v;
  if (sw.key == "size-mb") rp->size_mb = v;
  if (sw.key == "flows") rp->flows = static_cast<int>(v);
}

/// Check the topology flags main() cannot hand to build_config blindly:
/// --hosts-per-dc must hit an exact fat-tree size, --cross-rtt must parse
/// against --dcs. Called once up front so every entry point (single run,
/// batch, farm cell) rejects bad values with exit 2 before any experiment is
/// built.
bool validate_topo_options(const OptionSet& opts, std::string* err) {
  const int dcs = static_cast<int>(opts.num("dcs"));
  if (dcs < 1) {
    *err = "--dcs must be >= 1";
    return false;
  }
  const auto hosts = static_cast<std::int64_t>(opts.num("hosts-per-dc"));
  if (hosts > 0 && k_for_hosts(hosts) == 0) {
    *err = "--hosts-per-dc " + std::to_string(hosts) +
           " is not a fat-tree size (need k^3/4 for even k: 16, 128, 432, 1024, ...)";
    return false;
  }
  if (opts.has("cross-rtt")) {
    std::vector<Time> matrix;
    if (!parse_cross_rtt(opts.str("cross-rtt"), dcs, &matrix, err)) return false;
  }
  return true;
}

ExperimentConfig build_config(const OptionSet& opts, const RunParams& rp,
                              const FaultPlan& faults, const ObsOptions& obs,
                              bool* scheme_ok) {
  ExperimentConfig cfg;
  cfg.scheme = parse_scheme(opts.str("scheme"), scheme_ok);
  cfg.seed = rp.seed;
  cfg.shards = static_cast<int>(opts.num("shards"));
  cfg.uno.fattree_k = static_cast<int>(opts.num("k"));
  // The smoke preset shrinks the topology unless the user sized it.
  if (opts.flag("quick") && !opts.has("k") && !opts.has("hosts-per-dc"))
    cfg.uno.fattree_k = 4;
  const auto hosts = static_cast<std::int64_t>(opts.num("hosts-per-dc"));
  if (hosts > 0) cfg.uno.fattree_k = k_for_hosts(hosts);
  cfg.uno.num_dcs = static_cast<int>(opts.num("dcs"));
  cfg.uno.cross_links = static_cast<int>(opts.num("cross-links"));
  cfg.uno.ec_data = static_cast<int>(opts.num("ec-data"));
  cfg.uno.ec_parity = static_cast<int>(opts.num("ec-parity"));
  if (rp.rtt_ratio > 0)
    cfg.uno.inter_rtt =
        static_cast<Time>(rp.rtt_ratio * static_cast<double>(cfg.uno.intra_rtt));
  if (opts.has("cross-rtt")) {
    // Validated in main() by validate_topo_options; a failure here would be
    // a programming error, so the result is applied unconditionally.
    std::string err;
    parse_cross_rtt(opts.str("cross-rtt"), cfg.uno.num_dcs, &cfg.uno.inter_rtt_matrix,
                    &err);
  }
  cfg.faults = faults;
  cfg.trace = obs.to_config();
  return cfg;
}

/// The requested scenario name: --scenario wins, --workload is the legacy
/// spelling that resolves through the same registry.
std::string scenario_name(const OptionSet& opts) {
  return opts.has("scenario") ? opts.str("scenario") : opts.str("workload");
}

/// Create, configure, and init the run's scenario. Top-level knobs forward
/// into the scenario's scoped table when the user set them (or a sweep
/// changed them); --scenario-opt assignments come last and win.
std::unique_ptr<Scenario> make_scenario(const OptionSet& opts, const RunParams& rp,
                                        const ScenarioEnv& env, std::string* err) {
  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  const std::string name = scenario_name(opts);
  std::unique_ptr<Scenario> sc = reg.create(name);
  if (sc == nullptr) {
    *err = "unknown scenario: " + name;
    const std::string near = reg.suggest(name);
    if (!near.empty()) *err += " (did you mean " + near + "?)";
    *err += "; see --list-scenarios";
    return nullptr;
  }
  std::vector<ScenarioOption> kvs;
  auto fwd = [&](const std::string& key, double v, bool set) {
    // Forwarding only explicitly-set knobs keeps the scenario's own defaults
    // live — including their --quick scaling.
    if (!set || !sc->options().known(key)) return;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    kvs.emplace_back(key, buf);
  };
  fwd("load", rp.load, opts.has("load") || rp.load != opts.num("load"));
  fwd("size-mb", rp.size_mb, opts.has("size-mb") || rp.size_mb != opts.num("size-mb"));
  fwd("flows", rp.flows,
      opts.has("flows") || rp.flows != static_cast<int>(opts.num("flows")));
  for (const char* key : {"duration-ms", "active-hosts", "size-scale"})
    fwd(key, opts.num(key), opts.has(key));
  if (opts.has("replay") && sc->options().known("file"))
    kvs.emplace_back("file", opts.str("replay"));
  if (opts.has("scenario-opt") &&
      !parse_scenario_opts(opts.str("scenario-opt"), &kvs, err))
    return nullptr;
  if (!sc->set_options(kvs, err) || !sc->init(env, err)) {
    *err = "scenario " + name + ": " + *err;
    return nullptr;
  }
  return sc;
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

/// The setup every mode shares (single run, batch run, farm cell): config,
/// experiment, fault-target check, WAN loss, scenario. False + *err on a
/// configuration error, which every mode reports with exit 2 — so a fault
/// whose target matches nothing never runs (or caches) as a fault-free run.
bool set_up(const OptionSet& opts, const RunParams& rp, const FaultPlan& faults,
            const ObsOptions& obs, Run* run, std::string* err) {
  bool scheme_ok = false;
  run->ex = std::make_unique<Experiment>(build_config(opts, rp, faults, obs, &scheme_ok));
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
  run->sc = make_scenario(opts, rp, env, err);
  return run->sc != nullptr;
}

/// Trace + metrics export for one finished experiment; file paths already
/// resolved (batch runs pass indexed names). Scenario-level metrics merge
/// into the same JSON under the scenario's own "scenario.*" keys.
bool export_obs(Experiment& ex, const Scenario* sc, const std::string& trace_file,
                const std::string& metrics_file, std::string* err) {
  if (!trace_file.empty()) {
    if (ex.tracer() == nullptr || !ex.tracer()->write_chrome_trace(trace_file)) {
      *err = "cannot write trace file: " + trace_file;
      return false;
    }
  }
  if (!metrics_file.empty()) {
    MetricRegistry m;
    ex.snapshot_metrics(m);
    if (sc != nullptr) sc->report(m);
    if (!m.write_json(metrics_file)) {
      *err = "cannot write metrics file: " + metrics_file;
      return false;
    }
  }
  return true;
}

/// One batch run's merged-table row.
struct RunRow {
  std::string label;
  std::size_t spawned = 0, completed = 0;
  bool done = false;
  FctSummary all, intra, inter;
  std::uint64_t drops = 0, trims = 0;
  double sim_ms = 0;
  std::string digest;  // filled when --digest is set
  std::string error;
};

RunRow run_one(const OptionSet& opts, const RunParams& rp, const FaultPlan& faults,
               const ObsOptions& obs, std::size_t index, std::string label) {
  RunRow row;
  row.label = std::move(label);
  Run run;
  if (!set_up(opts, rp, faults, obs, &run, &row.error)) return row;
  Experiment& ex = *run.ex;
  ScenarioHarness harness(ex, *run.sc);
  const Time deadline = static_cast<Time>(opts.num("deadline-ms") * kMillisecond);
  row.done = harness.run(deadline);
  row.spawned = ex.flows_spawned();
  row.completed = ex.flows_completed();
  row.all = ex.fct().summarize();
  row.intra = ex.fct().summarize(FctCollector::Class::kIntra);
  row.inter = ex.fct().summarize(FctCollector::Class::kInter);
  row.drops = ex.topo().total_drops();
  row.trims = ex.topo().total_trims();
  row.sim_ms = to_milliseconds(ex.now());
  if (opts.flag("digest")) row.digest = "digest: " + ex.digest().line();
  const std::string trace_file =
      obs.trace_file.empty() ? std::string{} : indexed_path(obs.trace_file, index);
  const std::string metrics_file =
      obs.metrics_file.empty() ? std::string{} : indexed_path(obs.metrics_file, index);
  export_obs(ex, run.sc.get(), trace_file, metrics_file, &row.error);
  return row;
}

std::string fct_json(const FctSummary& s) {
  return "{\"count\": " + std::to_string(s.count) +
         ", \"mean_us\": " + json_number(s.mean_us) +
         ", \"p50_us\": " + json_number(s.p50_us) +
         ", \"p99_us\": " + json_number(s.p99_us) +
         ", \"max_us\": " + json_number(s.max_us) +
         ", \"mean_slowdown\": " + json_number(s.mean_slowdown) +
         ", \"p99_slowdown\": " + json_number(s.p99_slowdown) + "}";
}

/// Farm-worker mode: run the single configured simulation and write a
/// machine-readable result. Exit-code contract (what uno_farm keys off):
/// 0 = result written (a deadline miss is still a result, done=false),
/// 2 = configuration error; any other exit means the worker died and the
/// attempt should be retried.
int run_one_cell(const OptionSet& opts, const FaultPlan& faults, const ObsOptions& obs,
                 const std::string& out_path) {
  const RunParams base = base_params(opts);
  RunRow row = run_one(opts, base, faults, obs, 0, "cell");
  if (!row.error.empty()) {
    std::fprintf(stderr, "%s\n", row.error.c_str());
    return 2;
  }
  std::string json = "{\"schema\": \"uno-cell-v1\"";
  json += ",\n \"build\": " + json_quote(build_info_string());
  json += ",\n \"done\": " + std::string(row.done ? "true" : "false");
  json += ",\n \"flows_spawned\": " + std::to_string(row.spawned);
  json += ",\n \"flows_completed\": " + std::to_string(row.completed);
  json += ",\n \"sim_ms\": " + json_number(row.sim_ms);
  json += ",\n \"drops\": " + std::to_string(row.drops);
  json += ",\n \"trims\": " + std::to_string(row.trims);
  json += ",\n \"fct\": " + fct_json(row.all);
  json += ",\n \"fct_intra\": " + fct_json(row.intra);
  json += ",\n \"fct_inter\": " + fct_json(row.inter);
  json += "}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write cell result: %s\n", out_path.c_str());
    return 2;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "short write to cell result: %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}

int run_batch(const OptionSet& opts, const FaultPlan& faults, const ObsOptions& obs,
              const Sweep& sweep, int nseeds, int jobs) {
  const RunParams base = base_params(opts);

  // Expand sweep points x seeds into a flat run list; the merged table keeps
  // this submission order no matter how workers interleave.
  struct Planned {
    RunParams rp;
    std::string label;
  };
  std::vector<Planned> plan;
  const int points = sweep.active ? sweep.n : 1;
  for (int p = 0; p < points; ++p) {
    for (int s = 0; s < nseeds; ++s) {
      Planned pl;
      pl.rp = base;
      pl.rp.seed = base.seed + static_cast<std::uint64_t>(s);
      char buf[64];
      if (sweep.active) {
        apply_sweep_value(sweep, sweep.value(p), &pl.rp);
        std::snprintf(buf, sizeof(buf), "%s=%g", sweep.key.c_str(), sweep.value(p));
        pl.label = buf;
      }
      if (nseeds > 1) {
        std::snprintf(buf, sizeof(buf), "%sseed=%llu", sweep.active ? " " : "",
                      static_cast<unsigned long long>(pl.rp.seed));
        pl.label += buf;
      }
      plan.push_back(std::move(pl));
    }
  }

  std::printf("batch: %zu runs on %d worker(s), scheme=%s scenario=%s\n", plan.size(),
              resolve_jobs(jobs), opts.str("scheme").c_str(),
              scenario_name(opts).c_str());
  const auto rows = parallel_map(jobs, plan.size(), [&](std::size_t i) {
    return run_one(opts, plan[i].rp, faults, obs, i, plan[i].label);
  });

  bool all_done = true;
  Table t({"run", "flows", "done", "mean us", "p50 us", "p99 us", "mean slowdown",
           "drops", "trims", "sim ms"});
  for (const RunRow& r : rows) {
    if (!r.error.empty()) {
      std::fprintf(stderr, "%s: %s\n", r.label.c_str(), r.error.c_str());
      return 2;
    }
    all_done &= r.done;
    char flows[32];
    std::snprintf(flows, sizeof(flows), "%zu/%zu", r.completed, r.spawned);
    t.add_row({r.label, flows, r.done ? "yes" : "NO", Table::fmt(r.all.mean_us, 1),
               Table::fmt(r.all.p50_us, 1), Table::fmt(r.all.p99_us, 1),
               Table::fmt(r.all.mean_slowdown, 2), std::to_string(r.drops),
               std::to_string(r.trims), Table::fmt(r.sim_ms, 2)});
  }
  t.print("batch results");
  if (opts.flag("digest"))
    for (const RunRow& r : rows)
      std::printf("%s%s%s\n", r.label.c_str(), r.label.empty() ? "" : ": ",
                  r.digest.c_str());
  if (!obs.trace_file.empty())
    std::printf("traces: %s ... (%zu files)\n", indexed_path(obs.trace_file, 0).c_str(),
                rows.size());
  return all_done ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  OptionSet opts = make_sim_options();
  std::string err;
  if (!opts.parse(argc, argv, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
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

  bool scheme_ok = false;
  parse_scheme(opts.str("scheme"), &scheme_ok);
  if (!scheme_ok) {
    std::fprintf(stderr, "unknown scheme: %s (see --help for the catalogue)\n",
                 opts.str("scheme").c_str());
    return 2;
  }
  // Fail fast on a bad scenario name, with the registry's did-you-mean, so
  // batch and farm runs don't discover it one worker at a time.
  if (!ScenarioRegistry::instance().known(scenario_name(opts))) {
    err = "unknown scenario: " + scenario_name(opts);
    const std::string near = ScenarioRegistry::instance().suggest(scenario_name(opts));
    if (!near.empty()) err += " (did you mean " + near + "?)";
    std::fprintf(stderr, "%s; see --list-scenarios\n", err.c_str());
    return 2;
  }

  ObsOptions obs;
  if (!parse_obs(opts, &obs, &err)) {
    std::fprintf(stderr, "bad --trace-categories: %s\n", err.c_str());
    return 2;
  }

  if (opts.num("shards") < 0) {
    std::fprintf(stderr, "--shards must be >= 0 (0 = one shard per core)\n");
    return 2;
  }
  if (!validate_topo_options(opts, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }

  // --fail-links is sugar for a permanent down event at t=0 on each link.
  const int fails = std::min(static_cast<int>(opts.num("fail-links")),
                             static_cast<int>(opts.num("cross-links")));
  FaultPlan faults = FaultPlan::fail_links(fails);
  if (opts.has("fault")) {
    if (!FaultPlan::parse(opts.str("fault"), &faults, &err)) {
      std::fprintf(stderr, "bad --fault: %s\n", err.c_str());
      return 2;
    }
  }

  Sweep sweep;
  if (opts.has("sweep")) {
    if (!parse_sweep(opts.str("sweep"), &sweep, &err)) {
      std::fprintf(stderr, "bad --sweep: %s\n", err.c_str());
      return 2;
    }
  }
  const int nseeds = std::max(1, static_cast<int>(opts.num("seeds")));
  if (opts.has("one-cell")) {
    if (sweep.active || nseeds > 1) {
      std::fprintf(stderr, "--one-cell runs exactly one configuration; "
                           "drop --sweep/--seeds (the farm expands grids)\n");
      return 2;
    }
    return run_one_cell(opts, faults, obs, opts.str("one-cell"));
  }
  if (sweep.active || nseeds > 1)
    return run_batch(opts, faults, obs, sweep, nseeds,
                     static_cast<int>(opts.num("jobs")));

  Run run;
  if (!set_up(opts, base_params(opts), faults, obs, &run, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  Experiment& ex = *run.ex;
  const ExperimentConfig& cfg = ex.config();
  ScenarioHarness harness(ex, *run.sc);
  harness.begin();  // open-loop scenarios spawn everything here

  std::printf("scheme=%s scenario=%s flows=%zu hosts=%d inter-RTT=%.2fms",
              cfg.scheme.name.c_str(), run.sc->name().c_str(), ex.flows_spawned(),
              ex.topo().num_hosts(), to_milliseconds(cfg.uno.inter_rtt));
  if (cfg.shards != 1) {
    std::printf(" shards=%d", ex.shards());
    if (ex.shards() == 1)
      std::printf(" (fault plans pin the run to one shard)");
  }
  std::printf("\n");

  // With a fault plan active, track recovery: goodput per flow, sampled
  // periodically, with the pre-fault baseline snapshotted at the first
  // disruptive event.
  std::unique_ptr<ResilienceTracker> tracker;
  if (ex.fault_injector()) {
    const Time period =
        static_cast<Time>(opts.num("fault-sample-us") * kMicrosecond);
    tracker = std::make_unique<ResilienceTracker>(ex.eq(), period);
    for (std::size_t i = 0; i < ex.flows_spawned(); ++i) tracker->watch(&ex.sender(i));
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

  if (!export_obs(ex, run.sc.get(), obs.trace_file, obs.metrics_file, &err)) {
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
