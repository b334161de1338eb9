// uno_farm — declarative, cached, resumable parameter-space experiments.
//
// Reads a JSON experiment spec (src/farm/spec.hpp), expands it into a
// deterministic grid of cells, and executes each cell as a `uno_sim
// --one-cell` child process on a bounded worker pool with per-cell timeout,
// bounded retry with exponential backoff, and crash isolation. Results are
// content-addressed by a hash of the cell's resolved configuration plus the
// worker binary's build id, so:
//
//   * re-running an unchanged spec executes zero cells (100% cache hits);
//   * editing one dimension re-runs only the affected cells;
//   * rebuilding uno_sim invalidates everything (the binary changed).
//
// The cache also records each cell that failed for good, so it is the one
// record of finished cells and makes an interrupted farm resumable: run the
// same command again and it continues where it stopped, and the merged
// table it finally writes is byte-identical to an uninterrupted run at any
// --jobs. Examples:
//
//   uno_farm --spec examples/farm/load_fec_grid.json --jobs 8
//   uno_farm --spec my.json --dry-run            # show the cell list
//   uno_farm --spec my.json --fresh              # ignore cached results
//
// Everything lands under --out (default farm_out/<spec name>): cache/,
// logs/ (per-cell worker output), merged.csv, farm_stats.json.
#include <cstdio>
#include <string>
#include <vector>

#include "core/build_info.hpp"
#include "core/options.hpp"
#include "core/sim_options.hpp"
#include "farm/driver.hpp"
#include "farm/spec.hpp"
#include "obs/recorder.hpp"
#include "stats/summary.hpp"

using namespace uno;

namespace {

OptionSet make_farm_options() {
  OptionSet opts("uno_farm", "run a declarative experiment spec as a cached, "
                             "resumable multi-process farm");
  opts.begin_group("farm");
  opts.add_str("spec", "", "FILE", "experiment spec (JSON; see DESIGN.md par. 12)");
  opts.add_str("out", "", "DIR", "output root (cache, logs, merged table)");
  opts.add_str("sim", "", "PATH", "uno_sim worker binary (default: next to uno_farm)");
  opts.add_num("jobs", 0, "N", "concurrent worker processes (0 = one per core)");
  opts.add_flag("dry-run", "print the expanded cell list and exit");
  opts.add_flag("fresh", "ignore (and clear) the existing cache");
  opts.add_flag("version", "print build info and exit");
  opts.add_flag("help", "print this help and exit");

  opts.begin_group("failure policy");
  opts.add_num("timeout-s", 300, "F", "wall-clock budget per cell attempt (0 = none)");
  opts.add_num("retries", 2, "N", "extra attempts after a crash/timeout");
  opts.add_num("backoff-ms", 250, "F", "first retry delay, doubled per attempt");
  opts.add_num("stop-after", 0, "N",
               "stop launching new cells after N executions\n"
               "(testing hook: simulates an interrupted farm;\n"
               "rerun the same command to resume)");
  return opts;
}

/// The worker's build id: first line of `sim --version`.
bool query_build_id(const std::string& sim, std::string* build_id, std::string* err) {
  const std::string cmd = "'" + sim + "' --version 2>/dev/null";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    *err = "cannot run " + sim;
    return false;
  }
  char line[512] = {0};
  const bool got = std::fgets(line, sizeof(line), pipe) != nullptr;
  const int rc = ::pclose(pipe);
  std::string first(got ? line : "");
  while (!first.empty() && (first.back() == '\n' || first.back() == '\r'))
    first.pop_back();
  if (!got || rc != 0 || first.rfind("uno ", 0) != 0) {
    *err = sim + " --version did not report a build id (is --sim a uno_sim binary?)";
    return false;
  }
  *build_id = first;
  return true;
}

std::string default_sim_path(const char* argv0) {
  const std::string self(argv0 != nullptr ? argv0 : "");
  const auto slash = self.find_last_of('/');
  if (slash == std::string::npos) return "uno_sim";  // rely on PATH
  return self.substr(0, slash + 1) + "uno_sim";
}

}  // namespace

int main(int argc, char** argv) {
  OptionSet opts = make_farm_options();
  std::string err;
  if (!opts.parse(argc, argv, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (opts.flag("help")) {
    std::fputs(opts.help_text().c_str(), stdout);
    return 0;
  }
  if (opts.flag("version")) {
    std::printf("%s\n", build_info_string().c_str());
    return 0;
  }
  if (!opts.has("spec")) {
    std::fprintf(stderr, "--spec FILE is required (see --help)\n");
    return 2;
  }

  const OptionSet sim_table = make_sim_options();
  FarmSpec spec;
  if (!FarmSpec::load(opts.str("spec"), sim_table, &spec, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const FarmPlan plan = expand(spec);

  if (opts.flag("dry-run")) {
    Table t({"cell", "configuration"});
    for (const FarmCell& cell : plan.cells)
      t.add_row({std::to_string(cell.index), cell.label});
    t.print("plan: " + plan.name + " (" + std::to_string(plan.cells.size()) + " cells)");
    return 0;
  }

  const std::string sim =
      opts.has("sim") ? opts.str("sim") : default_sim_path(argv[0]);
  std::string build_id;
  if (!query_build_id(sim, &build_id, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }

  const std::string out_dir =
      opts.has("out") ? opts.str("out") : "farm_out/" + spec.name;
  FarmOptions fopts;
  fopts.jobs = static_cast<int>(opts.num("jobs"));
  fopts.timeout_s = opts.num("timeout-s");
  fopts.retries = static_cast<int>(opts.num("retries"));
  fopts.backoff_ms = opts.num("backoff-ms");
  fopts.fresh = opts.flag("fresh");
  fopts.stop_after = static_cast<std::size_t>(opts.num("stop-after"));

  std::printf("farm %s: %zu cells -> %s (worker %s)\n", plan.name.c_str(),
              plan.cells.size(), out_dir.c_str(), build_id.c_str());

  FarmReport report;
  if (!run_farm(plan, build_id, out_dir, fopts, sim_command(sim), &report, &err)) {
    std::fprintf(stderr, "farm failed: %s\n", err.c_str());
    return 2;
  }

  for (const FarmCell& cell : plan.cells) {
    const CellOutcome& o = report.outcomes[cell.index];
    if (o.status == CellOutcome::Status::kFailed)
      std::fprintf(stderr, "cell %zu [%s] failed after %d attempt(s): %s%s\n",
                   cell.index, cell.label.c_str(), o.attempts, o.error.c_str(),
                   o.from_record ? " (recorded in a previous run)" : "");
  }

  std::printf("farm %s: %zu cells, %zu cache hit(s), %zu executed, %zu failed\n",
              plan.name.c_str(), report.cells, report.cache_hits, report.executed,
              report.failed);
  MetricRegistry stats;
  stats.set_counter("cells", report.cells);
  stats.set_counter("cache_hits", report.cache_hits);
  stats.set_counter("executed", report.executed);
  stats.set_counter("failed", report.failed);
  stats.set_counter("stopped_early", report.stopped_early ? 1 : 0);
  Recorder(out_dir).metrics("farm_stats.json", stats);

  if (report.stopped_early) {
    std::printf("farm interrupted (--stop-after); rerun the same command to resume\n");
    return 3;
  }
  std::printf("merged table: %s\n", report.merged_path.c_str());
  return report.failed == 0 ? 0 : 1;
}
