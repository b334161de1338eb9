// Shared plumbing for the benchmark binaries.
//
// Every figure/table bench runs with no arguments and prints the same
// rows/series the paper reports, scaled so a full run finishes in minutes on
// one core. Environment knobs:
//   UNO_BENCH_SCALE   multiplies workload sizes/durations (default 1.0)
//   UNO_BENCH_SEED    RNG seed (default 1)
//
// The three measurement benches (bench_perf, bench_scale, bench_fec) share
// one Harness: the command line, the rule for when a run may write its
// checked-in BENCH_<NAME>.json, and the MetricRegistry that holds and writes
// the results.
#pragma once

#include <algorithm>
#include <cctype>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/options.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "stats/sampler.hpp"
#include "stats/summary.hpp"
#include "workload/scenario.hpp"
#include "workload/scenario_lib.hpp"
#include "workload/traffic.hpp"

namespace uno::bench {

inline double scale() {
  static const double s = [] {
    const char* env = std::getenv("UNO_BENCH_SCALE");
    const double v = env ? std::atof(env) : 1.0;
    return v > 0 ? v : 1.0;
  }();
  return s;
}

/// Shared export surface for raw artifact dumps: enabled (writing under
/// UNO_BENCH_CSV_DIR) iff the variable is set, disabled (all writes no-op)
/// otherwise — call sites don't check, they just write.
inline const Recorder& recorder() {
  static const Recorder r = Recorder::from_env();
  return r;
}

/// CPU model from /proc/cpuinfo ("unknown" elsewhere), recorded next to
/// measurements so they say which machine produced them.
inline std::string cpu_model() {
  std::string model = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      std::string l = line;
      if (l.rfind("model name", 0) != 0) continue;
      if (!l.empty() && l.back() == '\n') l.pop_back();
      const std::size_t colon = l.find(": ");
      if (colon != std::string::npos) model = l.substr(colon + 2);
      break;
    }
    std::fclose(f);
  }
  return model;
}

inline std::uint64_t seed() {
  static const std::uint64_t s = [] {
    const char* env = std::getenv("UNO_BENCH_SEED");
    return env ? std::strtoull(env, nullptr, 10) : 1ULL;
  }();
  return s;
}

/// Bytes scaled by UNO_BENCH_SCALE (at least one MTU).
inline std::uint64_t scaled_bytes(double bytes) {
  const double v = bytes * scale();
  return static_cast<std::uint64_t>(v < 4096 ? 4096 : v);
}

inline Time scaled_time(Time t) { return static_cast<Time>(static_cast<double>(t) * scale()); }

inline HostSpace hosts_of(Experiment& ex) {
  return HostSpace{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};
}

inline void print_header(const char* fig, const char* what) {
  std::printf("=============================================================\n");
  std::printf("%s — %s\n", fig, what);
  std::printf("scale=%.3g seed=%llu\n", scale(), static_cast<unsigned long long>(seed()));
  std::printf("=============================================================\n");
}

/// Steady-clock seconds, for wall timings.
inline double now_seconds() {
  using clk = std::chrono::steady_clock;
  return std::chrono::duration<double>(clk::now().time_since_epoch()).count();
}

/// Run `specs` on `ex` through a harness; the wall seconds of the run alone,
/// its flows that start at once spawned before the clock starts.
inline double timed_run(Experiment& ex, std::vector<FlowSpec> specs, Time deadline) {
  OpenLoopScenario sc(std::move(specs));
  ScenarioHarness h(ex, sc);
  h.begin();
  const double t0 = now_seconds();
  h.run(deadline);
  return now_seconds() - t0;
}

/// The measurement benches' command line, results and output file.
///
/// A bench names its blocks (the parts a run can measure) and records each
/// block's numbers into results() as "<block>.<field>" keys: counts and 0/1
/// booleans as counters, times and ratios as gauges. The registry opens with
/// a header: bench, schema, quick, seed, and the machine (cpu, hw_threads).
class Harness {
 public:
  /// Parses --quick, --only a,b, --out FILE, --help, and --reps N when
  /// `takes_reps`, then prints the run header. --help prints the generated
  /// help and exits 0; a parse error, a name --only does not know, or a
  /// --reps that is not an integer >= 1 prints why and exits 2.
  Harness(int argc, char** argv, std::string name, const std::string& summary,
          const std::vector<std::string>& blocks, bool takes_reps = false)
      : name_(std::move(name)) {
    std::string valid;
    for (const std::string& b : blocks) valid += (valid.empty() ? "" : ", ") + b;
    OptionSet opts(name_, summary);
    opts.add_flag("quick", "CI smoke size: smaller runs, same checks");
    opts.add_str("only", "", "a,b", "run only these blocks (comma-separated):\n" + valid);
    opts.add_str("out", "", "FILE",
                 "write the results here (\"\" = nowhere); without --out only a\n"
                 "full run (no --quick, no --only) writes, to " + baseline());
    if (takes_reps) opts.add_num("reps", 3, "N", "keep the fastest of N timed runs");
    opts.add_flag("help", "print this help");
    std::string err;
    if (!opts.parse(argc, argv, &err)) fail(err);
    if (opts.flag("help")) {
      std::fputs(opts.help_text().c_str(), stdout);
      std::exit(0);
    }
    quick_ = opts.flag("quick");
    if (takes_reps) {
      const double reps = opts.num("reps");
      if (reps < 1 || reps > INT_MAX || reps != std::floor(reps))
        fail("--reps must be an integer >= 1");
      reps_ = static_cast<int>(reps);
    }
    if (opts.has("only")) {
      const std::string list = opts.str("only");
      for (std::size_t pos = 0;;) {
        const std::size_t comma = list.find(',', pos);
        std::string b = list.substr(pos, comma - pos);
        if (std::find(blocks.begin(), blocks.end(), b) == blocks.end())
          fail("unknown block '" + b + "' in --only (valid: " + valid + ")");
        only_.push_back(std::move(b));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
    out_given_ = opts.has("out");
    out_ = opts.str("out");

    results_.set_info("bench", name_);
    results_.set_counter("schema", 2);
    results_.set_counter("quick", quick_ ? 1 : 0);
    results_.set_counter("seed", seed());
    results_.set_info("cpu", cpu_model());
    results_.set_counter("hw_threads", std::thread::hardware_concurrency());
    print_header(name_.c_str(), (quick_ ? summary + " (quick)" : summary).c_str());
  }

  bool quick() const { return quick_; }
  int reps() const { return reps_; }
  /// True when this run measures `block`: every block, or those --only names.
  bool wants(const std::string& block) const {
    return only_.empty() || std::find(only_.begin(), only_.end(), block) != only_.end();
  }
  MetricRegistry& results() { return results_; }

  /// Writes results() to out_path(); false when the write fails.
  bool write() const {
    const std::string path = out_path();
    if (path.empty()) {
      if (!out_given_) std::printf("\nquick or partial run: no JSON written (pass --out FILE)\n");
      return true;
    }
    if (!results_.write_json(path)) {
      std::fprintf(stderr, "%s: cannot write %s\n", name_.c_str(), path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  /// The one write rule. Only a full-size run of every block (no --quick,
  /// no --only) replaces the checked-in BENCH_<NAME>.json by default, so a
  /// smoke or partial run never overwrites the baseline; any other run
  /// writes only to an explicit --out, and holds only the blocks that ran.
  /// Empty means write nothing.
  std::string out_path() const {
    if (out_given_) return out_;
    return quick_ || !only_.empty() ? std::string() : baseline();
  }

  /// "bench_perf" -> "BENCH_PERF.json", at the repo root by convention (run
  /// from there), so the trajectory is checked in.
  std::string baseline() const {
    std::string file;
    for (const char c : name_)
      file.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    return file + ".json";
  }

  [[noreturn]] void fail(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\n", name_.c_str(), why.c_str());
    std::exit(2);
  }

  std::string name_;
  bool quick_ = false;
  int reps_ = 1;
  std::vector<std::string> only_;
  bool out_given_ = false;
  std::string out_;
  MetricRegistry results_;
};

}  // namespace uno::bench
