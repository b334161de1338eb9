// Shared plumbing for the figure/table benchmark binaries.
//
// Every bench runs with no arguments and prints the same rows/series the
// paper reports, scaled so a full run finishes in minutes on one core.
// Environment knobs:
//   UNO_BENCH_SCALE   multiplies workload sizes/durations (default 1.0)
//   UNO_BENCH_SEED    RNG seed (default 1)
//   UNO_BENCH_JOBS    worker threads for independent sweep cells (default 1)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "obs/recorder.hpp"
#include "stats/sampler.hpp"
#include "stats/summary.hpp"
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

/// Worker threads for benches whose cells are independent simulations
/// (each cell owns its Experiment, so cells parallelize trivially via
/// uno::parallel_map; output order stays deterministic).
inline int jobs() {
  static const int j = [] {
    const char* env = std::getenv("UNO_BENCH_JOBS");
    const int v = env ? std::atoi(env) : 1;
    return v > 0 ? v : 1;
  }();
  return j;
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

/// The paper's three CC competitors (Figs 3 and 8-12).
inline std::vector<SchemeSpec> cc_schemes() {
  return {SchemeSpec::uno(), SchemeSpec::uno_ecmp(), SchemeSpec::gemini(),
          SchemeSpec::mprdma_bbr()};
}

/// The Fig. 13 load-balancer/EC variants (UnoCC everywhere).
inline std::vector<SchemeSpec> rc_schemes() {
  return {SchemeSpec::unocc_with(LbKind::kRps, false, "spray"),
          SchemeSpec::unocc_with(LbKind::kRps, true, "spray+ec"),
          SchemeSpec::unocc_with(LbKind::kPlb, false, "plb"),
          SchemeSpec::unocc_with(LbKind::kPlb, true, "plb+ec"),
          SchemeSpec::unocc_with(LbKind::kReps, false, "reps"),
          SchemeSpec::unocc_with(LbKind::kReps, true, "reps+ec"),
          SchemeSpec::unocc_with(LbKind::kUnoLb, false, "unolb"),
          SchemeSpec::unocc_with(LbKind::kUnoLb, true, "unolb+ec")};
}

inline void print_header(const char* fig, const char* what) {
  std::printf("=============================================================\n");
  std::printf("%s — %s\n", fig, what);
  std::printf("scale=%.3g seed=%llu\n", scale(), static_cast<unsigned long long>(seed()));
  std::printf("=============================================================\n");
}

/// Append (scheme, class) FCT summary cells to a table row.
inline void add_fct_cells(std::vector<std::string>& row, const FctSummary& s) {
  row.push_back(Table::fmt(s.mean_us));
  row.push_back(Table::fmt(s.p99_us));
}

}  // namespace uno::bench
