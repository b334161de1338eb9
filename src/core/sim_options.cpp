#include "core/sim_options.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/config.hpp"
#include "core/scheme.hpp"

namespace uno {

namespace {

/// The scheme catalogue's names as --scheme help: "a | b | ..." in lines
/// of at most 52 characters.
std::string scheme_help() {
  std::string help, line;
  for (const std::string& name : scheme_names()) {
    if (line.empty()) {
      line = name;
    } else if (line.size() + 3 + name.size() > 52) {
      help += line + " |\n";
      line = name;
    } else {
      line += " | " + name;
    }
  }
  return help + line;
}

}  // namespace

OptionSet make_sim_options() {
  OptionSet opts("uno_sim", "run one simulation and print FCT statistics");
  opts.begin_group("simulation");
  opts.add_str("scheme", "uno", "NAME", scheme_help());
  opts.add_str("scenario", "poisson", "NAME",
               "workload scenario from the registry (see --list-scenarios)");
  opts.add_str("scenario-opt", "", "LIST",
               "scenario-scoped options, key=value[,key=value...]\n"
               "(the only way to set them; a repeated key: last wins)");
  opts.add_flag("list-scenarios",
                "print the scenario registry (names, summaries, scoped\n"
                "options) and exit");
  opts.add_flag("quick",
                "CI smoke preset: k=4 topology unless --k is given and\n"
                "scaled-down scenario defaults (explicit options still win)");
  opts.add_flag("digest",
                "print a one-line run digest (event count, FCT hash) for\n"
                "determinism checks across --shards");
  opts.add_num("seed", 1, "N", "RNG seed");
  opts.add_num("deadline-ms", 1000, "F", "simulation deadline");
  opts.add_num("shards", 1, "N",
               "conservative-PDES shards for ONE run (0 = one per core;\n"
               "clamped to the DC count). Bit-identical results for every\n"
               "value; uno_farm parallelizes *across* runs");
  opts.add_flag("queues", "also print the busiest queues");
  opts.add_flag("version", "print build info (git hash, compiler, flags) and exit");
  opts.add_flag("help", "print this help and exit");

  opts.begin_group("topology");
  opts.add_num("k", 8, "N", "fat-tree arity per DC");
  opts.add_num("dcs", 2, "N", "datacenters (full border mesh)");
  opts.add_num("cross-links", 8, "N", "WAN links between each border pair");
  opts.add_num("rtt-ratio", 143, "N", "inter/intra RTT ratio (default => 2 ms)");
  opts.add_str("cross-rtt", "", "LIST",
               "per-DC-pair inter RTT overrides, e.g. \"0-1=2,0-2=8,1-2=8\"\n"
               "(A-B=MS, comma-separated, symmetric); unlisted pairs keep\n"
               "the --rtt-ratio default");
  opts.add_num("ec-data", 8, "N", "UnoRC EC block data shards");
  opts.add_num("ec-parity", 2, "N", "UnoRC EC block parity shards");

  opts.begin_group("faults");
  opts.add_str("fault", "", "SPEC",
               "fault plan: ';'-separated clauses, e.g.\n"
               "\"2ms down border:0\" or\n"
               "\"1ms flap border:1 period=500us duty=0.5\"\n"
               "kinds: down|up|flap|latency|loss|ecn-stuck;\n"
               "targets: border:N | border:* | name glob");
  opts.add_num("fault-sample-us", 250, "F", "resilience goodput sample period");
  opts.add_num("loss-scale", 0, "F", "Table-1 burst loss amplification");

  opts.begin_group("observability");
  opts.add_str("trace", "", "FILE",
               "write a Chrome trace_event JSON flight recording\n"
               "(load in Perfetto / chrome://tracing)");
  opts.add_str("trace-categories", "all", "LIST",
               "comma-separated: queue,cc,lb,rc,fault (or \"all\")");
  opts.add_num("trace-ring", 1 << 10, "N", "per-component trace ring capacity");
  opts.add_num("trace-depth-us", 4, "F", "queue-depth sample period in simulated us");
  opts.add_str("metrics", "", "FILE", "write end-of-run scalar metrics as JSON");

  opts.begin_group("farm worker mode (what uno_farm invokes; see uno_farm --help)");
  opts.add_str("one-cell", "", "FILE",
               "run one cell, write its result as JSON to FILE, and\n"
               "exit 0 once the result is written (even on a deadline\n"
               "miss: the result records done=false), 2 on a\n"
               "configuration error — so any non-{0,2} exit means the\n"
               "worker crashed and the farm should retry");
  return opts;
}

bool parse_range(const std::string& text, double* lo, double* hi, int* n,
                 std::string* err) {
  int consumed = 0;
  if (std::sscanf(text.c_str(), "%lf:%lf:%d%n", lo, hi, n, &consumed) != 3 ||
      static_cast<std::size_t>(consumed) != text.size()) {
    *err = "malformed range '" + text + "' (expected LO:HI:N)";
    return false;
  }
  if (*n < 1) {
    *err = "range '" + text + "': N must be >= 1";
    return false;
  }
  if (*lo > *hi) {
    *err = "range '" + text + "': LO must be <= HI";
    return false;
  }
  return true;
}

double range_value(double lo, double hi, int n, int i) {
  return n <= 1 ? lo : lo + (hi - lo) * static_cast<double>(i) / (n - 1);
}

namespace {
/// An inter-DC RTT must leave a positive WAN propagation term after the
/// in-DC host/fabric hops (20 us round trip at the default latencies); the
/// cross ChannelLink latency is also the PDES lookahead, so it must be
/// strictly positive.
constexpr Time kMinInterRtt = 21 * kMicrosecond;
}  // namespace

bool validate_sim_options(const OptionSet& opts, std::string* err) {
  auto fail = [err](std::string msg) {
    *err = std::move(msg);
    return false;
  };
  const std::string& scheme = opts.str("scheme");
  const std::vector<std::string> schemes = scheme_names();
  if (std::find(schemes.begin(), schemes.end(), scheme) == schemes.end()) {
    const std::string near = OptionSet::nearest(scheme, schemes);
    return fail("unknown scheme: " + scheme +
                (near.empty() ? "" : " (did you mean " + near + "?)") +
                "; see --help for the catalogue");
  }
  // Counts are cast to int, the seed to uint64 and times to Time further on;
  // a value those types cannot hold would make the cast undefined.
  for (const char* name : {"k", "dcs", "cross-links", "shards", "ec-data", "ec-parity"}) {
    const double v = opts.num(name);
    if (v < INT_MIN || v > INT_MAX) return fail(std::string("--") + name + " must fit an int");
  }
  const double seed = opts.num("seed");
  if (seed < 0 || seed > 0x1p53 || seed != std::floor(seed))
    return fail("--seed must be an integer in [0, 2^53]");
  const double deadline_ps = opts.num("deadline-ms") * static_cast<double>(kMillisecond);
  if (deadline_ps <= 0 || deadline_ps >= 0x1p63)
    return fail("--deadline-ms must be > 0 and within the simulation clock");
  if (opts.num("shards") < 0)
    return fail("--shards must be >= 0 (0 = one shard per core)");
  const int dcs = static_cast<int>(opts.num("dcs"));
  if (dcs < 2) return fail("--dcs must be >= 2 (the topology is a multi-DC mesh)");
  if (opts.num("cross-links") < 1) return fail("--cross-links must be >= 1");
  const int k = static_cast<int>(opts.num("k"));
  if (k < 2 || k % 2 != 0)
    return fail("--k must be an even fat-tree arity >= 2 (got " + std::to_string(k) +
                ")");
  const int ec_data = static_cast<int>(opts.num("ec-data"));
  const int ec_parity = static_cast<int>(opts.num("ec-parity"));
  if (ec_data < 1) return fail("--ec-data must be >= 1");
  if (ec_parity < 0) return fail("--ec-parity must be >= 0");
  if (ec_data + ec_parity > 64)
    return fail("--ec-data + --ec-parity must be <= 64 (shards per EC block)");
  const double sample_ps = opts.num("fault-sample-us") * static_cast<double>(kMicrosecond);
  if (sample_ps < 1 || sample_ps >= 0x1p63)
    return fail("--fault-sample-us must be > 0 (at least 1 ps) and within the simulation clock");
  // A positive ratio sets the inter-DC RTT (0 or less keeps the default).
  // Like a --cross-rtt entry it must exceed the in-DC path, or the WAN links
  // get a negative latency; and intervals the run adds to the clock stay
  // under 2^62 ps, so the sum cannot overflow, while the retransmission
  // timeout is 4 RTTs.
  const double intra_ps = static_cast<double>(UnoConfig{}.intra_rtt);
  const double ratio = opts.num("rtt-ratio");
  if (ratio > 0 && ratio * intra_ps <= static_cast<double>(kMinInterRtt))
    return fail("--rtt-ratio must give an inter-DC RTT above the in-DC path (> 0.021 ms)");
  if (ratio * intra_ps > 0x1p60) {
    const auto max_ratio = static_cast<std::int64_t>(0x1p60 / intra_ps);
    return fail("--rtt-ratio must be <= " + std::to_string(max_ratio) +
                " (the inter-DC RTT and its timeouts must fit the simulation clock)");
  }
  const double ring = opts.num("trace-ring");
  if (ring < 0 || ring > 0x1p32) return fail("--trace-ring must be in [0, 2^32] events");
  const double depth_ps = opts.num("trace-depth-us") * static_cast<double>(kMicrosecond);
  if (depth_ps < 0 || depth_ps >= 0x1p62)
    return fail("--trace-depth-us must be >= 0 and under 2^62 ps (within the simulation clock)");
  if (opts.has("cross-rtt")) {
    std::vector<Time> matrix;
    if (!parse_cross_rtt(opts.str("cross-rtt"), dcs, &matrix, err)) return false;
  }
  return true;
}

bool parse_cross_rtt(const std::string& spec, int num_dcs, std::vector<Time>* out,
                     std::string* err) {
  out->assign(static_cast<std::size_t>(num_dcs) * num_dcs, 0);
  std::size_t pos = 0;
  while (pos < spec.size()) {
    auto end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    int a = 0, b = 0;
    double ms = 0;
    int consumed = 0;
    if (std::sscanf(item.c_str(), "%d-%d=%lf%n", &a, &b, &ms, &consumed) != 3 ||
        static_cast<std::size_t>(consumed) != item.size()) {
      *err = "malformed cross-rtt entry '" + item + "' (expected A-B=MS)";
      return false;
    }
    if (a < 0 || b < 0 || a >= num_dcs || b >= num_dcs || a == b) {
      *err = "cross-rtt entry '" + item + "': need two distinct DCs in [0, " +
             std::to_string(num_dcs) + ")";
      return false;
    }
    const Time rtt = static_cast<Time>(ms * static_cast<double>(kMillisecond));
    if (rtt <= kMinInterRtt) {
      *err = "cross-rtt entry '" + item + "': RTT must exceed the in-DC path (> 0.021 ms)";
      return false;
    }
    (*out)[static_cast<std::size_t>(a) * num_dcs + b] = rtt;
    (*out)[static_cast<std::size_t>(b) * num_dcs + a] = rtt;
  }
  return true;
}

}  // namespace uno
