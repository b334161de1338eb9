// The uno_sim option table and its checks, shared across binaries.
//
// uno_sim parses argv against this table; uno_farm validates experiment
// specs against the *same* table, and every other spec key against the
// option tables of the scenarios the spec runs (so a spec can vary any
// registered knob and unknown keys get the same did-you-mean treatment as a
// typo'd flag); tests exercise both without spawning a process. Keeping the
// table in one place is what makes "a farm cell is just a uno_sim
// invocation" literally true.
#pragma once

#include <string>
#include <vector>

#include "core/options.hpp"
#include "sim/time.hpp"

namespace uno {

/// Every uno_sim flag: simulation, topology, faults, observability, and
/// farm-worker groups. Workload settings are scenario options, set through
/// --scenario-opt. See uno_sim --help.
OptionSet make_sim_options();

/// Check the values the library would only assert on (or crash, or hang
/// on) in a parsed table: a --scheme the catalogue names (core/scheme.hpp;
/// a typo gets the nearest name); --shards >= 0; --dcs >= 2 and
/// --cross-links >= 1; an even --k >= 2; --ec-data >= 1, --ec-parity >= 0,
/// and at most 64 shards per EC block; --fault-sample-us > 0; --cross-rtt
/// parses against --dcs. False + *err names the first offending flag.
/// uno_sim calls it once up front, so a bad value in a single run or a farm
/// cell exits 2 before any experiment is built.
bool validate_sim_options(const OptionSet& opts, std::string* err);

/// Parse "LO:HI:N" with nothing left over. Rejects N < 1 and LO > HI.
bool parse_range(const std::string& text, double* lo, double* hi, int* n,
                 std::string* err);

/// The i-th of `n` evenly spaced points over [lo, hi] (n == 1 -> lo): the
/// interpolation of farm range dimensions.
double range_value(double lo, double hi, int n, int i);

/// Parse a --cross-rtt spec "A-B=MS[,A-B=MS...]" into a row-major
/// num_dcs^2 matrix of per-pair inter-DC RTTs (both directions filled;
/// unlisted pairs stay 0 = scalar default). Rejects malformed entries,
/// out-of-range or self pairs, and RTTs too small to leave a positive WAN
/// propagation term.
bool parse_cross_rtt(const std::string& spec, int num_dcs, std::vector<Time>* out,
                     std::string* err);

}  // namespace uno
