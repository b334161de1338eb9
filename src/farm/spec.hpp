// Declarative experiment specs: a small JSON grammar over the uno_sim
// OptionSet table and the scenario option tables that expands
// deterministically into a list of cells.
//
// A spec is one JSON object:
//
//   {
//     "name": "load_fec_grid",            // required; names the output dir
//     "base": {"scheme": "uno", "k": 4},  // fixed options
//     "dims": {                           // grid dimensions, cross product
//       "load": "0.1:0.8:8",              //   LO:HI:N range (N evenly spaced
//       "ec-parity": [1, 2, 4]            //   points), or a value list
//     },
//     "seeds": 5                          // seed block: seed..seed+4
//   }
//
// Every key in "base" and "dims" names a registered uno_sim option or, by
// its own name, an option of the scenario the cell runs ("load" above is
// poisson's). A scenario key must be declared by every scenario the spec
// can run: base's "scenario", each value of a "scenario" dimension, or
// uno_sim's default, poisson. Both are checked at load against the shared
// tables, and unknown keys and scenario names are rejected with the same
// did-you-mean suggestion the CLI gives — so anything uno_sim can do, a
// farm can sweep: schemes, scenario options, fault plans, trace settings,
// EC geometry. "scenario-opt" is farm-reserved: a cell's scenario keys
// reach uno_sim as its one --scenario-opt, so their values may not
// contain ','.
//
// Expansion is deterministic: dimensions vary in spec order (first dimension
// outermost), the seed block innermost, and numbers are canonicalized
// through one shortest-round-trip formatter — the same spec always produces
// the same cells with the same labels in the same order, which is what
// makes cell hashing and resume sound.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/options.hpp"

namespace uno {

/// One grid dimension, already canonicalized to value strings.
struct FarmDim {
  std::string key;
  std::vector<std::string> values;
};

struct FarmSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> base;  // key -> value
  std::vector<FarmDim> dims;                              // spec order
  int seeds = 1;
  std::uint64_t seed_base = 1;  // base["seed"] when given

  /// Parse + validate a spec document against `sim_opts` (the uno_sim
  /// table) and the option tables of the scenarios it runs. False + *err on
  /// malformed JSON, unknown/reserved keys or scenarios, bad values, or bad
  /// ranges.
  static bool parse(const std::string& json_text, const OptionSet& sim_opts,
                    FarmSpec* out, std::string* err);
  /// parse() over a file's contents.
  static bool load(const std::string& path, const OptionSet& sim_opts, FarmSpec* out,
                   std::string* err);
};

/// One fully resolved run: base options + this cell's dimension values +
/// seed, as uno_sim and scenario option assignments.
struct FarmCell {
  std::size_t index = 0;                                    // plan order
  std::string label;                                        // "load=0.1 seed=1"
  std::vector<std::pair<std::string, std::string>> config;  // key -> value
  std::vector<std::pair<std::string, std::string>> coords;  // varying keys only

  /// Sorted "key=value" lines — the canonical form the cache key hashes.
  /// Sorted (not spec-order) so two specs that describe the same resolved
  /// configuration hash identically.
  std::string canonical() const;
};

struct FarmPlan {
  std::string name;
  std::vector<std::string> coord_keys;  // dim keys (+ "seed" for seed blocks)
  std::vector<FarmCell> cells;
};

/// Expand a spec into its cell list (row-major over dims, seeds innermost).
FarmPlan expand(const FarmSpec& spec);

}  // namespace uno
