#include "farm/spec.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/sim_options.hpp"
#include "farm/json.hpp"
#include "workload/scenario.hpp"

namespace uno {

namespace {

/// Options a spec may not set: the farm owns the worker contract, and packs
/// a cell's scenario keys into its one --scenario-opt.
bool reserved_key(const std::string& key) {
  static const char* kReserved[] = {"help", "version", "one-cell", "scenario-opt"};
  for (const char* r : kReserved)
    if (key == r) return true;
  return false;
}

bool scalar_to_string(const JsonValue& v, std::string* out) {
  switch (v.kind) {
    case JsonValue::Kind::kString:
      *out = v.string;
      return true;
    case JsonValue::Kind::kNumber:
      *out = json_number(v.number);
      return true;
    case JsonValue::Kind::kBool:
      *out = v.boolean ? "true" : "false";
      return true;
    default:
      return false;
  }
}

using Scenarios = std::vector<std::unique_ptr<Scenario>>;

/// Check one assignment: a uno_sim option against its table, any other key
/// against the table of every scenario the spec runs.
bool check_assignment(const OptionSet& sim_opts, const Scenarios& scenarios,
                      const std::string& where, const std::string& key,
                      const std::string& value, std::string* err) {
  if (reserved_key(key)) {
    *err = where + ": \"" + key + "\" is farm-reserved and cannot appear in a spec";
    return false;
  }
  std::string detail;
  if (sim_opts.known(key)) {
    if (sim_opts.check_value(key, value, &detail)) return true;
    *err = where + ": " + detail;
    return false;
  }
  for (const auto& sc : scenarios) {
    const OptionSet& table = sc->options();
    if (!table.known(key)) {
      std::vector<std::string> names = sim_opts.names();
      for (const std::string& n : table.names()) names.push_back(n);
      const std::string near = OptionSet::nearest(key, names);
      *err = where + ": unknown option " + key + " for scenario " + sc->name() +
             (near.empty() ? "" : " (did you mean " + near + "?)") +
             "; see uno_sim --help and --list-scenarios";
      return false;
    }
    if (!table.check_value(key, value, &detail)) {
      *err = where + ": scenario " + sc->name() + ": " + detail;
      return false;
    }
  }
  // The cell's scenario keys travel as one comma-separated --scenario-opt.
  if (value.find(',') != std::string::npos) {
    *err = where + ": a scenario option's value cannot contain ',' (got '" + value + "')";
    return false;
  }
  return true;
}

}  // namespace

bool FarmSpec::parse(const std::string& json_text, const OptionSet& sim_opts,
                     FarmSpec* out, std::string* err) {
  *out = FarmSpec{};
  JsonValue root;
  if (!json_parse(json_text, &root, err)) {
    *err = "spec: " + *err;
    return false;
  }
  if (!root.is_object()) {
    *err = "spec: top level must be a JSON object";
    return false;
  }
  for (const auto& [key, value] : root.object) {
    if (key != "name" && key != "base" && key != "dims" && key != "seeds") {
      *err = "spec: unknown top-level key \"" + key +
             "\" (expected name, base, dims, seeds)";
      return false;
    }
    (void)value;
  }

  const JsonValue* name = root.get("name");
  if (name == nullptr || !name->is_string() || name->string.empty()) {
    *err = "spec: \"name\" (non-empty string) is required";
    return false;
  }
  for (const char c : name->string) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) {
      *err = "spec: \"name\" may only contain [A-Za-z0-9._-] (it names directories)";
      return false;
    }
  }
  out->name = name->string;

  // Keys are checked once every value is read: which scenario options a
  // key may name depends on the scenarios the whole spec runs.
  if (const JsonValue* base = root.get("base"); base != nullptr) {
    if (!base->is_object()) {
      *err = "spec: \"base\" must be an object of option: value pairs";
      return false;
    }
    for (const auto& [key, value] : base->object) {
      std::string v;
      if (!scalar_to_string(value, &v)) {
        *err = "spec: base." + key + ": expected a string, number, or bool";
        return false;
      }
      if (key == "seed") {  // a uno_sim option, re-attached per cell by expand()
        if (!check_assignment(sim_opts, {}, "spec: base.seed", key, v, err)) return false;
        out->seed_base = static_cast<std::uint64_t>(std::strtod(v.c_str(), nullptr));
        continue;
      }
      out->base.emplace_back(key, v);
    }
  }

  if (const JsonValue* dims = root.get("dims"); dims != nullptr) {
    if (!dims->is_object()) {
      *err = "spec: \"dims\" must be an object of option: list-or-range pairs";
      return false;
    }
    for (const auto& [key, value] : dims->object) {
      const std::string where = "spec: dims." + key;
      for (const auto& [bk, bv] : out->base) {
        (void)bv;
        if (bk == key) {
          *err = where + ": also set in \"base\"";
          return false;
        }
      }
      if (key == "seed") {
        *err = where + ": vary seeds with the \"seeds\" block instead";
        return false;
      }
      FarmDim dim;
      dim.key = key;
      if (value.is_string()) {
        double lo = 0, hi = 0;
        int n = 0;
        std::string detail;
        if (!parse_range(value.string, &lo, &hi, &n, &detail)) {
          *err = where + ": " + detail + " (or use a [value, ...] list)";
          return false;
        }
        for (int i = 0; i < n; ++i)
          dim.values.push_back(json_number(range_value(lo, hi, n, i)));
      } else if (value.is_array()) {
        if (value.array.empty()) {
          *err = where + ": a dimension needs at least one value";
          return false;
        }
        for (const JsonValue& elem : value.array) {
          std::string v;
          if (!scalar_to_string(elem, &v)) {
            *err = where + ": list entries must be strings, numbers, or bools";
            return false;
          }
          dim.values.push_back(std::move(v));
        }
      } else {
        *err = where + ": expected a \"LO:HI:N\" range or a [value, ...] list";
        return false;
      }
      out->dims.push_back(std::move(dim));
    }
  }

  if (const JsonValue* seeds = root.get("seeds"); seeds != nullptr) {
    if (!seeds->is_number() || seeds->number < 1 ||
        seeds->number != static_cast<double>(static_cast<int>(seeds->number))) {
      *err = "spec: \"seeds\" must be an integer >= 1";
      return false;
    }
    out->seeds = static_cast<int>(seeds->number);
  }

  // The scenarios the spec runs: base's, a dimension's, or uno_sim's default.
  std::vector<std::string> names{sim_opts.str("scenario")};
  for (const auto& [key, value] : out->base)
    if (key == "scenario") names = {value};
  for (const FarmDim& d : out->dims)
    if (d.key == "scenario") names = d.values;
  Scenarios scenarios;
  for (const std::string& n : names) {
    scenarios.push_back(ScenarioRegistry::instance().create(n));
    if (scenarios.back() != nullptr) continue;
    const std::string near = ScenarioRegistry::instance().suggest(n);
    *err = "spec: unknown scenario " + n +
           (near.empty() ? "" : " (did you mean " + near + "?)") + "; see uno_sim --list-scenarios";
    return false;
  }
  for (const auto& [key, v] : out->base)
    if (!check_assignment(sim_opts, scenarios, "spec: base." + key, key, v, err)) return false;
  for (const FarmDim& d : out->dims)
    for (const std::string& v : d.values)
      if (!check_assignment(sim_opts, scenarios, "spec: dims." + d.key, d.key, v, err))
        return false;

  // Refuse absurd grids before anyone tries to run one.
  std::size_t total = static_cast<std::size_t>(out->seeds);
  for (const FarmDim& d : out->dims) {
    total *= d.values.size();
    if (total > 100000) {
      *err = "spec: grid expands to more than 100000 cells";
      return false;
    }
  }
  return true;
}

bool FarmSpec::load(const std::string& path, const OptionSet& sim_opts, FarmSpec* out,
                    std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read spec file: " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!parse(text.str(), sim_opts, out, err)) {
    *err = path + ": " + *err;
    return false;
  }
  return true;
}

std::string FarmCell::canonical() const {
  std::vector<std::pair<std::string, std::string>> sorted = config;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    out += k;
    out += '=';
    out += v;
    out += '\n';
  }
  return out;
}

FarmPlan expand(const FarmSpec& spec) {
  FarmPlan plan;
  plan.name = spec.name;
  for (const FarmDim& d : spec.dims) plan.coord_keys.push_back(d.key);
  if (spec.seeds > 1) plan.coord_keys.push_back("seed");

  std::vector<std::size_t> idx(spec.dims.size(), 0);
  while (true) {
    for (int s = 0; s < spec.seeds; ++s) {
      FarmCell cell;
      cell.index = plan.cells.size();
      cell.config = spec.base;
      for (std::size_t d = 0; d < spec.dims.size(); ++d) {
        const auto& assign = std::pair{spec.dims[d].key, spec.dims[d].values[idx[d]]};
        cell.config.push_back(assign);
        cell.coords.push_back(assign);
      }
      const std::uint64_t seed = spec.seed_base + static_cast<std::uint64_t>(s);
      cell.config.emplace_back("seed", std::to_string(seed));
      if (spec.seeds > 1) cell.coords.emplace_back("seed", std::to_string(seed));
      for (const auto& [k, v] : cell.coords) {
        if (!cell.label.empty()) cell.label += ' ';
        cell.label += k + "=" + v;
      }
      if (cell.label.empty()) cell.label = "single";
      plan.cells.push_back(std::move(cell));
    }
    // Row-major advance: last dimension fastest (seed block is faster still).
    std::size_t d = spec.dims.size();
    while (d > 0) {
      --d;
      if (++idx[d] < spec.dims[d].values.size()) break;
      idx[d] = 0;
      if (d == 0) return plan;
    }
    if (spec.dims.empty()) return plan;
  }
}

}  // namespace uno
