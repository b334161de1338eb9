#include "core/options.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace uno {

namespace {

/// Parse a numeric option value: the whole string must be a finite number.
/// strtod also reads "nan", "inf" and overflowing literals; none of them is
/// a usable count, rate or time, and a later cast of one to an integer is
/// undefined.
bool parse_finite(const std::string& value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  return !value.empty() && end != nullptr && *end == '\0' && std::isfinite(*out);
}

}  // namespace

OptionSet::OptionSet(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void OptionSet::begin_group(const std::string& title) { group_ = title; }

void OptionSet::add(Opt o) {
  assert(find(o.name) == nullptr && "duplicate option");
  o.group = group_;
  opts_.push_back(std::move(o));
}

void OptionSet::add_flag(const std::string& name, const std::string& help) {
  Opt o;
  o.name = name;
  o.help = help;
  o.type = Type::kFlag;
  add(std::move(o));
}

void OptionSet::add_num(const std::string& name, double def,
                        const std::string& value_name, const std::string& help) {
  Opt o;
  o.name = name;
  o.value_name = value_name;
  o.help = help;
  o.type = Type::kNum;
  o.num_def = def;
  add(std::move(o));
}

void OptionSet::add_str(const std::string& name, const std::string& def,
                        const std::string& value_name, const std::string& help) {
  Opt o;
  o.name = name;
  o.value_name = value_name;
  o.help = help;
  o.type = Type::kStr;
  o.str_def = def;
  add(std::move(o));
}

OptionSet::Opt* OptionSet::find(const std::string& name) {
  for (Opt& o : opts_)
    if (o.name == name) return &o;
  return nullptr;
}

const OptionSet::Opt* OptionSet::find(const std::string& name) const {
  return const_cast<OptionSet*>(this)->find(name);
}

bool OptionSet::assign(Opt& o, const std::string& value, std::string* err) {
  o.set = true;
  if (o.type == Type::kStr) {
    o.str_val = value;
    return true;
  }
  if (!parse_finite(value, &o.num_val)) {
    *err = "bad value for --" + o.name + ": '" + value + "' (expected a finite number)";
    return false;
  }
  return true;
}

bool OptionSet::parse(int argc, char** argv, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *err = "unexpected argument: " + arg + " (options start with --)";
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      has_value = true;
      arg = arg.substr(0, eq);
    }
    Opt* o = find(arg);
    if (o == nullptr) {
      *err = "unknown flag: --" + arg;
      const std::string near = suggest(arg);
      if (!near.empty()) *err += " (did you mean --" + near + "?)";
      *err += "; see --help";
      return false;
    }
    if (o->type == Type::kFlag) {
      if (has_value) {
        *err = "--" + arg + " is a switch and takes no value";
        return false;
      }
      o->set = true;
      continue;
    }
    if (!has_value) {
      // `--key value`: the value is the next argv entry. Another option
      // (leading "--") does not count; a negative number does.
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        *err = "missing value for --" + arg + " (expected --" + arg + " " +
               (o->value_name.empty() ? "VALUE" : o->value_name) + ")";
        return false;
      }
      value = argv[++i];
    }
    if (!assign(*o, value, err)) return false;
  }
  return true;
}

bool OptionSet::has(const std::string& name) const {
  const Opt* o = find(name);
  assert(o != nullptr && "has() on unregistered option");
  return o != nullptr && o->set;
}

bool OptionSet::flag(const std::string& name) const { return has(name); }

double OptionSet::num(const std::string& name) const {
  const Opt* o = find(name);
  assert(o != nullptr && o->type == Type::kNum);
  if (o == nullptr) return 0;
  return o->set ? o->num_val : o->num_def;
}

std::string OptionSet::str(const std::string& name) const {
  const Opt* o = find(name);
  assert(o != nullptr && o->type == Type::kStr);
  if (o == nullptr) return {};
  return o->set ? o->str_val : o->str_def;
}

std::vector<std::string> OptionSet::names() const {
  std::vector<std::string> out;
  out.reserve(opts_.size());
  for (const Opt& o : opts_) out.push_back(o.name);
  return out;
}

bool OptionSet::check_value(const std::string& name, const std::string& value,
                            std::string* err) const {
  const Opt* o = find(name);
  if (o == nullptr) {
    *err = "unknown option: " + name;
    const std::string near = suggest(name);
    if (!near.empty()) *err += " (did you mean " + near + "?)";
    return false;
  }
  if (o->type == Type::kFlag) {
    if (value.empty() || value == "true" || value == "false" || value == "1" ||
        value == "0")
      return true;
    *err = name + " is a switch; got '" + value + "' (expected true/false)";
    return false;
  }
  double v = 0;
  if (o->type == Type::kNum && !parse_finite(value, &v)) {
    *err = "bad value for " + name + ": '" + value + "' (expected a finite number)";
    return false;
  }
  return true;
}

std::size_t OptionSet::edit_distance(const std::string& a, const std::string& b) {
  // Single-row Levenshtein; option names are short so O(|a||b|) is nothing.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
      diag = up;
    }
  }
  return row[b.size()];
}

std::string OptionSet::suggest(const std::string& name) const {
  std::vector<std::string> names;
  for (const Opt& o : opts_) names.push_back(o.name);
  return nearest(name, names);
}

std::string OptionSet::nearest(const std::string& name,
                               const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_d = name.size();  // never suggest a full rewrite
  for (const std::string& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  // A suggestion further than 3 edits away (or longer than half the typed
  // name) reads as noise, not help.
  if (best_d > 3 || best_d * 2 > std::max<std::size_t>(2, name.size())) return {};
  return best;
}

namespace {

std::string render_option_line(const std::string& left, const std::string& help_in,
                               const std::string& def, std::size_t width, int lead) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%*s%-*s  ", lead, "", static_cast<int>(width),
                left.c_str());
  std::string line = buf;
  // Multi-line help: continuation lines align under the first.
  const std::string indent(line.size(), ' ');
  const std::string& help = help_in;
  std::size_t pos = 0, nl = 0;
  bool first = true;
  while ((nl = help.find('\n', pos)) != std::string::npos) {
    line += (first ? "" : indent) + help.substr(pos, nl - pos) + "\n";
    pos = nl + 1;
    first = false;
  }
  line += (first ? "" : indent) + help.substr(pos);
  if (!def.empty()) line += "  [" + def + "]";
  return line + "\n";
}

}  // namespace

std::string OptionSet::help_text() const {
  std::string out = program_ + " — " + summary_ + "\n\nusage: " + program_ +
                    " [--flag | --key value | --key=value]...\n";

  // Left column width across every group keeps the sections aligned.
  std::size_t width = 0;
  for (const Opt& o : opts_) {
    std::size_t w = 2 + o.name.size();  // "--name"
    if (!o.value_name.empty()) w += 1 + o.value_name.size();
    width = std::max(width, w);
  }

  std::vector<std::string> groups;
  for (const Opt& o : opts_)
    if (std::find(groups.begin(), groups.end(), o.group) == groups.end())
      groups.push_back(o.group);

  char buf[256];
  for (const std::string& g : groups) {
    out += "\n";
    if (!g.empty()) out += g + ":\n";
    for (const Opt& o : opts_) {
      if (o.group != g) continue;
      std::string left = "--" + o.name;
      if (!o.value_name.empty()) left += " " + o.value_name;
      std::string def;
      if (o.type == Type::kNum) {
        std::snprintf(buf, sizeof(buf), "%g", o.num_def);
        def = buf;
      } else if (o.type == Type::kStr) {
        def = o.str_def.empty() ? "-" : o.str_def;
      }
      out += render_option_line(left, o.help, def, width, 2);
    }
  }
  return out;
}

std::string OptionSet::option_lines(int indent) const {
  std::size_t width = 0;
  for (const Opt& o : opts_) {
    std::size_t w = 2 + o.name.size();
    if (!o.value_name.empty()) w += 1 + o.value_name.size();
    width = std::max(width, w);
  }
  char buf[256];
  std::string out;
  for (const Opt& o : opts_) {
    std::string left = "--" + o.name;
    if (!o.value_name.empty()) left += " " + o.value_name;
    std::string def;
    if (o.type == Type::kNum) {
      std::snprintf(buf, sizeof(buf), "%g", o.num_def);
      def = buf;
    } else if (o.type == Type::kStr) {
      def = o.str_def.empty() ? "-" : o.str_def;
    }
    out += render_option_line(left, o.help, def, width, indent);
  }
  return out;
}

}  // namespace uno
