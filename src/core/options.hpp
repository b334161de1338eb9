// Declarative command-line option table for the tools.
//
// A tool registers every option once — name, type, default, value hint, help
// line — grouped into named sections, then calls parse(). Everything else is
// derived: --help output is generated section by section from the table, an
// unknown flag is rejected with a nearest-match suggestion ("did you mean
// --scheme?"), a typed option with a missing or malformed value is a parse
// error instead of a silent default. Accepted spellings: `--flag`,
// `--key value`, `--key=value`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace uno {

class OptionSet {
 public:
  /// `program` and `summary` head the generated --help text.
  OptionSet(std::string program, std::string summary);

  /// Start a new --help section; options added afterwards belong to it.
  void begin_group(const std::string& title);

  /// A boolean switch: present = true, takes no value.
  void add_flag(const std::string& name, const std::string& help);
  /// A numeric option (integers parse fine through the double).
  void add_num(const std::string& name, double def, const std::string& value_name,
               const std::string& help);
  /// A string option. An empty default renders as [-] in --help.
  void add_str(const std::string& name, const std::string& def,
               const std::string& value_name, const std::string& help);

  /// Parse argv against the table. Returns false and fills *err on the first
  /// problem: a non-flag positional, an unknown flag (with a suggestion when
  /// one is close enough), a missing or unparsable value, a value given to a
  /// boolean switch.
  bool parse(int argc, char** argv, std::string* err);

  /// True when the option was given explicitly on the command line.
  bool has(const std::string& name) const;
  bool flag(const std::string& name) const;
  double num(const std::string& name) const;
  std::string str(const std::string& name) const;

  /// The full generated help text (header + one aligned block per group).
  std::string help_text() const;
  /// Just the aligned option lines (no header, groups flattened), each
  /// prefixed with `indent` spaces — for embedding a table into another
  /// tool's help (the scenario registry's per-scenario blocks).
  std::string option_lines(int indent) const;

  // --- table introspection (the farm's spec↔OptionSet bridge) --------------

  /// Every registered option name, in registration order.
  std::vector<std::string> names() const;
  bool known(const std::string& name) const { return find(name) != nullptr; }
  /// Would `value` be accepted for option `name`? Validation only — the set
  /// is not modified. Unknown names get the same did-you-mean suggestion as
  /// parse(); numeric options require a fully-consumed number; flags accept
  /// only "", "true", "false", "1", "0".
  bool check_value(const std::string& name, const std::string& value,
                   std::string* err) const;

  /// "did you mean --X?" candidate for an unknown name; empty when nothing
  /// in the table is close. Exposed for tests.
  std::string suggest(const std::string& name) const;
  /// The candidate within a few edits of `name`, or "" when none is close:
  /// the did-you-mean rule for options, scenarios and schemes alike.
  static std::string nearest(const std::string& name,
                             const std::vector<std::string>& candidates);
  /// Levenshtein distance, the metric behind nearest().
  static std::size_t edit_distance(const std::string& a, const std::string& b);

 private:
  enum class Type { kFlag, kNum, kStr };

  struct Opt {
    std::string name, value_name, help, group;
    Type type = Type::kFlag;
    double num_def = 0;
    std::string str_def;
    bool set = false;  // seen on the command line
    double num_val = 0;
    std::string str_val;
  };

  void add(Opt o);
  Opt* find(const std::string& name);
  const Opt* find(const std::string& name) const;
  bool assign(Opt& o, const std::string& value, std::string* err);

  std::string program_, summary_, group_;
  std::vector<Opt> opts_;
};

}  // namespace uno
