// Minimal JSON for the sweep farm: a recursive-descent parser into a small
// value tree, plus the escaping/formatting helpers every farm writer shares.
//
// Scope is deliberately narrow — experiment specs, run documents and failure
// records are all small, trusted, machine- or human-written documents, so this
// parser favours exact error positions over speed and supports the full
// JSON grammar except surrogate-pair \u escapes (non-BMP text has no
// business in an experiment spec). Object keys keep insertion order: spec
// dimension order is meaningful (it fixes grid expansion order).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace uno {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_bool() const { return kind == Kind::kBool; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* get(const std::string& key) const;
};

/// Parse `text` into *out. On failure returns false and fills *err with a
/// "line L: what" message.
bool json_parse(const std::string& text, JsonValue* out, std::string* err);

/// `"`-quoted JSON string literal for `s` (escapes ", \, and control chars).
std::string json_quote(const std::string& s);

/// Shortest decimal form of `v` that strtod round-trips exactly — the one
/// canonical number spelling shared by cache keys, run documents, and merged
/// tables so identical values can never hash or diff differently. NaN and
/// infinities print as printf does ("nan", "-inf"), which is not JSON.
std::string json_number(double v);

}  // namespace uno
