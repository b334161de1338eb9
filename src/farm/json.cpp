#include "farm/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace uno {

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* err) : text_(text), err_(err) {}

  bool run(JsonValue* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& what) {
    int line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i)
      if (text_[i] == '\n') ++line;
    *err_ = "line " + std::to_string(line) + ": " + what;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return parse_string(&out->string);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out->kind = JsonValue::Kind::kNull;
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_number(JsonValue* out) {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return fail("expected a value");
    pos_ += static_cast<std::size_t>(end - start);
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return true;
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad hex digit in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDFFF) return fail("surrogate \\u escapes unsupported");
          // UTF-8 encode the BMP code point.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail(std::string("bad escape \\") + e);
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue elem;
      skip_ws();
      if (!parse_value(&elem, depth + 1)) return false;
      out->array.push_back(std::move(elem));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(&key)) return false;
      if (out->get(key) != nullptr) return fail("duplicate key \"" + key + "\"");
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_++] != ':') return fail("expected ':' after key");
      skip_ws();
      JsonValue val;
      if (!parse_value(&val, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::string* err_;
  std::size_t pos_ = 0;
};

}  // namespace

bool json_parse(const std::string& text, JsonValue* out, std::string* err) {
  *out = JsonValue{};
  std::string scratch;
  Parser p(text, err != nullptr ? err : &scratch);
  return p.run(out);
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  char buf[8];
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  char buf[40];
  // Integral values render as plain integers ("10", never "1e+01") so cell
  // labels, cache keys, and merged tables read naturally. The range test
  // comes first: it is false for NaN and inf, whose cast would be undefined.
  if (v > -1e15 && v < 1e15 && v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace uno
