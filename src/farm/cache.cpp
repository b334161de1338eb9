#include "farm/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "farm/json.hpp"
#include "obs/metrics.hpp"

namespace uno {

namespace fs = std::filesystem;

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string farm_cell_key(const FarmCell& cell, const std::string& build_id) {
  std::string text = cell.canonical() + "@" + build_id;
  for (const auto& [key, path] : cell.config) {
    if (key != "file") continue;  // the replay scenario's trace
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    if (in) bytes << in.rdbuf();
    text += '\n' + path + ' ';  // not "\n" + ...: a GCC 12 -Wrestrict false positive
    text += in ? std::to_string(fnv1a64(bytes.str())) : "missing";
  }
  const std::uint64_t h = fnv1a64(text);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool ResultCache::ensure_dir(std::string* err) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    *err = "cannot create cache dir " + dir_ + ": " + ec.message();
    return false;
  }
  return true;
}

bool ResultCache::has(const std::string& key) const {
  std::error_code ec;
  const auto size = fs::file_size(path_for(key), ec);
  return !ec && size > 0;
}

bool ResultCache::store(const std::string& key, const std::string& tmp_path,
                        std::string* err) {
  std::error_code ec;
  fs::rename(tmp_path, path_for(key), ec);
  if (ec) {
    *err = "cannot store cache entry " + key + ": " + ec.message();
    return false;
  }
  return true;
}

bool ResultCache::read(const std::string& key, std::string* contents) const {
  std::ifstream in(path_for(key));
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *contents = text.str();
  return true;
}

// A failure record is the entry of "<key>.failed", stored and read like a
// result.
bool ResultCache::store_failure(const std::string& key, const CellFailure& failure,
                                std::string* err) {
  MetricRegistry record;
  record.set_counter("attempts", static_cast<std::uint64_t>(failure.attempts));
  record.set_info("error", failure.error);
  const std::string tmp = path_for(key + ".failed") + ".tmp";
  if (!record.write_json(tmp)) {
    *err = "cannot write failure record " + tmp;
    return false;
  }
  return store(key + ".failed", tmp, err);
}

bool ResultCache::read_failure(const std::string& key, CellFailure* failure) const {
  std::string text, detail;
  JsonValue record;
  if (!read(key + ".failed", &text) || !json_parse(text, &record, &detail)) return false;
  const JsonValue* attempts = record.get("attempts");
  const JsonValue* error = record.get("error");
  if (attempts == nullptr || error == nullptr) return false;
  failure->attempts = static_cast<int>(attempts->number);
  failure->error = error->string;
  return true;
}

}  // namespace uno
