#include "obs/metrics.hpp"

#include <cstdio>

#include "farm/json.hpp"

namespace uno {

const MetricRegistry::Entry* MetricRegistry::find(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

MetricRegistry::Entry& MetricRegistry::upsert(const std::string& name) {
  for (Entry& e : entries_)
    if (e.name == name) return e;
  entries_.push_back(Entry{});
  entries_.back().name = name;
  return entries_.back();
}

void MetricRegistry::set_counter(const std::string& name, std::uint64_t value) {
  Entry& e = upsert(name);
  e.kind = Entry::Kind::kCounter;
  e.count = value;
}

void MetricRegistry::set_gauge(const std::string& name, double value) {
  Entry& e = upsert(name);
  e.kind = Entry::Kind::kGauge;
  e.value = value;
}

void MetricRegistry::set_info(const std::string& name, std::string value) {
  Entry& e = upsert(name);
  e.kind = Entry::Kind::kInfo;
  e.text = std::move(value);
}

std::uint64_t MetricRegistry::counter(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->count : 0;
}

double MetricRegistry::gauge(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->value : 0.0;
}

std::string MetricRegistry::info(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->text : std::string{};
}

std::string MetricRegistry::to_json() const {
  // The quoted name and the formatted value are appended separately, so a
  // name of any length stays one whole, parseable line.
  std::string out = "{\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += "  " + json_quote(e.name) + ": ";
    switch (e.kind) {
      case Entry::Kind::kCounter:
        out += std::to_string(e.count);
        break;
      case Entry::Kind::kGauge:
        out += json_number(e.value);
        break;
      case Entry::Kind::kInfo:
        out += json_quote(e.text);
        break;
    }
    out += i + 1 < entries_.size() ? ",\n" : "\n";
  }
  out += "}\n";
  return out;
}

bool MetricRegistry::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace uno
