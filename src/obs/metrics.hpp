// MetricRegistry: named counters and gauges snapshotted to JSON.
//
// The flight recorder (obs/trace.hpp) answers "what happened when"; the
// registry answers "how much, in total". Experiments fill it at the end of a
// run (Experiment::snapshot_metrics) from the counters every component
// already keeps, so collection costs nothing during simulation. Insertion
// order is preserved and serialization is deterministic, making snapshots
// diffable across runs and commits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace uno {

class MetricRegistry {
 public:
  /// Set (or overwrite) an integer counter / floating gauge / info string
  /// (build identity, scheme names — metadata, not measurements).
  void set_counter(const std::string& name, std::uint64_t value);
  void set_gauge(const std::string& name, double value);
  void set_info(const std::string& name, std::string value);

  /// Lookup; returns 0 / "" when absent (see has()).
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  std::string info(const std::string& name) const;
  bool has(const std::string& name) const { return find(name) != nullptr; }

  std::size_t size() const { return entries_.size(); }
  const std::string& name_at(std::size_t i) const { return entries_[i].name; }

  /// One flat JSON object, keys in insertion order; names and info strings
  /// are JSON-quoted (json_quote), so any name stays valid JSON, and gauges
  /// print in json_number's shortest form, which parses back to the same
  /// double.
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  struct Entry {
    enum class Kind { kCounter, kGauge, kInfo };
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t count = 0;
    double value = 0;
    std::string text;
  };
  const Entry* find(const std::string& name) const;
  Entry& upsert(const std::string& name);

  std::vector<Entry> entries_;
};

}  // namespace uno
