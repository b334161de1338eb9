// Recorder — the one export path for everything a run produced.
//
// A Recorder either points at an output directory (every write lands under
// it) or is disabled (every write is a cheap no-op returning false), so call
// sites never guard on an env var. ExperimentResult owns one, and benches
// share one built from the environment (bench::recorder()).
#pragma once

#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "stats/sampler.hpp"
#include "transport/flow.hpp"

namespace uno {

class Recorder {
 public:
  /// Disabled: every write no-ops and returns false.
  Recorder() = default;
  /// Enabled, writing under `dir` ("." = current directory).
  explicit Recorder(std::string dir) : dir_(std::move(dir)), enabled_(!dir_.empty()) {}

  /// The UNO_BENCH_CSV_DIR convention, previously copy-pasted into every
  /// bench: enabled iff the variable is set and non-empty.
  static Recorder from_env(const char* var = "UNO_BENCH_CSV_DIR");

  bool enabled() const { return enabled_; }
  const std::string& dir() const { return dir_; }
  /// `file` resolved under the output directory (absolute paths pass through).
  std::string path_for(const std::string& file) const;

  /// Low-level CSV row writer, scoped to a Recorder.
  class Csv {
   public:
    explicit Csv(const std::string& path) : out_(path, std::ios::trunc) {}
    bool ok() const { return static_cast<bool>(out_); }
    void row(const std::vector<std::string>& cells);
    /// Already formatted text (whole rows, newlines included).
    void write(const std::string& text) {
      out_.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    /// Shortest round-trippable formatting for CSV cells.
    static std::string fmt(double v);

   private:
    std::ofstream out_;
  };
  /// Open `file` for CSV rows; Csv::ok() is false when the recorder is
  /// disabled or the path cannot be created.
  Csv csv(const std::string& file) const;

  /// Columns: time_us, then one column per series (label as header). Series
  /// may have different lengths; the first provides the time column.
  bool time_series(const std::string& file,
                   const std::vector<const TimeSeries*>& series) const;
  /// Columns: id, src, dst, interdc, bytes, start_us, fct_us, pkts, rtx,
  /// nacks, fec_masked.
  bool flow_results(const std::string& file, std::span<const FlowResult> results) const;
  /// MetricRegistry snapshot as JSON.
  bool metrics(const std::string& file, const MetricRegistry& m) const;

 private:
  std::string dir_;
  bool enabled_ = false;
};

}  // namespace uno
