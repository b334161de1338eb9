// Multi-process farm driver: executes a FarmPlan with a bounded worker
// pool, per-cell timeouts, bounded retry with exponential backoff, and
// crash isolation — one dying cell never takes the farm down.
//
// Each cell runs as a child process (normally `uno_sim --one-cell`, but the
// command builder is injectable so tests can substitute crashing, hanging,
// or flaky stubs). An attempt succeeds when the child exits 0 *and* wrote a
// non-empty result file; the result is then moved into the content-
// addressed cache (farm/cache.hpp). Any other exit — non-zero status, a
// signal, a timeout kill, a missing result — fails the attempt; failures are
// retried with doubling backoff up to `retries` extra attempts, then the cell
// is finalized as failed, with a failure record in the cache, and the rest of
// the farm continues. Exit 2 is the worker's configuration error, which no
// retry can fix: it finalizes the cell after one attempt. A rerun executes
// only the cells the cache holds neither a result nor a failure record for.
//
// Determinism contract: the merged table is written in plan order from
// cached result bytes only (never from scheduling state), and it is written
// only once every cell is finalized — so an interrupted-then-resumed farm
// produces merged output byte-identical to an uninterrupted one, at any
// worker count.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "farm/spec.hpp"

namespace uno {

struct FarmOptions {
  int jobs = 0;             // concurrent worker processes; 0 = one per core
  double timeout_s = 300;   // wall-clock budget per attempt (0 = none)
  int retries = 2;          // extra attempts after the first failure
  double backoff_ms = 250;  // first retry delay, doubled per failed attempt
  bool fresh = false;       // ignore (and clear) the existing cache
  /// Testing/CI hook: stop launching new cells once this many have been
  /// executed this invocation (0 = no limit). Simulates an interrupted
  /// farm deterministically; the cache makes the next run resume.
  std::size_t stop_after = 0;
};

struct CellOutcome {
  enum class Status { kPending, kOk, kFailed };
  Status status = Status::kPending;
  bool cache_hit = false;    // resolved from the cache, nothing executed
  bool from_record = false;  // failed in a previous run (its failure record)
  int attempts = 0;          // attempts made when the cell ran
  std::string error;         // last failure ("exit 3", "signal 11", "timeout ...")
};

struct FarmReport {
  std::size_t cells = 0;
  std::size_t cache_hits = 0;  // cells satisfied without executing anything
  std::size_t executed = 0;    // cells run to a verdict in this invocation
  std::size_t failed = 0;      // cells whose retries are exhausted (any run)
  bool stopped_early = false;  // stop_after hit with cells still pending
  bool merged_written = false;
  std::string merged_path;
  std::vector<CellOutcome> outcomes;  // plan order

  bool all_ok() const { return !stopped_early && failed == 0; }
};

/// Builds the argv for one cell attempt; the child must write its result to
/// `result_path` and exit 0. The default builder (uno_farm) produces
/// `sim --one-cell result_path --key=value ... --scenario-opt=k=v,...`.
using CommandBuilder = std::function<std::vector<std::string>(
    const FarmCell& cell, const std::string& result_path)>;

/// `sim --one-cell` command builder for `sim_binary`: uno_sim options as
/// `--key=value` (a true flag as `--key`, a false one omitted), and every
/// other key packed, in cell order, into one `--scenario-opt`.
CommandBuilder sim_command(const std::string& sim_binary);

/// Run `plan` under `out_dir` (cache/, logs/, tmp/, and — once complete —
/// merged.csv live underneath). `build_id` is the worker binary's build
/// identity and keys the cache. Returns false + *err only on driver-level
/// failures (unusable out_dir, a cache entry that cannot be written or
/// read); cell failures are reported per-outcome instead.
bool run_farm(const FarmPlan& plan, const std::string& build_id,
              const std::string& out_dir, const FarmOptions& opts,
              const CommandBuilder& command, FarmReport* report, std::string* err);

}  // namespace uno
