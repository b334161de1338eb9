// Workload engine v2: the unified Scenario interface (DESIGN.md §16).
//
// A Scenario is a registered, named, self-describing workload driver. It
// owns its option schema (a scoped OptionSet — the same declarative table
// uno_sim's flags live in, so scenario options get generated help,
// validation, and did-you-mean for free), emits FlowSpecs either from a
// plan drawn from a cursor one sync window ahead of each start (open-loop
// generators: Poisson mixes, adversarial matrices, trace replay) or
// reactively (closed-loop drivers: collectives that spawn the next transfer
// when the previous one completes), and reports scenario-level metrics into
// the run's MetricRegistry.
//
// The ScenarioHarness, the one driver loop, spawns and runs every flow and
// drives both kinds at its sync points. Its closed-loop contract is what
// makes every scenario bit-identical across --shards (and trivially across
// farm cells): the loop steps the experiment on an absolute sync grid,
// completions only land in the Experiment's FCT record (in both the
// monolithic and the sharded mode), and each step appends its completions
// in canonical order (finishes_before), so the record is canonical at every
// sync point, where the scenario sees the new records. Scenario reactions
// therefore happen at grid points, in an order that is a pure function of
// simulation content — never of shard interleaving. See §16 for why the
// grid is exact in both modes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "transport/flow.hpp"
#include "workload/traffic.hpp"

namespace uno {

class Experiment;
class ScenarioHarness;

/// Topology and run facts a scenario resolves its options against (decoupled
/// from Experiment so scenarios are testable standalone, like generators).
struct ScenarioEnv {
  HostSpace hosts;
  std::uint64_t seed = 1;
  Bandwidth host_rate = 100 * kGbps;
  /// CI smoke runs (uno_sim --quick): scenarios scale their *default* sizes
  /// and durations down; explicitly-set options are always honored as given.
  bool quick = false;
};

/// One "key=value" assignment for a scenario's scoped option table.
using ScenarioOption = std::pair<std::string, std::string>;

/// Split "key=value[,key=value...]" (the --scenario-opt grammar; values may
/// contain '=' but not ','). Empty text yields an empty list.
bool parse_scenario_opts(const std::string& text, std::vector<ScenarioOption>* out,
                         std::string* err);

class Scenario {
 public:
  virtual ~Scenario() = default;

  const std::string& name() const { return name_; }
  const std::string& summary() const { return summary_; }

  /// The scenario's scoped option table: what --scenario-opt and a farm
  /// spec's scenario keys set.
  const OptionSet& options() const { return opts_; }

  /// Apply assignments to the option table (a later entry for a key wins).
  /// Unknown keys and malformed values fail with the table's own
  /// did-you-mean diagnostics.
  bool set_options(const std::vector<ScenarioOption>& kvs, std::string* err);

  /// Bind the environment and resolve options into the scenario's concrete
  /// plan. Must be called (once) before the harness runs; false + *err on
  /// an invalid configuration.
  bool init(const ScenarioEnv& env, std::string* err) {
    env_ = env;
    return resolve(err);
  }

  /// Called once when the harness starts, at the current sync point. Spawn
  /// the initial flows here. An open-loop scenario spawns the flows that
  /// start by now and reserves the dispatch places of the rest
  /// (ScenarioHarness::reserve_starts), which advance() then draws and
  /// spawns window by window.
  virtual void start(ScenarioHarness& h) = 0;

  /// Called at every sync point, right after start() and after each
  /// completion delivery, with the next sync point `next`
  /// (kTimeInfinity once a run has stopped). An open-loop scenario spawns
  /// its reserved flows that start by `next` here, plus one more while any
  /// are left. Closed-loop scenarios spawn in on_flow_complete instead.
  virtual void advance(ScenarioHarness& h, Time next) { (void)h, (void)next; }

  /// Closed-loop hook: one completed flow, delivered in canonical
  /// (finish time, flow id) order at the next sync point after it finished
  /// (finish time = flow_finish_time(r); r.completion_time is the FCT
  /// duration). `tag` is whatever the scenario passed to spawn(). React by
  /// spawning follow-up flows (a start time in the past is clamped to the
  /// sync point).
  virtual void on_flow_complete(const FlowResult& r, std::uint64_t tag,
                                ScenarioHarness& h) {
    (void)r, (void)tag, (void)h;
  }

  /// True when the scenario will never request another spawn. Open-loop
  /// scenarios are done once their last flow is spawned; closed-loop
  /// drivers flip this when their last phase has been issued. The harness
  /// closes the scenario's start reservation then.
  virtual bool done() const { return true; }

  /// Scenario-level metrics, merged into the run's registry under a
  /// "scenario." prefix of the scenario's choosing.
  virtual void report(MetricRegistry& m) const { (void)m; }

 protected:
  /// `name` is the registry key; `summary` heads the generated help entry.
  Scenario(std::string name, std::string summary);

  /// Subclass hook behind init(): read options(), validate, build the plan.
  virtual bool resolve(std::string* err) {
    (void)err;
    return true;
  }
  const ScenarioEnv& env() const { return env_; }

  OptionSet opts_;

 private:
  std::string name_, summary_;
  ScenarioEnv env_;
};

/// Name -> factory table every entry point (uno_sim, farm cells, benches,
/// tests) creates scenarios through. The built-in library self-registers on
/// first use of instance(); duplicate names are rejected so out-of-tree
/// registrations cannot silently shadow a built-in.
class ScenarioRegistry {
 public:
  using Factory = std::unique_ptr<Scenario> (*)();

  /// The process-wide registry, with the built-in library registered.
  static ScenarioRegistry& instance();

  /// Register a scenario; the factory is probed once for name/summary.
  /// Returns false (and registers nothing) on a duplicate name.
  bool add(Factory factory);

  /// Instantiate by name; null when unknown.
  std::unique_ptr<Scenario> create(const std::string& name) const;
  bool known(const std::string& name) const;
  /// Registered names in registration order.
  std::vector<std::string> names() const;
  /// Nearest registered name for a typo, or "" (OptionSet::edit_distance).
  std::string suggest(const std::string& name) const;

  /// The generated "scenarios" help section: one block per scenario — name,
  /// summary, and its scoped option table.
  std::string help_text() const;

  // Registries are constructible for tests; production code uses instance().
  ScenarioRegistry() = default;

 private:
  struct Entry {
    std::string name, summary;
    Factory factory;
  };
  const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
};

/// Registers the built-in scenario library (workload/scenario_lib.cpp) into
/// `r`. instance() calls this once; tests may call it on private registries.
void register_builtin_scenarios(ScenarioRegistry& r);

/// Drives one Scenario against one Experiment, the only way to spawn and
/// run flows; see the file comment for the contract. It hands its scenario
/// each record that lands in ex.fct() while it runs, so harnesses on one
/// Experiment take turns, a later one starting at the record size it
/// finds. Its flows retire once quiet (DESIGN.md §15) unless an on_spawn
/// observer sees them.
class ScenarioHarness {
 public:
  ScenarioHarness(Experiment& ex, Scenario& sc);

  /// The current sync point — the scenario's clock. Finish times seen in
  /// on_flow_complete (flow_finish_time) are exact simulation times
  /// (<= now()).
  Time now() const { return cursor_; }
  const HostSpace& hosts() const { return hosts_; }

  /// Request a flow. `spec.interdc` is derived from src/dst (callers need
  /// not set it); a start time before the current sync point is clamped to
  /// it. `tag` is echoed back in on_flow_complete.
  void spawn(FlowSpec spec, std::uint64_t tag = 0);
  std::size_t spawned() const { return spawn_count_; }

  /// Reserve the dispatch places of every later spawn_reserved() flow
  /// (Experiment::reserve_starts): once, from Scenario::start(). The
  /// reservation stays open until the scenario is done.
  void reserve_starts();
  /// spawn() for the next reserved flow: it dispatches exactly where spawn()
  /// would have put it at reservation time, so streaming a plan window by
  /// window changes no result. It must start after the current sync point.
  void spawn_reserved(FlowSpec spec);
  /// Call `fn` with every flow spawned from now on, as it is spawned. Each
  /// such flow is pinned, so `fn` may keep the sender for the whole run;
  /// register before begin() to see every flow.
  void on_spawn(std::function<void(FlowSender&)> fn) { on_spawn_ = std::move(fn); }

  /// Invoke the scenario's start() and its first advance() at the current
  /// simulation time. Idempotent; run() calls it if the caller has not.
  /// Exposed so callers can inspect the initially spawned flows (e.g.
  /// register resilience watchers, with on_spawn() for later ones) before
  /// stepping.
  void begin();

  /// Run: begin(), then step one sync_chunk() at a time on the grid begin()
  /// anchors, with canonical completion delivery and advance() at each sync
  /// point (the deadline is one too), until the scenario is done and every
  /// spawned flow completed (true), the scenario stalls (false), or
  /// `deadline` passes (false). A run that stops with reserved flows left
  /// spawns them, so every planned flow is counted; they start only if a
  /// later run() continues the run, on the same grid, from the first grid
  /// point after the clock (which Experiment::run_until may have moved).
  bool run(Time deadline);

 private:
  /// A sync point at the current clock: deliver, then advance(). True while
  /// the scenario may still spawn.
  bool sync();
  /// The scenario's advance() to `next`, then the end of its reservation
  /// once it is done.
  void advance(Time next);
  /// The first sync grid point after the current one.
  Time next_grid() const { return origin_ + ((cursor_ - origin_) / chunk_ + 1) * chunk_; }
  void deliver();
  void note_spawn(FlowSender& sender);

  Experiment& ex_;
  Scenario& sc_;
  const Time chunk_;  // the grid's spacing, Experiment::sync_chunk()
  HostSpace hosts_;
  bool started_ = false;
  Time cursor_ = 0;
  Time origin_ = 0;  // the sync grid's first point, set by begin()
  std::size_t spawn_count_ = 0;
  bool reserving_ = false;  // our reservation is open
  std::size_t delivered_;  // ex.fct() records delivered or there before us
  std::unordered_map<std::uint64_t, std::uint64_t> tags_;  // flow id -> tag
  std::function<void(FlowSender&)> on_spawn_;
};

}  // namespace uno
