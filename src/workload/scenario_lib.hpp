// The built-in scenario library (DESIGN.md §16).
//
// Most scenarios are private to scenario_lib.cpp and reachable only through
// the registry. Exported here: the open-loop base, which also runs a
// FlowSpec list given in code, and the closed-loop training drivers,
// because examples and tests read their per-iteration communication times
// (examples/interdc_allreduce reports measured/ideal ratios). A farm cell
// gets the same numbers from report(), as its iterations and mean_iter_us
// columns (the Fig. 13C spec, examples/farm/paper/fig13c.json).
#pragma once

#include <cstdint>
#include <vector>

#include "workload/scenario.hpp"

namespace uno {

/// An open-loop plan, streamed (DESIGN.md §16): a cursor (next_spec) yields
/// its flows in start order, start() spawns the flows that start by now and
/// opens a reservation for the rest, advance() spawns each one a sync window
/// before it starts, and report() counts the flows spawned. The default
/// cursor walks specs_: a list given in code, or one a registry scenario's
/// resolve() fills in order. A generator that draws its flows as they are
/// needed overrides next_spec() instead, so its plan costs O(1) memory.
class OpenLoopScenario : public Scenario {
 public:
  /// A list given in code, stable-sorted by start time as
  /// load_flow_specs_csv sorts a trace: no init(), registry name or option.
  explicit OpenLoopScenario(std::vector<FlowSpec> specs);

  void start(ScenarioHarness& h) final;
  void advance(ScenarioHarness& h, Time next) final;
  bool done() const final { return exhausted_; }
  void report(MetricRegistry& m) const final;

  /// The plan's next flow, in start order, or false once it is exhausted.
  /// start() and advance() draw from it; a caller that draws from it
  /// instead (a test comparing a plan with an eager list) consumes the plan.
  virtual bool next_spec(FlowSpec* out);

 protected:
  /// Plain strings, so that a braced FlowSpec list picks the public one.
  OpenLoopScenario(const char* name, const char* summary) : Scenario(name, summary) {}

  std::vector<FlowSpec> specs_;  // the default cursor's list

 private:
  /// Draw the plan's next flow into ahead_.
  void draw();

  std::size_t next_ = 0;      // specs_ index of the default cursor
  FlowSpec ahead_;            // the plan's next flow, drawn ahead
  bool exhausted_ = false;    // no flow ahead: the plan is all spawned
  std::size_t spawned_ = 0;   // flows of the plan spawned
  Time last_start_ = 0;       // the start of the last one spawned
};

/// Closed-loop inter-DC data-parallel gradient sync (§5.1 "AI training
/// workload", Fig. 13C) — the one driver of that workload. Each iteration, `groups` host pairs (one host in DC 0, one in DC 1)
/// exchange ReduceScatter + AllGather chunks; the next iteration starts a
/// compute gap after the last transfer of the current one completes.
class AllreduceScenario final : public Scenario {
 public:
  AllreduceScenario();

  void start(ScenarioHarness& h) override;
  void on_flow_complete(const FlowResult& r, std::uint64_t tag,
                        ScenarioHarness& h) override;
  bool done() const override;
  void report(MetricRegistry& m) const override;

  /// Communication time of each completed iteration.
  const std::vector<Time>& iteration_times() const { return iteration_times_; }
  /// Lower bound per iteration: one chunk each way of RS+AG at full rate
  /// over the inter-DC cut, plus one inter-DC RTT.
  Time ideal_iteration_time(Bandwidth cut_rate, Time inter_rtt) const;

 protected:
  bool resolve(std::string* err) override;

 private:
  void start_iteration(ScenarioHarness& h, Time start);

  int groups_ = 8;
  int iterations_ = 10;
  std::uint64_t bytes_per_iteration_ = 64ull << 20;
  Time compute_time_ = 0;

  int outstanding_ = 0;
  Time iteration_start_ = 0;
  Time last_completion_ = 0;
  std::vector<Time> iteration_times_;
};

/// Closed-loop multi-job GPU-cluster training (its follow-ups: ROADMAP,
/// "Workload composition, DAG trace replay and per-GPU endpoints"): each
/// job is a pipeline-parallel replica per DC with data parallelism across
/// DCs.
/// Forward activations chain microbatch-by-microbatch through the pipeline
/// stages (intra-DC flows), a backward wave walks the stages in reverse, and
/// each stage's gradient buckets start their cross-DC allreduce as soon as
/// that stage's backward transfer lands — compute/communication overlap.
/// The GPU tier is modeled as a computed delay: `gpus-per-host` GPUs locally
/// reduce each stage's gradient over an NVLink-class interconnect before the
/// NIC flow starts.
class GpuClusterScenario final : public Scenario {
 public:
  GpuClusterScenario();

  void start(ScenarioHarness& h) override;
  void on_flow_complete(const FlowResult& r, std::uint64_t tag,
                        ScenarioHarness& h) override;
  bool done() const override;
  void report(MetricRegistry& m) const override;

  /// End-to-end time of each completed iteration (all jobs synchronized).
  const std::vector<Time>& iteration_times() const { return iteration_times_; }

 protected:
  bool resolve(std::string* err) override;

 private:
  struct Job {
    std::vector<int> fwd_arrived;     // per DC: microbatches through the last hop
    std::vector<int> grad_ready;      // per stage: DP replicas (DCs) arrived
    std::vector<Time> grad_ready_time;  // per stage: latest backward landing
    int grad_outstanding = 0;         // gradient flows in flight this iteration
  };

  int stage_host(int job, int stage, int dc) const;
  Time nvlink_delay() const;
  void start_iteration(ScenarioHarness& h, Time start);
  void spawn_fwd(ScenarioHarness& h, int job, int dc, int mb, int hop, Time start);
  void spawn_bwd(ScenarioHarness& h, int job, int dc, int hop, Time start);
  void spawn_grads(ScenarioHarness& h, int job, int stage, Time ready);
  /// DP barrier: true when every DC's backward reached `stage` (records the
  /// latest landing time as the collective's start basis).
  bool mark_grad_ready(Job& j, int stage, Time t) const;

  int jobs_ = 2;
  int pp_stages_ = 4;
  int microbatches_ = 4;
  int buckets_ = 4;
  int iterations_ = 2;
  int gpus_per_host_ = 8;
  std::uint64_t act_bytes_ = 4ull << 20;   // per microbatch per hop
  std::uint64_t grad_bytes_ = 64ull << 20; // per replica per iteration
  Bandwidth nvlink_rate_ = 900 * kGbps;
  Time compute_time_ = 0;

  std::vector<Job> job_state_;
  int jobs_finished_ = 0;
  int iterations_done_ = 0;
  Time iteration_start_ = 0;
  Time last_completion_ = 0;
  std::vector<Time> iteration_times_;
};

}  // namespace uno
