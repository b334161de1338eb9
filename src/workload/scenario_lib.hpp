// The built-in scenario library (DESIGN.md §16).
//
// Most scenarios are private to scenario_lib.cpp and reachable only through
// the registry; the closed-loop training drivers are exported here because
// examples and tests read their per-iteration communication times
// (examples/interdc_allreduce reports measured/ideal ratios). A farm cell
// gets the same numbers from report(), as its iterations and mean_iter_us
// columns (the Fig. 13C spec, examples/farm/paper/fig13c.json).
#pragma once

#include <cstdint>
#include <vector>

#include "workload/scenario.hpp"

namespace uno {

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
