// Experiment harness: builds the multi-DC topology configured for a scheme,
// materializes workload FlowSpecs into transport flows, runs the event loop
// and aggregates results. Every benchmark and integration test drives the
// simulator through this class.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/scheme.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "obs/recorder.hpp"
#include "sim/shard.hpp"
#include "stats/fct.hpp"
#include "topo/interdc.hpp"
#include "workload/traffic.hpp"

namespace uno {

struct ExperimentConfig {
  UnoConfig uno;
  SchemeSpec scheme = SchemeSpec::uno();
  std::uint64_t seed = 1;
  /// Scale the default topology down (k=4 -> 16 hosts/DC) for unit tests.
  int fattree_k = 0;  // 0 -> uno.fattree_k
  /// Conservative-PDES shard count for a single run (DESIGN.md §14):
  /// 1 = monolithic event loop, 0 = one shard per core, N = at most N.
  /// Always clamped to the number of partition atoms (= num_dcs) and to 1
  /// when a fault plan is present (fault scripts mutate links cross-shard).
  /// Results are bit-identical for every value; only wall-clock changes.
  int shards = 1;
  /// Declarative fault timeline, executed by a FaultInjector the experiment
  /// owns (see src/faults). Empty = fault-free run.
  FaultPlan faults;

  /// Flight-recorder wiring (src/obs). When enabled the experiment owns a
  /// Tracer and registers every switch port, every flow, and the fault
  /// injector as trace components; export via result().recorder or
  /// Experiment::tracer().
  struct TraceOptions {
    bool enabled = false;
    std::uint32_t categories = kTraceAllCategories;
    std::size_t ring_capacity = 1 << 10;  // events per component
    /// Simulated time between queue-depth counter samples per port
    /// (Tracer::Options::depth_sample_interval).
    Time depth_sample_interval = 4 * kMicrosecond;
  };
  TraceOptions trace;
};

/// The stack factory an Experiment hands its flows: the CC and LB kinds come
/// from the scheme (intra- or inter-DC by the flow), their parameters from
/// the flow and the configuration. It reads only `cfg`, which must outlive
/// it, so shard threads may call it concurrently.
class SchemeStackFactory final : public FlowStackFactory {
 public:
  explicit SchemeStackFactory(const ExperimentConfig& cfg) : cfg_(cfg) {}
  FlowStack build(const FlowParams& params, std::uint16_t num_paths) const override;
  /// The CC parameters of a flow with these FlowParams.
  static CcParams cc_params(const FlowParams& params, const UnoConfig& uno);

 private:
  const ExperimentConfig& cfg_;
};

/// End-of-run snapshot: the run's per-flow records and scalar metrics in one
/// place, plus the Recorder every export goes through (the one export path,
/// obs/recorder.hpp). `flows` views the Experiment's FCT record in place, so
/// it is valid only while that Experiment lives and is not run further.
struct ExperimentResult {
  std::span<const FlowResult> flows;  // fct().results(): canonical after a run
  MetricRegistry metrics;
  Recorder recorder;  // disabled unless the caller provides one

  bool write_flows(const std::string& file) const {
    return recorder.flow_results(file, flows);
  }
  bool write_metrics(const std::string& file) const {
    return recorder.metrics(file, metrics);
  }
};

/// Fingerprint of a finished run, read straight off the Experiment (no
/// FlowResult copies). Bit-identical across --shards and --jobs for a
/// deterministic run: goldens, benches and `uno_sim --digest` compare it.
struct RunDigest {
  std::size_t flows = 0;       // completed flows (canonical FCT records)
  std::uint64_t events = 0;    // events dispatched, summed over shards
  Time sim_end = 0;            // clock when the digest was taken
  std::uint64_t fct_sum = 0;   // exact sum of per-flow FCTs (ps)
  /// Order-sensitive hash over (flow id, FCT) pairs: the `--digest` value.
  std::uint64_t fct_hash = 0;
  /// Order-sensitive multiply-add hash over the FCT sequence alone: the
  /// value the ab_identity goldens hold.
  std::uint64_t fct_seq_hash = 0;
  std::uint64_t packets = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t nacks = 0;
  std::uint64_t fec_masked = 0;

  bool operator==(const RunDigest&) const = default;
  /// "flows=N events=N sim_end=N fct_sum=N fct_hash=<16 hex digits>", what
  /// `uno_sim --digest` prints after "digest: " (and runbench recomputes).
  std::string line() const;
};

/// Delivers Annulus-style QCN notifications from source-side switch ports
/// back to the sending host after a short near-source delay. Bypasses the
/// routed fabric deliberately: the reverse path from a source-side port to
/// the sender is 1-2 hops, which a fixed small delay models adequately.
class QcnDispatcher final : public EventHandler {
 public:
  QcnDispatcher(EventQueue& eq, InterDcTopology& topo, Time delay)
      : eq_(eq), topo_(topo), delay_(delay) {}

  /// Queue hook: schedule a kQcn packet to the offending sender.
  void notify(const Packet& p);
  void on_event(std::uint64_t tag) override;
  std::uint64_t delivered() const { return delivered_; }

 private:
  struct PendingQcn {
    Time due;
    std::int32_t host;
    std::uint64_t flow_id;
  };
  EventQueue& eq_;
  InterDcTopology& topo_;
  Time delay_;
  std::deque<PendingQcn> pending_;
  std::uint64_t delivered_ = 0;
};

/// Spawned flow i as Experiment::sender(i) reports it: its parameters for
/// every spawned flow, and its sender while the flow's record is resident.
class SenderView {
 public:
  SenderView(const FlowParams& params, FlowSender* live) : params_(params), live_(live) {}
  /// By value, so that binding it to a reference outlives the view.
  FlowParams params() const { return params_; }
  /// The flow's sender, or null once the flow has retired.
  FlowSender* live() const { return live_; }

 private:
  FlowParams params_;
  FlowSender* live_;
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& cfg);
  // Flows, their envs' completion sinks and the stack factory point into
  // the Experiment, so it stays where it was built.
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Shard 0's queue. In a monolithic run (the default) this is *the* event
  /// queue; sharded callers should prefer now()/events_dispatched(), which
  /// aggregate across shards.
  EventQueue& eq() { return *eqs_[0]; }
  /// Effective shard count after clamping (cfg.shards resolved against the
  /// core count, the number of DCs, and the fault-plan restriction).
  int shards() const { return static_cast<int>(eqs_.size()); }
  /// Simulation clock: identical to eq().now() monolithic; the barrier-time
  /// clock every shard agrees on otherwise.
  Time now() const;
  /// Events dispatched across all shards (see the run_until contract note in
  /// sim/event.hpp).
  std::uint64_t events_dispatched() const;
  InterDcTopology& topo() { return *topo_; }
  const ExperimentConfig& config() const { return cfg_; }
  FctCollector& fct() { return fct_; }

  /// Whether a spawned flow's record may go once nothing can touch it
  /// again (Flow::quiet). kWhenQuiet destroys it at the end of the first
  /// step after which it is quiet, so the FlowSender& that spawn returns
  /// may dangle once the flow has completed; kNever pins it for the
  /// Experiment's life. Results are the same either way.
  enum class Retire { kNever, kWhenQuiet };

  /// Create (and start) a flow for `spec`. Its completion lands in fct()
  /// at the end of the run_until step in which it finished.
  FlowSender& spawn(const FlowSpec& spec, Retire retire = Retire::kNever);
  /// Spawn every spec in the list, pinned.
  void spawn_all(const std::vector<FlowSpec>& specs);
  /// Reserve the dispatch places of `n` flows that spawn_reserved() spawns
  /// later, in order: `n` insertion sequence numbers on every shard queue
  /// (EventQueue::reserve_seqs). Once per Experiment.
  void reserve_starts(std::size_t n);
  /// Spawn the next reserved flow. Its start event takes that flow's
  /// reserved number on its sender's shard queue, so it dispatches exactly
  /// where spawn() would have scheduled it at reserve_starts() time. The
  /// flow must start after now().
  FlowSender& spawn_reserved(const FlowSpec& spec, Retire retire = Retire::kNever);

  std::size_t flows_spawned() const { return flows_.size(); }
  /// Flows spawned plus reserved flows not spawned yet: an open-loop
  /// scenario's whole plan from ScenarioHarness::begin() on.
  std::size_t flows_planned() const { return flows_.size() + reserved_ - reserved_spawned_; }
  std::size_t flows_completed() const { return completed_; }
  bool all_complete() const { return completed_ == flows_.size(); }

  /// The one driver loop: step a chunk grid anchored at the current clock
  /// until every spawned flow completed, `deadline` passed, or nothing is
  /// left to run; then put the FCT record in canonical order. `at_sync` runs
  /// at the starting grid point and after every chunk, and returns true
  /// while its caller may still spawn flows, which keeps the run going past
  /// grid points where every flow is complete. Such a run stops as stalled
  /// once every flow is complete and `at_sync` spawned nothing during the
  /// chunk. Returns true if every spawned flow completed.
  bool run_to_completion(Time deadline, const std::function<bool()>& at_sync = nullptr);
  void run_until(Time t);
  /// run_to_completion's chunk: the spacing of its sync grid.
  Time sync_chunk() const {
    return std::max<Time>(cfg_.uno.intra_rtt * 16, 100 * kMicrosecond);
  }

  /// The run's fingerprint as of now (see RunDigest).
  RunDigest digest() const;

  /// Flow parameter derivation, exposed for tests.
  FlowParams flow_params(const FlowSpec& spec) const;
  CcParams cc_params(const FlowSpec& spec) const;
  /// The factory every spawned flow builds its CC and LB from at its start
  /// time.
  const FlowStackFactory& stacks() const { return stacks_; }
  /// The env for flows a caller builds and owns itself (tests, benches):
  /// shard 0's queue and stacks(), with no pool, tracer or completion sink,
  /// so such flows stay out of fct() and of the path refcounts that spawned
  /// flows balance at completion. It lives as long as the Experiment.
  const FlowEnv& flow_env() const { return direct_env_; }

  /// Spawned flow i (id i + 1): params() always, live() while resident.
  SenderView sender(std::size_t i);
  /// Annulus dispatcher for DC 0, or null unless the scheme enables the
  /// add-on. Dispatchers are per-DC (each lives entirely inside one shard);
  /// use qcn_delivered() for the run-wide total.
  QcnDispatcher* qcn_dispatcher() { return qcn_.empty() ? nullptr : qcn_[0].get(); }
  std::uint64_t qcn_delivered() const;
  /// Fault injector (null for a fault-free run).
  FaultInjector* fault_injector() { return faults_.get(); }
  /// Flight recorder (null unless config().trace.enabled). Monolithic runs
  /// return the one tracer; sharded runs return a merged view rebuilt on
  /// each call (per-shard tracers absorbed in shard order) — read it after
  /// the run, not between windows.
  Tracer* tracer();
  const Tracer* tracer() const;

  /// Snapshot the run into an ExperimentResult. `recorder` becomes the
  /// result's export surface (default: disabled, writes no-op).
  ExperimentResult result(Recorder recorder = Recorder()) const;
  /// Fill `m` with the run's scalar counters/gauges.
  void snapshot_metrics(MetricRegistry& m) const;

  /// Build the topology config implied by (UnoConfig, scheme): RED on every
  /// port; phantom queues on top when the scheme uses phantom marking.
  static InterDcConfig make_topo_config(const UnoConfig& uno, const SchemeSpec& scheme,
                                        int fattree_k, std::uint64_t seed);

 private:
  /// Resolve cfg.shards against the machine, the atom count, and the
  /// fault-plan restriction.
  static int resolve_shards(const ExperimentConfig& cfg);
  /// Shard index owning DC `dc` (always 0 monolithic). Contiguous block
  /// mapping — must match the atom map built in the constructor.
  int shard_of(int dc) const {
    const int n = static_cast<int>(eqs_.size());
    return n == 1 ? 0 : dc * n / topo_->num_dcs();
  }
  /// Move the parked completion records into fct_/completed_ in shard order
  /// and release their path pairs, then destroy every quiet flow that may
  /// retire (main thread, after every step).
  void drain_completions();
  /// Nothing left to run: every queue empty (and, sharded, every channel).
  bool idle() const;
  /// Build the flow for `spec` (id, paths, trace) and keep it; the caller
  /// starts it.
  Flow& add_flow(const FlowSpec& spec, Retire retire);

  ExperimentConfig cfg_;
  SchemeStackFactory stacks_{cfg_};
  std::vector<std::unique_ptr<EventQueue>> eqs_;  // one per shard
  /// One flow-state slab pool per shard (core/slab.hpp). A flow's sender
  /// uses its source shard's pool and its receiver its destination shard's.
  /// Each endpoint acquires per-packet state when it builds its engine (the
  /// sender at its start time, the receiver at its first data packet) and
  /// releases it when the engine is dropped, on its shard's thread inside a
  /// window; only a sender whose start time has already come builds at
  /// spawn, on the main thread while shard threads are parked. Each pool is
  /// therefore touched by one thread at a time.
  std::vector<std::unique_ptr<SlabPool>> pools_;
  /// One FlowEnv per shard, built with the shard: its queue, stacks_, its
  /// pool and tracer, and a completion sink that parks the record in
  /// pending_completions_[shard]. A spawned flow's sender reads its source
  /// shard's env and its receiver its destination shard's. Never resized
  /// after construction: flows point into it.
  std::vector<FlowEnv> envs_;
  FlowEnv direct_env_;
  std::unique_ptr<InterDcTopology> topo_;
  std::unique_ptr<ShardRunner> runner_;  // null when monolithic
  FctCollector fct_;
  std::vector<std::unique_ptr<QcnDispatcher>> qcn_;  // per DC (empty w/o annulus)
  std::unique_ptr<FaultInjector> faults_;
  std::vector<std::unique_ptr<Tracer>> tracers_;  // one per shard (empty w/o trace)
  mutable std::unique_ptr<Tracer> merged_tracer_;  // sharded tracer() view
  /// Per spawned flow, indexed by id - 1: its spec, its record (null once
  /// retired) and whether it may retire.
  std::vector<FlowSpec> specs_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::vector<bool> retires_;
  /// Sender-side completion records, parked during a step (by shard threads
  /// when sharded) and drained by run_until. Indexed by the sender's shard.
  std::vector<std::vector<FlowResult>> pending_completions_;
  /// Each shard's FlowEnv::quiet list, filled by its endpoints during a
  /// step and checked by the drain.
  std::vector<std::vector<std::uint64_t>> quiet_;
  std::size_t completed_ = 0;
  std::size_t retired_ = 0;
  /// The most flows resident across a sync point: after its retirements,
  /// before the spawns it triggers (flows.resident_peak).
  std::size_t resident_peak_ = 0;
  std::uint64_t next_flow_id_ = 1;
  /// reserve_starts(): the first reserved number on each shard queue, and
  /// how many flows were reserved and spawned so far.
  std::vector<std::uint64_t> start_keys_;
  std::size_t reserved_ = 0;
  std::size_t reserved_spawned_ = 0;
};

}  // namespace uno
