// Resilience metrics: how fast flows recover from an injected fault.
//
// The tracker samples per-flow goodput on a fixed period. At the fault
// onset (announced via `note_fault`, typically `FaultInjector::first_onset`)
// it snapshots each flow's pre-fault goodput; a flow has *recovered* at the
// first subsequent sample whose per-period goodput is back above
// `recover_fraction` (default 90%) of that pre-fault rate — or when the
// flow completes, whichever comes first. Alongside recovery times it
// aggregates the loss-repair split (packets masked by FEC vs retransmitted)
// and UnoLB subflow-reroute counts.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "transport/flow.hpp"

namespace uno {

struct FlowRecovery {
  std::uint64_t flow_id = 0;
  bool affected = false;   // started before the fault and unfinished at onset
  bool recovered = false;
  Time recovery_time = kTimeInfinity;  // onset -> goodput restored
};

struct ResilienceSummary {
  std::size_t flows_tracked = 0;
  std::size_t flows_affected = 0;
  std::size_t flows_recovered = 0;
  double mean_recovery_us = 0;  // over recovered flows
  double max_recovery_us = 0;
  std::uint64_t reroutes = 0;      // UnoLB subflow reroutes (all tracked flows)
  std::uint64_t retransmits = 0;   // packets repaired by retransmission
  std::uint64_t fec_masked = 0;    // packets repaired by parity instead
};

class ResilienceTracker final : public EventHandler {
 public:
  ResilienceTracker(EventQueue& eq, Time period, double recover_fraction = 0.9)
      : eq_(eq), period_(period), recover_fraction_(recover_fraction) {}

  /// Track a flow (call before its start time).
  void watch(FlowSender* flow);
  /// Announce the fault onset; the earliest announcement wins. Schedules a
  /// pre-fault goodput snapshot at exactly `onset`.
  void note_fault(Time onset);
  /// Begin periodic sampling.
  void start();
  void stop() { running_ = false; }

  void on_event(std::uint64_t tag) override;

  Time fault_onset() const { return onset_; }
  std::size_t num_watched() const { return flows_.size(); }
  /// Per-flow verdicts (valid any time; recovery fields settle as the sim runs).
  const FlowRecovery& recovery(std::size_t i) const { return recovery_[i]; }
  /// Aggregate view as of now.
  ResilienceSummary summarize() const;

 private:
  enum : std::uint32_t { kTagSample = 0, kTagSnapshot = 1 };
  void sample();
  void snapshot();

  EventQueue& eq_;
  Time period_;
  double recover_fraction_;
  bool running_ = false;
  Time onset_ = kTimeInfinity;
  bool snapshot_taken_ = false;

  std::vector<FlowSender*> flows_;
  std::vector<std::uint64_t> last_acked_;   // acked bytes at previous sample
  std::vector<double> pre_goodput_;         // bytes/s at onset; <0 = not affected
  std::vector<FlowRecovery> recovery_;
};

}  // namespace uno
