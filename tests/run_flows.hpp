// Test helpers that run a FlowSpec list through a ScenarioHarness, the one
// way flows are spawned and run.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "workload/scenario.hpp"
#include "workload/scenario_lib.hpp"

namespace uno {

/// Run `specs` on `ex` until every flow completed (true) or `deadline`
/// passed. Their records retire once quiet, as in every harness run.
inline bool run_flows(Experiment& ex, std::vector<FlowSpec> specs, Time deadline) {
  OpenLoopScenario sc(std::move(specs));
  ScenarioHarness h(ex, sc);
  return h.run(deadline);
}

/// A spec list, its harness, and the sender of every flow in spawn order
/// (the list sorted by start time). Observing pins each flow, so its sender
/// stays valid for the Experiment's life. Each run() continues where the
/// last one stopped.
class ObservedFlows {
 public:
  ObservedFlows(Experiment& ex, std::vector<FlowSpec> specs)
      : scenario_(std::move(specs)), harness_(ex, scenario_) {
    harness_.on_spawn([this](FlowSender& s) { senders_.push_back(&s); });
  }
  ObservedFlows(const ObservedFlows&) = delete;
  ObservedFlows& operator=(const ObservedFlows&) = delete;

  /// Spawn the flows that start now (ScenarioHarness::begin).
  void begin() { harness_.begin(); }
  bool run(Time deadline) { return harness_.run(deadline); }
  std::size_t size() const { return senders_.size(); }
  FlowSender& operator[](std::size_t i) const { return *senders_.at(i); }

 private:
  OpenLoopScenario scenario_;
  ScenarioHarness harness_;
  std::vector<FlowSender*> senders_;
};

}  // namespace uno
