// Declarative fault plans: a timeline of fault events against named fabric
// elements, parsed from a compact string grammar shared by uno_sim --fault,
// the benches and the tests.
//
// One event per clause, clauses separated by ';':
//
//   <time> down <target>
//   <time> up <target>
//   <time> flap <target> period=<dur> [duty=<frac>] [until=<time>]
//   <time> latency <target> [factor=<f>] [add=<dur>] [until=<time>]
//   <time> loss <target> rate=<p> [until=<time>]            (Bernoulli)
//   <time> loss <target> model=ge [scale=<f>] [until=<time>] (Gilbert–Elliott)
//   <time> ecn-stuck <target> [until=<time>]
//
// Times/durations take an ns/us/ms/s suffix (bare numbers are microseconds).
// `duty` is the fraction of each flap period the link spends DOWN.
//
// Targets select pipes (queue+link) by name:
//   border:N    — WAN cross link N, every direction  (sugar for *.cross*.N)
//   border:*    — every WAN cross link               (sugar for *.cross*)
//   <glob>      — '*'/'?' glob over pipe names, e.g. dc0.* or *.c3.down1
// down/up/flap/latency/loss act on the matched links; ecn-stuck acts on the
// matched queues.
#pragma once

#include <string>
#include <vector>

#include "sim/time.hpp"

namespace uno {

enum class FaultKind {
  kLinkDown,   // hard failure: link drops everything (incl. in-flight)
  kLinkUp,     // repair
  kFlap,       // periodic down/up with a duty cycle
  kLatency,    // latency inflation (factor and/or additive), restored at `until`
  kLoss,       // gray failure: stochastic loss spike, restored at `until`
  kEcnStuck,   // broken switch marks every ECN-capable packet CE
};

struct FaultEvent {
  FaultKind kind = FaultKind::kLinkDown;
  Time at = 0;                  // absolute activation time
  std::string target;           // pattern, see header comment
  Time until = kTimeInfinity;   // end of a transient fault (flap/latency/loss/ecn)

  // flap
  Time period = 0;
  double duty = 0.5;            // fraction of the period spent down

  // latency
  double factor = 1.0;          // multiplier on the link's current latency
  Time add = 0;                 // additive inflation

  // loss
  bool gilbert = false;         // Gilbert–Elliott spike instead of Bernoulli
  double rate = 0.0;            // Bernoulli per-packet drop probability
  double scale = 1.0;           // multiplier on the GE table1 event rates

  const char* kind_name() const;
};

/// An ordered timeline of fault events. Order in `events` is preserved but
/// execution order is by `at` (ties broken by plan order).
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  std::size_t size() const { return events.size(); }

  /// Earliest disruptive event time (kLinkUp is a repair, not a disruption),
  /// or kTimeInfinity for an empty/repair-only plan.
  Time first_onset() const;

  /// Parse one clause. Returns false and fills `*err` on malformed input.
  static bool parse_event(const std::string& clause, FaultEvent* out, std::string* err);

  /// Parse a full ';'-separated plan string, appending to `out->events`.
  static bool parse(const std::string& spec, FaultPlan* out, std::string* err);
};

/// "500us" / "2ms" / "1s" / "300ns" / bare number (microseconds) -> Time.
/// Returns false on malformed input.
bool parse_duration(const std::string& s, Time* out);

/// '*'/'?' glob match (full-string, case-sensitive).
bool glob_match(const std::string& pattern, const std::string& text);

}  // namespace uno
