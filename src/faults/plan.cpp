#include "faults/plan.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

namespace uno {

const char* FaultEvent::kind_name() const {
  switch (kind) {
    case FaultKind::kLinkDown: return "down";
    case FaultKind::kLinkUp: return "up";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kLatency: return "latency";
    case FaultKind::kLoss: return "loss";
    case FaultKind::kEcnStuck: return "ecn-stuck";
  }
  return "?";
}

Time FaultPlan::first_onset() const {
  Time t = kTimeInfinity;
  for (const FaultEvent& e : events)
    if (e.kind != FaultKind::kLinkUp) t = std::min(t, e.at);
  return t;
}

bool parse_duration(const std::string& s, Time* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || v < 0) return false;
  const std::string unit(end);
  double mult;
  if (unit.empty() || unit == "us")
    mult = static_cast<double>(kMicrosecond);
  else if (unit == "ns")
    mult = static_cast<double>(kNanosecond);
  else if (unit == "ms")
    mult = static_cast<double>(kMillisecond);
  else if (unit == "s")
    mult = static_cast<double>(kSecond);
  else
    return false;
  *out = static_cast<Time>(v * mult);
  return true;
}

bool glob_match(const std::string& pattern, const std::string& text) {
  // Iterative '*' backtracking (the classic two-pointer scan).
  std::size_t p = 0, t = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p, ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

bool parse_fraction(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool fail(std::string* err, const std::string& msg) {
  if (err) *err = msg;
  return false;
}

}  // namespace

bool FaultPlan::parse_event(const std::string& clause, FaultEvent* out, std::string* err) {
  std::istringstream in(clause);
  std::vector<std::string> tok;
  for (std::string w; in >> w;) tok.push_back(std::move(w));
  if (tok.size() < 3) return fail(err, "expected '<time> <kind> <target> ...': " + clause);

  FaultEvent e;
  if (!parse_duration(tok[0], &e.at)) return fail(err, "bad time: " + tok[0]);

  const std::string& kind = tok[1];
  if (kind == "down")
    e.kind = FaultKind::kLinkDown;
  else if (kind == "up")
    e.kind = FaultKind::kLinkUp;
  else if (kind == "flap")
    e.kind = FaultKind::kFlap;
  else if (kind == "latency")
    e.kind = FaultKind::kLatency;
  else if (kind == "loss")
    e.kind = FaultKind::kLoss;
  else if (kind == "ecn-stuck")
    e.kind = FaultKind::kEcnStuck;
  else
    return fail(err, "unknown fault kind: " + kind);

  e.target = tok[2];
  if (e.target.empty()) return fail(err, "empty target");

  bool saw_rate = false, saw_model = false;
  for (std::size_t i = 3; i < tok.size(); ++i) {
    const auto eq = tok[i].find('=');
    if (eq == std::string::npos) return fail(err, "expected key=value: " + tok[i]);
    const std::string key = tok[i].substr(0, eq);
    const std::string val = tok[i].substr(eq + 1);
    if (key == "until") {
      if (!parse_duration(val, &e.until)) return fail(err, "bad until: " + val);
    } else if (key == "period") {
      if (!parse_duration(val, &e.period)) return fail(err, "bad period: " + val);
    } else if (key == "duty") {
      if (!parse_fraction(val, &e.duty) || e.duty <= 0 || e.duty >= 1)
        return fail(err, "duty must be in (0,1): " + val);
    } else if (key == "factor") {
      if (!parse_fraction(val, &e.factor) || e.factor <= 0)
        return fail(err, "bad factor: " + val);
    } else if (key == "add") {
      if (!parse_duration(val, &e.add)) return fail(err, "bad add: " + val);
    } else if (key == "rate") {
      if (!parse_fraction(val, &e.rate) || e.rate < 0 || e.rate > 1)
        return fail(err, "rate must be in [0,1]: " + val);
      saw_rate = true;
    } else if (key == "model") {
      if (val != "ge") return fail(err, "unknown loss model: " + val);
      e.gilbert = true;
      saw_model = true;
    } else if (key == "scale") {
      if (!parse_fraction(val, &e.scale) || e.scale <= 0)
        return fail(err, "bad scale: " + val);
    } else {
      return fail(err, "unknown key: " + key);
    }
  }

  // Kind-specific validation.
  switch (e.kind) {
    case FaultKind::kFlap:
      if (e.period <= 0) return fail(err, "flap requires period=<dur>");
      break;
    case FaultKind::kLatency:
      if (e.factor == 1.0 && e.add == 0)
        return fail(err, "latency requires factor= and/or add=");
      break;
    case FaultKind::kLoss:
      if (!saw_rate && !saw_model)
        return fail(err, "loss requires rate=<p> or model=ge");
      if (saw_rate && saw_model)
        return fail(err, "loss takes rate= or model=ge, not both");
      break;
    default:
      break;
  }
  if (e.until != kTimeInfinity && e.until <= e.at)
    return fail(err, "until must be after the event time: " + clause);

  *out = std::move(e);
  return true;
}

bool FaultPlan::parse(const std::string& spec, FaultPlan* out, std::string* err) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t next = spec.find(';', pos);
    if (next == std::string::npos) next = spec.size();
    std::string clause = spec.substr(pos, next - pos);
    // Trim whitespace; skip empty clauses (trailing ';').
    const auto b = clause.find_first_not_of(" \t");
    if (b != std::string::npos) {
      clause = clause.substr(b, clause.find_last_not_of(" \t") - b + 1);
      FaultEvent e;
      if (!parse_event(clause, &e, err)) return false;
      out->events.push_back(std::move(e));
    }
    pos = next + 1;
  }
  return true;
}

}  // namespace uno
