#include "workload/scenario.hpp"

#include <algorithm>
#include <cassert>

#include "core/experiment.hpp"

namespace uno {

bool parse_scenario_opts(const std::string& text, std::vector<ScenarioOption>* out,
                         std::string* err) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    const auto eq = item.find('=');
    if (eq == 0 || eq == std::string::npos) {
      *err = "malformed scenario option '" + item + "' (expected key=value)";
      return false;
    }
    out->emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return true;
}

Scenario::Scenario(std::string name, std::string summary)
    : opts_(name, summary), name_(std::move(name)), summary_(std::move(summary)) {}

bool Scenario::set_options(const std::vector<ScenarioOption>& kvs, std::string* err) {
  // Reuse the OptionSet parser (types, did-you-mean, flag handling) by
  // rendering each assignment as a --key=value token. Later entries
  // overwrite earlier ones, which is exactly the forwarding precedence.
  std::vector<std::string> tokens;
  tokens.reserve(kvs.size() + 1);
  tokens.push_back(name_);
  for (const auto& [k, v] : kvs) {
    if (opts_.known(k) && opts_.type_of(k) == OptionSet::Type::kFlag &&
        (v == "true" || v == "1")) {
      tokens.push_back("--" + k);  // flags take no value
      continue;
    }
    if (opts_.known(k) && opts_.type_of(k) == OptionSet::Type::kFlag &&
        (v == "false" || v == "0")) {
      continue;  // absent flag == false; nothing to set
    }
    tokens.push_back("--" + k + "=" + v);
  }
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& t : tokens) argv.push_back(t.data());
  return opts_.parse(static_cast<int>(argv.size()), argv.data(), err);
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* reg = [] {
    auto* r = new ScenarioRegistry();
    register_builtin_scenarios(*r);
    return r;
  }();
  return *reg;
}

const ScenarioRegistry::Entry* ScenarioRegistry::find(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

bool ScenarioRegistry::add(Factory factory) {
  std::unique_ptr<Scenario> probe = factory();
  assert(probe != nullptr);
  if (find(probe->name()) != nullptr) return false;
  entries_.push_back({probe->name(), probe->summary(), factory});
  return true;
}

std::unique_ptr<Scenario> ScenarioRegistry::create(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->factory() : nullptr;
}

bool ScenarioRegistry::known(const std::string& name) const {
  return find(name) != nullptr;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

std::string ScenarioRegistry::suggest(const std::string& name) const {
  return OptionSet::nearest(name, names());
}

std::string ScenarioRegistry::help_text() const {
  std::string out =
      "scenarios (--scenario NAME; scoped options via "
      "--scenario-opt key=value[,key=value...]):\n";
  for (const Entry& e : entries_) {
    std::unique_ptr<Scenario> sc = e.factory();
    out += "\n  " + e.name + " — " + e.summary + "\n";
    out += sc->options().option_lines(4);
  }
  return out;
}

namespace {

/// A flow an on_spawn observer sees stays pinned, since the observer may
/// keep it; the rest retire once quiet.
Experiment::Retire retire_unless_observed(const std::function<void(FlowSender&)>& on_spawn) {
  return on_spawn ? Experiment::Retire::kNever : Experiment::Retire::kWhenQuiet;
}

}  // namespace

ScenarioHarness::ScenarioHarness(Experiment& ex, Scenario& sc)
    : ex_(ex), sc_(sc),
      hosts_{ex.topo().hosts_per_dc(), ex.topo().num_dcs()} {}

void ScenarioHarness::note_spawn(FlowSender& sender) {
  ++spawn_count_;
  if (on_spawn_) on_spawn_(sender);
}

void ScenarioHarness::spawn(FlowSpec spec, std::uint64_t tag) {
  if (spec.start_time < cursor_) spec.start_time = cursor_;
  spec.interdc = hosts_.dc_of(spec.src) != hosts_.dc_of(spec.dst);
  FlowSender& sender = ex_.spawn(spec, retire_unless_observed(on_spawn_));
  if (tag != 0) tags_.emplace(sender.params().id, tag);
  note_spawn(sender);
}

void ScenarioHarness::spawn_reserved(FlowSpec spec) {
  spec.interdc = hosts_.dc_of(spec.src) != hosts_.dc_of(spec.dst);
  note_spawn(ex_.spawn_reserved(spec, retire_unless_observed(on_spawn_)));
}

void ScenarioHarness::deliver() {
  const std::vector<FlowResult>& record = ex_.fct().results();
  if (delivered_ == record.size()) return;
  // Canonical delivery order: a pure function of simulation content, never
  // of shard interleaving (the record holds each step's completions in
  // shard order until the end-of-run canonicalize). The batch is a copy so
  // the sort leaves the Experiment's record as it is.
  std::vector<FlowResult> batch(record.begin() + static_cast<std::ptrdiff_t>(delivered_),
                                record.end());
  delivered_ = record.size();
  std::sort(batch.begin(), batch.end(), finishes_before);
  for (const FlowResult& r : batch) {
    std::uint64_t tag = 0;
    if (auto it = tags_.find(r.id); it != tags_.end()) {
      tag = it->second;
      tags_.erase(it);
    }
    sc_.on_flow_complete(r, tag, *this);
  }
}

void ScenarioHarness::begin() {
  if (started_) return;
  started_ = true;
  cursor_ = ex_.now();
  sc_.start(*this);
  sc_.advance(*this, cursor_ + ex_.sync_chunk());
}

bool ScenarioHarness::run(Time deadline) {
  begin();
  const bool all_complete = ex_.run_to_completion(deadline, [this] {
    cursor_ = ex_.now();
    deliver();
    sc_.advance(*this, cursor_ + ex_.sync_chunk());
    return !sc_.done();
  });
  const bool finished = all_complete && sc_.done();
  // A deadline stopped the run with reserved flows left: spawn them, so
  // every planned flow is counted. They start after the deadline, so none
  // of them runs.
  sc_.advance(*this, kTimeInfinity);
  return finished;
}

}  // namespace uno
