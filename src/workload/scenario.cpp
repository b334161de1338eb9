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
  // Reuse the OptionSet parser (types, did-you-mean) by rendering each
  // assignment as a --key=value token. Later entries overwrite earlier ones.
  std::vector<std::string> tokens;
  tokens.reserve(kvs.size() + 1);
  tokens.push_back(name_);
  for (const auto& [k, v] : kvs) tokens.push_back("--" + k + "=" + v);
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

ScenarioHarness::ScenarioHarness(Experiment& ex, Scenario& sc)
    : ex_(ex), sc_(sc), chunk_(ex.sync_chunk()),
      hosts_{ex.topo().hosts_per_dc(), ex.topo().num_dcs()},
      delivered_(ex.fct().results().size()) {}

void ScenarioHarness::note_spawn(FlowSender& sender) {
  ++spawn_count_;
  if (on_spawn_) on_spawn_(sender);
}

void ScenarioHarness::spawn(FlowSpec spec, std::uint64_t tag) {
  if (spec.start_time < cursor_) spec.start_time = cursor_;
  spec.interdc = hosts_.dc_of(spec.src) != hosts_.dc_of(spec.dst);
  FlowSender& sender = ex_.spawn(spec, /*pinned=*/on_spawn_ != nullptr);
  if (tag != 0) tags_.emplace(sender.params().id, tag);
  note_spawn(sender);
}

void ScenarioHarness::reserve_starts() {
  ex_.reserve_starts();
  reserving_ = true;
}

void ScenarioHarness::spawn_reserved(FlowSpec spec) {
  spec.interdc = hosts_.dc_of(spec.src) != hosts_.dc_of(spec.dst);
  note_spawn(ex_.spawn_reserved(spec, /*pinned=*/on_spawn_ != nullptr));
}

void ScenarioHarness::deliver() {
  // The record is canonical at every sync point, so its new records arrive
  // in canonical order: a pure function of simulation content, never of
  // shard interleaving. Reactions spawn flows and add no record.
  const std::span<const FlowResult> record = ex_.fct().results();
  for (; delivered_ < record.size(); ++delivered_) {
    const FlowResult& r = record[delivered_];
    std::uint64_t tag = 0;
    if (auto it = tags_.find(r.id); it != tags_.end()) {
      tag = it->second;
      tags_.erase(it);
    }
    sc_.on_flow_complete(r, tag, *this);
  }
}

void ScenarioHarness::advance(Time next) {
  sc_.advance(*this, next);
  if (reserving_ && sc_.done()) {
    ex_.close_reservation();
    reserving_ = false;
  }
}

bool ScenarioHarness::sync() {
  cursor_ = ex_.now();
  deliver();
  advance(next_grid());
  return !sc_.done();
}

void ScenarioHarness::begin() {
  if (started_) return;
  started_ = true;
  cursor_ = origin_ = ex_.now();
  sc_.start(*this);
  advance(next_grid());
}

bool ScenarioHarness::run(Time deadline) {
  begin();
  // Chunked stepping: samplers and stragglers keep the queue non-empty, so
  // completion is checked at sync points, on a grid identical monolithic and
  // sharded (bounded-lag windows land exactly on chunk boundaries): the final
  // clock, every reaction and every digest are shard-count independent. A
  // run off the grid (stopped at its deadline, or moved by a bare
  // Experiment::run_until) steps on to the next grid point before it stops.
  bool more = sync();
  while (ex_.now() < deadline && (more || (ex_.now() - origin_) % chunk_ != 0 ||
                                  (!ex_.all_complete() && !ex_.idle()))) {
    const std::size_t spawned_before = ex_.flows_spawned();
    ex_.run_until(std::min(deadline, next_grid()));
    more = sync();
    // Stall: nothing in flight, and the scenario reacted to this chunk by
    // spawning nothing — it never will again.
    if (more && ex_.all_complete() && ex_.flows_spawned() == spawned_before) break;
  }
  const bool finished = ex_.all_complete() && sc_.done();
  // A deadline stopped the run with planned flows left: spawn them, so
  // every planned flow is counted. They start after the deadline.
  advance(kTimeInfinity);
  return finished;
}

}  // namespace uno
