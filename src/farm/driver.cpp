#include "farm/driver.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <iterator>
#include <string_view>
#include <system_error>
#include <thread>

#include "core/parallel.hpp"
#include "core/sim_options.hpp"
#include "farm/cache.hpp"
#include "farm/json.hpp"
#include "obs/recorder.hpp"

namespace uno {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

CommandBuilder sim_command(const std::string& sim_binary) {
  return [sim_binary, sim_opts = make_sim_options()](const FarmCell& cell,
                                                     const std::string& result_path) {
    std::vector<std::string> argv{sim_binary, "--one-cell", result_path};
    std::string scenario_opts;
    for (const auto& [key, value] : cell.config) {
      // A scenario key joins the cell's one --scenario-opt. Flags: "--key"
      // when true, omitted when false; typed options are passed as the
      // canonical "--key=value" spelling.
      if (!sim_opts.known(key))
        scenario_opts += (scenario_opts.empty() ? "" : ",") + key + "=" + value;
      else if (value == "true")
        argv.push_back("--" + key);
      else if (value != "false")
        argv.push_back("--" + key + "=" + value);
    }
    if (!scenario_opts.empty()) argv.push_back("--scenario-opt=" + scenario_opts);
    return argv;
  };
}

namespace {

/// One in-flight child process.
struct Attempt {
  pid_t pid = -1;
  std::size_t cell = 0;
  int number = 1;  // 1-based attempt counter
  Clock::time_point deadline{};
  bool has_deadline = false;
  bool timed_out = false;
  std::string tmp;  // result path the child writes
};

/// A failed attempt waiting out its backoff.
struct Retry {
  Clock::time_point when;
  std::size_t cell = 0;
  int next_attempt = 2;
};

pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, -1)
  // Child: stdout/stderr -> per-cell log (appended across attempts), then
  // exec. Only async-signal-safe calls from here on.
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    if (fd > STDERR_FILENO) ::close(fd);
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  ::execvp(cargv[0], cargv.data());
  ::_exit(127);
}

bool make_dir(const std::string& path, std::string* err) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    *err = "cannot create " + path + ": " + ec.message();
    return false;
  }
  return true;
}

/// The merged table's numeric columns, each one key of a cell's result
/// document (uno_sim's --metrics registry); '*' stands for the scenario's
/// name. A key the document lacks leaves its cell empty.
struct ResultColumn {
  const char* header;
  const char* key;
};
constexpr ResultColumn kResultColumns[] = {
    {"mean_us", "fct.all.mean_us"},
    {"p50_us", "fct.all.p50_us"},
    {"p99_us", "fct.all.p99_us"},
    {"max_us", "fct.all.max_us"},
    {"mean_slowdown", "fct.all.mean_slowdown"},
    {"p99_slowdown", "fct.all.p99_slowdown"},
    {"intra_mean_us", "fct.intra.mean_us"},
    {"intra_p99_us", "fct.intra.p99_us"},
    {"intra_p99_slowdown", "fct.intra.p99_slowdown"},
    {"inter_mean_us", "fct.inter.mean_us"},
    {"inter_p99_us", "fct.inter.p99_us"},
    {"inter_p99_slowdown", "fct.inter.p99_slowdown"},
    {"drops", "fabric.drops"},
    {"trims", "fabric.trims"},
    {"sim_ms", "sim.time_ms"},
    // Closed-loop scenarios only (allreduce, gpu_cluster); empty otherwise.
    {"iterations", "scenario.*.iterations"},
    {"mean_iter_us", "scenario.*.mean_iter_us"},
};

bool key_matches(std::string_view name, std::string_view key) {
  const std::size_t star = key.find('*');
  if (star == std::string_view::npos) return name == key;
  const std::string_view head = key.substr(0, star), tail = key.substr(star + 1);
  return name.size() > head.size() + tail.size() && name.starts_with(head) &&
         name.ends_with(tail);
}

/// "completed/spawned", done, then kResultColumns pulled out of one cached
/// result document. Numbers are re-rendered through json_number(), so the
/// merged row depends only on the cached bytes.
std::vector<std::string> result_cells(const JsonValue& doc) {
  const auto num = [&doc](std::string_view key) {
    for (const auto& [name, v] : doc.object)
      if (v.is_number() && key_matches(name, key)) return json_number(v.number);
    return std::string();
  };
  std::vector<std::string> cells{num("flows.completed") + "/" + num("flows.spawned"),
                                 num("done") == "1" ? "yes" : "NO"};
  for (const ResultColumn& c : kResultColumns) cells.push_back(num(c.key));
  return cells;
}

bool write_merged(const FarmPlan& plan, const std::vector<std::string>& keys,
                  const FarmReport& report, const ResultCache& cache,
                  const std::string& out_dir, std::string* merged_path,
                  std::string* err) {
  Recorder rec(out_dir);
  Recorder::Csv csv = rec.csv("merged.csv");
  if (!csv.ok()) {
    *err = "cannot write merged.csv under " + out_dir;
    return false;
  }
  std::vector<std::string> header{"cell"};
  header.insert(header.end(), plan.coord_keys.begin(), plan.coord_keys.end());
  // "completed", not "flows": a dimension may itself be named flows.
  header.emplace_back("completed");
  header.emplace_back("done");
  for (const ResultColumn& c : kResultColumns) header.emplace_back(c.header);
  header.emplace_back("status");
  csv.row(header);

  for (const FarmCell& cell : plan.cells) {
    std::vector<std::string> row{std::to_string(cell.index)};
    for (const std::string& k : plan.coord_keys) {
      std::string v;
      for (const auto& [ck, cv] : cell.coords)
        if (ck == k) v = cv;
      row.push_back(v);
    }
    const CellOutcome& o = report.outcomes[cell.index];
    if (o.status == CellOutcome::Status::kOk) {
      std::string contents;
      JsonValue r;
      std::string detail;
      if (!cache.read(keys[cell.index], &contents) ||
          !json_parse(contents, &r, &detail)) {
        *err = "corrupt cache entry for cell " + std::to_string(cell.index) + " (" +
               keys[cell.index] + "): " + detail;
        return false;
      }
      for (std::string& c : result_cells(r)) row.push_back(std::move(c));
      row.push_back("ok");
    } else {
      row.resize(row.size() + 2 + std::size(kResultColumns));
      row.push_back("failed");
    }
    csv.row(row);
  }
  *merged_path = rec.path_for("merged.csv");
  return true;
}

}  // namespace

bool run_farm(const FarmPlan& plan, const std::string& build_id,
              const std::string& out_dir, const FarmOptions& opts,
              const CommandBuilder& command, FarmReport* report, std::string* err) {
  *report = FarmReport{};
  report->cells = plan.cells.size();
  report->outcomes.assign(plan.cells.size(), CellOutcome{});

  ResultCache cache(out_dir + "/cache");
  const std::string tmp_dir = out_dir + "/tmp";
  const std::string log_dir = out_dir + "/logs";
  if (!make_dir(out_dir, err) || !make_dir(tmp_dir, err) || !make_dir(log_dir, err))
    return false;
  if (opts.fresh) {
    std::error_code ec;
    fs::remove_all(cache.dir(), ec);
  }
  if (!cache.ensure_dir(err)) return false;

  std::vector<std::string> keys;
  keys.reserve(plan.cells.size());
  for (const FarmCell& cell : plan.cells)
    keys.push_back(farm_cell_key(cell, build_id));

  // A cell is already settled when the cache holds its result (a hit) or
  // its failure record (a previous run finalized it as failed).
  std::deque<std::size_t> ready;
  for (const FarmCell& cell : plan.cells) {
    CellOutcome& o = report->outcomes[cell.index];
    CellFailure failure;
    if (cache.has(keys[cell.index])) {
      o.status = CellOutcome::Status::kOk;
      o.cache_hit = true;
      ++report->cache_hits;
    } else if (cache.read_failure(keys[cell.index], &failure)) {
      o.status = CellOutcome::Status::kFailed;
      o.from_record = true;
      o.attempts = failure.attempts;
      o.error = failure.error;
      ++report->failed;
    } else {
      ready.push_back(cell.index);
    }
  }

  const int jobs = resolve_jobs(opts.jobs);
  const int max_attempts = 1 + std::max(0, opts.retries);
  std::vector<Attempt> running;
  std::vector<Retry> delayed;
  std::vector<int> attempts_made(plan.cells.size(), 0);
  bool stopping = false;

  const auto finalize = [&](std::size_t cell, bool ok, int attempts,
                            const std::string& error) -> bool {
    CellOutcome& o = report->outcomes[cell];
    o.status = ok ? CellOutcome::Status::kOk : CellOutcome::Status::kFailed;
    o.attempts = attempts;
    o.error = error;
    if (!ok) ++report->failed;
    ++report->executed;
    if (opts.stop_after > 0 && report->executed >= opts.stop_after) stopping = true;
    return ok || cache.store_failure(keys[cell], {attempts, error}, err);
  };

  const auto launch = [&](std::size_t cell, int attempt_no) -> bool {
    Attempt a;
    a.cell = cell;
    a.number = attempt_no;
    a.tmp = tmp_dir + "/cell" + std::to_string(cell) + "_a" +
            std::to_string(attempt_no) + ".json";
    std::error_code ec;
    fs::remove(a.tmp, ec);
    attempts_made[cell] = attempt_no;
    const std::string log = log_dir + "/cell" + std::to_string(cell) + ".log";
    a.pid = spawn(command(plan.cells[cell], a.tmp), log);
    if (opts.timeout_s > 0) {
      a.deadline = Clock::now() + std::chrono::microseconds(
                                      static_cast<long>(opts.timeout_s * 1e6));
      a.has_deadline = true;
    }
    if (a.pid < 0) return false;  // fork failure: treat as a failed attempt
    running.push_back(a);
    return true;
  };

  const auto attempt_failed = [&](std::size_t cell, int attempt_no,
                                  const std::string& error, bool final = false) -> bool {
    // When interrupting, a mid-retry cell is left pending (no failure
    // record) so the resume gets its full retry budget back.
    if (stopping) return true;
    if (!final && attempt_no < max_attempts) {
      const double delay_ms = opts.backoff_ms * static_cast<double>(1 << (attempt_no - 1));
      delayed.push_back({Clock::now() + std::chrono::microseconds(
                                            static_cast<long>(delay_ms * 1e3)),
                         cell, attempt_no + 1});
      return true;
    }
    return finalize(cell, false, attempt_no, error);
  };

  while (!ready.empty() || !delayed.empty() || !running.empty()) {
    if (stopping) {
      ready.clear();
      delayed.clear();
    }
    const auto now = Clock::now();

    // Backoffs that have elapsed rejoin the ready queue.
    for (std::size_t i = 0; i < delayed.size();) {
      if (delayed[i].when <= now) {
        ready.push_front(delayed[i].cell);  // retries run before fresh cells
        delayed[i] = delayed.back();
        delayed.pop_back();
      } else {
        ++i;
      }
    }

    while (static_cast<int>(running.size()) < jobs && !ready.empty()) {
      const std::size_t cell = ready.front();
      ready.pop_front();
      const int attempt_no = attempts_made[cell] + 1;
      if (!launch(cell, attempt_no)) {
        if (!attempt_failed(cell, attempt_no, "fork failed")) return false;
      }
    }

    // Kill attempts that blew their budget; the reap below sees the signal.
    for (Attempt& a : running) {
      if (a.has_deadline && !a.timed_out && now > a.deadline) {
        ::kill(a.pid, SIGKILL);
        a.timed_out = true;
      }
    }

    bool reaped = false;
    for (std::size_t i = 0; i < running.size();) {
      Attempt& a = running[i];
      int status = 0;
      const pid_t r = ::waitpid(a.pid, &status, WNOHANG);
      if (r == 0) {
        ++i;
        continue;
      }
      reaped = true;
      const Attempt done = a;
      running[i] = running.back();
      running.pop_back();

      std::string error;
      // Exit 2 is the worker's configuration error (`uno_sim --one-cell`):
      // every attempt would fail the same way, so the first one is final.
      const bool config_error =
          !done.timed_out && WIFEXITED(status) && WEXITSTATUS(status) == 2;
      if (done.timed_out) {
        error = "timeout after " + json_number(opts.timeout_s) + "s";
      } else if (WIFSIGNALED(status)) {
        error = "signal " + std::to_string(WTERMSIG(status));
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        error = "exit " + std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      } else {
        std::error_code ec;
        const auto size = fs::file_size(done.tmp, ec);
        if (ec || size == 0) error = "worker exited 0 but wrote no result";
      }

      if (error.empty()) {
        if (!cache.store(keys[done.cell], done.tmp, err)) return false;
        if (!finalize(done.cell, true, done.number, "")) return false;
      } else {
        std::error_code ec;
        fs::remove(done.tmp, ec);
        if (!attempt_failed(done.cell, done.number, error, config_error)) return false;
      }
    }
    if (!reaped && !running.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (running.empty() && ready.empty() && !delayed.empty())
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  for (const CellOutcome& o : report->outcomes)
    if (o.status == CellOutcome::Status::kPending) report->stopped_early = true;

  // The merged table exists only in its final, deterministic form: plan
  // order, cached bytes, no scheduling artifacts. A partial farm writes none.
  if (!report->stopped_early) {
    if (!write_merged(plan, keys, *report, cache, out_dir, &report->merged_path, err))
      return false;
    report->merged_written = true;
  }
  return true;
}

}  // namespace uno
