// The built-in scenario library (DESIGN.md §16): open-loop Poisson mixes,
// incast, permutation and trace replay, the adversarial tornado matrix and
// Poisson RPC churn; closed-loop allreduce and GPU-cluster training.
#include "workload/scenario_lib.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "workload/cdf.hpp"

namespace uno {

// ---------------------------------------------------------------------------
// OpenLoopScenario

OpenLoopScenario::OpenLoopScenario(std::vector<FlowSpec> specs)
    : Scenario("specs", "a flow list given in code"), specs_(std::move(specs)) {
  std::stable_sort(specs_.begin(), specs_.end(), starts_before);
}

void OpenLoopScenario::start(ScenarioHarness& h) {
  draw();
  while (!exhausted_ && ahead_.start_time <= h.now()) {
    last_start_ = ahead_.start_time;
    h.spawn(ahead_);
    ++spawned_;
    draw();
  }
  if (!exhausted_) h.reserve_starts();
}

void OpenLoopScenario::advance(ScenarioHarness& h, Time next) {
  // Every flow that starts by `next`, then one more: a spawned flow that
  // has not started keeps the driver loop from stopping as stalled in an
  // arrival gap longer than every flow.
  while (!exhausted_ && (spawned_ == 0 || last_start_ <= next)) {
    last_start_ = ahead_.start_time;
    h.spawn_reserved(ahead_);
    ++spawned_;
    draw();
  }
}

bool OpenLoopScenario::next_spec(FlowSpec* out) {
  if (next_ == specs_.size()) return false;
  *out = specs_[next_++];
  return true;
}

void OpenLoopScenario::draw() {
  exhausted_ = !next_spec(&ahead_);
  assert((exhausted_ || spawned_ == 0 || ahead_.start_time >= last_start_) &&
         "a plan yields its flows in start order");
}

void OpenLoopScenario::report(MetricRegistry& m) const {
  m.set_counter("scenario." + name() + ".flows", spawned_);
}

namespace {

/// `mb` megabytes as a flow size of at least one byte. False, with a message
/// naming `opt`, unless `mb` is positive and its byte count fits 64 bits
/// (the cast is undefined past that).
bool mb_to_bytes(const std::string& scenario, const char* opt, double mb, std::uint64_t* bytes,
                 std::string* err) {
  const double b = mb * (1 << 20);
  if (mb <= 0 || b >= 0x1p64) {
    *err = scenario + ": " + opt + " must be positive and fit a 64-bit byte count";
    return false;
  }
  *bytes = static_cast<std::uint64_t>(std::max(1.0, b));
  return true;
}

/// `value` units as a Time. False, with a message naming `opt`, when the
/// product leaves the simulation clock's range (the cast is undefined there).
bool to_time(const std::string& scenario, const char* opt, double value, Time unit, Time* t,
             std::string* err) {
  const double ps = value * static_cast<double>(unit);
  if (ps <= -0x1p63 || ps >= 0x1p63) {
    *err = scenario + ": " + opt + " overflows the simulation clock";
    return false;
  }
  *t = static_cast<Time>(ps);
  return true;
}

/// Option `opt` (value `value`) as an int in [lo, hi]. False, with a message
/// naming the option and its range, otherwise: past int's range the cast is
/// undefined, and the value it produced could pass the checks that follow.
bool to_int(const std::string& scenario, const char* opt, double value, int lo, int hi,
            int* out, std::string* err) {
  if (!(value >= lo && value <= hi)) {
    *err = scenario + ": " + opt + " must be in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

/// Bound on tornado strides and rounds: a destination shift is
/// stride + round, which must not overflow.
constexpr int kMaxShift = 1 << 30;

/// A Poisson plan draws arrival gaps of this mean; under 1 ps its clock
/// stops advancing while the plan keeps growing.
bool arrival_gap_ok(const std::string& scenario, double mean_gap_ps, std::string* err) {
  if (mean_gap_ps >= 1) return true;
  *err = scenario + ": load too high (mean inter-arrival gap under 1 ps)";
  return false;
}

/// The Poisson generators draw a source and a distinct destination from the
/// first `active-hosts / num_dcs` hosts of each DC (all hosts when
/// `active_hosts` is 0), so each DC's pool needs two.
bool per_dc_pool_ok(const HostSpace& hosts, int active_hosts, std::string* err) {
  const int pool = active_hosts > 0 ? std::min(active_hosts, hosts.total()) : hosts.total();
  if (pool / hosts.num_dcs >= 2) return true;
  *err = "active-hosts must leave at least 2 hosts per DC (0 = all hosts)";
  return false;
}

double mean_us(const std::vector<Time>& ts) {
  if (ts.empty()) return 0;
  double sum = 0;
  for (Time t : ts) sum += to_microseconds(t);
  return sum / static_cast<double>(ts.size());
}

class PoissonScenario final : public OpenLoopScenario {
 public:
  PoissonScenario()
      : OpenLoopScenario("poisson",
                         "Poisson mixed intra+inter-DC traffic at controlled load "
                         "(websearch/Alibaba-WAN CDFs, Figs 10-12)") {
    opts_.add_num("load", 0.4, "F", "offered load fraction of host line rate");
    opts_.add_num("duration-ms", 5, "F", "arrival window");
    opts_.add_num("active-hosts", 64, "N", "participants (0 = all hosts)");
    opts_.add_num("size-scale", 1.0 / 32.0, "F", "scale factor for both CDFs");
    opts_.add_num("dc-wan-ratio", 4, "F", "intra:inter byte ratio (paper: 4:1)");
  }

 protected:
  bool resolve(std::string* err) override {
    PoissonConfig pc;
    pc.load = opts_.num("load");
    if (!to_time(name(), "duration-ms", opts_.num("duration-ms"), kMillisecond, &pc.duration,
                 err))
      return false;
    if (env().quick && !opts_.has("duration-ms")) pc.duration = kMillisecond;
    if (!to_int(name(), "active-hosts", opts_.num("active-hosts"), 0, INT_MAX,
                &pc.active_hosts, err))
      return false;
    pc.dc_wan_ratio = opts_.num("dc-wan-ratio");
    pc.host_rate = env().host_rate;
    pc.seed = env().seed;
    const double ss = opts_.num("size-scale");
    if (pc.load <= 0 || pc.duration <= 0) {
      *err = "poisson: load and duration-ms must be positive";
      return false;
    }
    if (ss <= 0) {
      *err = "poisson: size-scale must be positive";
      return false;
    }
    if (pc.dc_wan_ratio < 0) {
      *err = "poisson: dc-wan-ratio must be >= 0";
      return false;
    }
    if (!per_dc_pool_ok(env().hosts, pc.active_hosts, err)) {
      *err = "poisson: " + *err;
      return false;
    }
    const EmpiricalCdf intra = EmpiricalCdf::websearch().scaled(ss);
    const EmpiricalCdf inter = EmpiricalCdf::alibaba_wan().scaled(ss);
    if (!arrival_gap_ok(name(), poisson_mean_gap_ps(env().hosts, intra, inter, pc), err))
      return false;
    mix_.emplace(env().hosts, intra, inter, pc);
    return true;
  }

 public:
  bool next_spec(FlowSpec* out) override { return mix_ && mix_->next(out); }

 private:
  std::optional<PoissonMix> mix_;
};

class IncastScenario final : public OpenLoopScenario {
 public:
  IncastScenario()
      : OpenLoopScenario("incast",
                         "N synchronized senders into one receiver, half intra- half "
                         "inter-DC (Figs 3 and 8)") {
    opts_.add_num("flows", 8, "N", "senders (half intra, half inter)");
    opts_.add_num("size-mb", 8, "F", "bytes per sender");
    opts_.add_num("receiver", 0, "N", "receiver host id");
  }

 protected:
  bool resolve(std::string* err) override {
    int n = 0, receiver = 0;
    if (!to_int(name(), "flows", opts_.num("flows"), 1, INT_MAX, &n, err) ||
        !to_int(name(), "receiver", opts_.num("receiver"), 0, env().hosts.total() - 1,
                &receiver, err))
      return false;
    double mb = opts_.num("size-mb");
    if (env().quick && !opts_.has("size-mb")) mb = 1;
    std::uint64_t bytes = 0;
    if (!mb_to_bytes(name(), "size-mb", mb, &bytes, err)) return false;
    specs_ = make_incast(env().hosts, receiver, n / 2, n - n / 2, bytes);
    return true;
  }
};

class PermutationScenario final : public OpenLoopScenario {
 public:
  PermutationScenario()
      : OpenLoopScenario("permutation",
                         "random permutation: every host sends one flow to a distinct "
                         "peer across both DCs (Fig 9)") {
    opts_.add_num("size-mb", 8, "F", "bytes per flow");
  }

 protected:
  bool resolve(std::string* err) override {
    double mb = opts_.num("size-mb");
    if (env().quick && !opts_.has("size-mb")) mb = 1;
    std::uint64_t bytes = 0;
    if (!mb_to_bytes(name(), "size-mb", mb, &bytes, err)) return false;
    specs_ = make_permutation(env().hosts, bytes, env().seed);
    return true;
  }
};

class ReplayScenario final : public OpenLoopScenario {
 public:
  ReplayScenario()
      : OpenLoopScenario("replay", "replay a recorded flow list from a CSV trace") {
    opts_.add_str("file", "", "FILE", "CSV of src,dst,bytes,start_us");
  }

 protected:
  bool resolve(std::string* err) override {
    const std::string file = opts_.str("file");
    if (file.empty()) {
      *err = "replay scenario requires file=PATH (--scenario-opt file=trace.csv)";
      return false;
    }
    try {
      specs_ = load_flow_specs_csv(file, env().hosts);
    } catch (const std::exception& e) {
      *err = e.what();
      return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// The adversarial matrix: deterministic shifted permutations. `tornado`
// rotates the shift every round, the classic worst case for static load
// balancing; with rounds=1 it is one fixed shifted permutation.

std::vector<FlowSpec> make_shift_round(const HostSpace& hosts, int shift,
                                       double inter_frac, std::uint64_t bytes,
                                       Time start, int round) {
  std::vector<FlowSpec> specs;
  const int hpd = hosts.hosts_per_dc;
  const int n_inter =
      hosts.num_dcs > 1
          ? std::clamp(static_cast<int>(std::lround(inter_frac * hpd)), 0, hpd)
          : 0;
  for (int d = 0; d < hosts.num_dcs; ++d) {
    for (int local = 0; local < hpd; ++local) {
      int dst_local = ((local + shift) % hpd + hpd) % hpd;
      // The first n_inter local ids aim at the rotating next DC; everyone
      // else stays inside their DC.
      int dst_dc = d;
      if (local < n_inter)
        dst_dc = (d + 1 + round % (hosts.num_dcs - 1)) % hosts.num_dcs;
      if (dst_dc == d && dst_local == local) dst_local = (dst_local + 1) % hpd;
      const int src = d * hpd + local;
      const int dst = dst_dc * hpd + dst_local;
      specs.push_back({src, dst, bytes, start, dst_dc != d});
    }
  }
  return specs;
}

class TornadoScenario final : public OpenLoopScenario {
 public:
  TornadoScenario()
      : OpenLoopScenario("tornado",
                         "rotating shifted-permutation rounds (shift grows each "
                         "round) — the adversarial matrix for static load balancing") {
    opts_.add_num("stride", 1, "N", "base destination shift");
    opts_.add_num("rounds", 4, "N", "matrix rotations");
    opts_.add_num("gap-us", 0, "F", "delay between round starts (0 = burst)");
    opts_.add_num("inter-frac", 0.25, "F", "fraction of hosts sending inter-DC");
    opts_.add_num("size-mb", 4, "F", "bytes per flow");
  }

 protected:
  bool resolve(std::string* err) override {
    int rounds = 0, stride = 0;
    if (!to_int(name(), "rounds", opts_.num("rounds"), 1, kMaxShift, &rounds, err) ||
        !to_int(name(), "stride", opts_.num("stride"), -kMaxShift, kMaxShift, &stride, err))
      return false;
    double mb = opts_.num("size-mb");
    if (env().quick && !opts_.has("rounds")) rounds = 2;
    if (env().quick && !opts_.has("size-mb")) mb = 1;
    if (opts_.num("gap-us") < 0) {
      *err = "tornado: gap-us must be >= 0";
      return false;
    }
    // The last round starts at (rounds - 1) * gap-us, which must fit too.
    Time last_start = 0, gap = 0;
    if (!to_time(name(), "gap-us", opts_.num("gap-us") * (rounds - 1), kMicrosecond,
                 &last_start, err) ||
        !to_time(name(), "gap-us", opts_.num("gap-us"), kMicrosecond, &gap, err))
      return false;
    std::uint64_t bytes = 0;
    if (!mb_to_bytes(name(), "size-mb", mb, &bytes, err)) return false;
    specs_.clear();
    for (int r = 0; r < rounds; ++r) {
      auto round = make_shift_round(env().hosts, stride + r, opts_.num("inter-frac"), bytes,
                                    static_cast<Time>(r) * gap, r);
      specs_.insert(specs_.end(), round.begin(), round.end());
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Poisson short-RPC churn across N DCs: millions of user-request-sized flows
// (Google RPC CDF) at controlled load — the slab-flow-state stress workload.

class RpcChurnScenario final : public OpenLoopScenario {
 public:
  RpcChurnScenario()
      : OpenLoopScenario("rpc_churn",
                         "open-loop Poisson churn of short RPC-sized flows across all "
                         "DCs at controlled load") {
    opts_.add_num("load", 0.2, "F", "offered load fraction of host line rate");
    opts_.add_num("duration-ms", 5, "F", "arrival window");
    opts_.add_num("inter-frac", 0.1, "F", "probability an RPC crosses DCs");
    opts_.add_num("active-hosts", 0, "N", "participants (0 = all hosts)");
    opts_.add_num("size-scale", 1, "F", "scale factor for the RPC CDF");
  }

 protected:
  bool resolve(std::string* err) override {
    const HostSpace& hosts = env().hosts;
    const double load = opts_.num("load");
    if (!to_time(name(), "duration-ms", opts_.num("duration-ms"), kMillisecond, &duration_,
                 err))
      return false;
    if (env().quick && !opts_.has("duration-ms")) duration_ = kMillisecond;
    inter_frac_ = opts_.num("inter-frac");
    if (load <= 0 || duration_ <= 0) {
      *err = "rpc_churn: load and duration-ms must be positive";
      return false;
    }
    if (inter_frac_ < 0 || inter_frac_ > 1) {
      *err = "rpc_churn: inter-frac must be in [0, 1]";
      return false;
    }
    const double size_scale = opts_.num("size-scale");
    if (size_scale <= 0) {
      *err = "rpc_churn: size-scale must be positive";
      return false;
    }
    int active = 0;
    if (!to_int(name(), "active-hosts", opts_.num("active-hosts"), 0, INT_MAX, &active, err))
      return false;
    if (!per_dc_pool_ok(hosts, active, err)) {
      *err = "rpc_churn: " + *err;
      return false;
    }
    const int pool = active > 0 ? std::min(active, hosts.total()) : hosts.total();
    per_dc_ = pool / hosts.num_dcs;
    sizes_ = EmpiricalCdf::google_rpc().scaled(size_scale);
    const double aggregate_Bps = load * static_cast<double>(pool) *
                                 static_cast<double>(env().host_rate) / 8.0;
    mean_gap_ps_ = static_cast<double>(kSecond) / (aggregate_Bps / sizes_.mean());
    if (!arrival_gap_ok(name(), mean_gap_ps_, err)) return false;
    rng_ = Rng::stream(env().seed, 707);
    t_ = rng_.exponential(mean_gap_ps_);
    return true;
  }

 public:
  bool next_spec(FlowSpec* out) override {
    if (t_ >= static_cast<double>(duration_)) return false;
    const HostSpace& hosts = env().hosts;
    const int sdc = static_cast<int>(rng_.uniform_below(hosts.num_dcs));
    int ddc = sdc;
    if (hosts.num_dcs > 1 && rng_.uniform() < inter_frac_)
      ddc = (sdc + 1 +
             (hosts.num_dcs > 2 ? static_cast<int>(rng_.uniform_below(hosts.num_dcs - 1))
                                : 0)) %
            hosts.num_dcs;
    const int src = sdc * hosts.hosts_per_dc + static_cast<int>(rng_.uniform_below(per_dc_));
    int dst = ddc * hosts.hosts_per_dc + static_cast<int>(rng_.uniform_below(per_dc_));
    while (dst == src)
      dst = ddc * hosts.hosts_per_dc + static_cast<int>(rng_.uniform_below(per_dc_));
    const auto size = static_cast<std::uint64_t>(std::max(1.0, sizes_.sample(rng_)));
    *out = {src, dst, size, static_cast<Time>(t_), ddc != sdc};
    t_ += rng_.exponential(mean_gap_ps_);
    return true;
  }

 private:
  // The arrival process resolve() sets up; next_spec() draws from it.
  EmpiricalCdf sizes_;
  double mean_gap_ps_ = 0;
  double inter_frac_ = 0;
  Time duration_ = 0;
  int per_dc_ = 0;
  Rng rng_;
  double t_ = 0;  // the next arrival's start
};

template <class T>
std::unique_ptr<Scenario> make_scenario() {
  return std::make_unique<T>();
}

}  // namespace

// ---------------------------------------------------------------------------
// AllreduceScenario (closed-loop)

AllreduceScenario::AllreduceScenario()
    : Scenario("allreduce",
               "closed-loop inter-DC data-parallel gradient sync: grouped "
               "RS+AG exchanges, next iteration gated on the last transfer "
               "(Fig 13C)") {
  opts_.add_num("groups", 8, "N", "parallel allreduce rings (host pairs)");
  opts_.add_num("size-mb", 64, "F", "gradient bytes per iteration");
  opts_.add_num("iterations", 10, "N", "training iterations");
  opts_.add_num("compute-us", 0, "F", "compute gap between iterations");
}

bool AllreduceScenario::resolve(std::string* err) {
  if (!to_int(name(), "groups", opts_.num("groups"), 1, INT_MAX, &groups_, err) ||
      !to_int(name(), "iterations", opts_.num("iterations"), 1, INT_MAX, &iterations_, err))
    return false;
  double mb = opts_.num("size-mb");
  if (env().quick) {
    if (!opts_.has("size-mb")) mb = 4;
    if (!opts_.has("iterations")) iterations_ = 2;
  }
  if (!mb_to_bytes(name(), "size-mb", mb, &bytes_per_iteration_, err) ||
      !to_time(name(), "compute-us", opts_.num("compute-us"), kMicrosecond, &compute_time_,
               err))
    return false;
  if (env().hosts.num_dcs < 2) {
    *err = "allreduce: needs at least 2 DCs";
    return false;
  }
  return true;
}

void AllreduceScenario::start(ScenarioHarness& h) { start_iteration(h, h.now()); }

void AllreduceScenario::start_iteration(ScenarioHarness& h, Time start) {
  iteration_start_ = std::max(start, h.now());
  last_completion_ = 0;
  const std::uint64_t chunk =
      std::max<std::uint64_t>(bytes_per_iteration_ / static_cast<unsigned>(groups_), 1);
  const int hpd = env().hosts.hosts_per_dc;
  // ReduceScatter then AllGather: two chunk transfers in each direction per
  // group pair, all concurrent; the iteration ends when the last completes.
  outstanding_ = 0;
  for (int g = 0; g < groups_; ++g) {
    const int a = g % hpd;        // host in DC 0
    const int b = hpd + g % hpd;  // host in DC 1
    for (int phase = 0; phase < 2; ++phase) {  // RS and AG
      for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
        ++outstanding_;
        h.spawn({src, dst, chunk, iteration_start_, true}, /*tag=*/1);
      }
    }
  }
}

void AllreduceScenario::on_flow_complete(const FlowResult& r, std::uint64_t,
                                         ScenarioHarness& h) {
  last_completion_ = std::max(last_completion_, flow_finish_time(r));
  if (--outstanding_ > 0) return;
  iteration_times_.push_back(last_completion_ - iteration_start_);
  if (static_cast<int>(iteration_times_.size()) < iterations_)
    start_iteration(h, last_completion_ + compute_time_);
}

bool AllreduceScenario::done() const {
  return static_cast<int>(iteration_times_.size()) == iterations_;
}

void AllreduceScenario::report(MetricRegistry& m) const {
  m.set_counter("scenario.allreduce.iterations", iteration_times_.size());
  m.set_gauge("scenario.allreduce.mean_iter_us", mean_us(iteration_times_));
}

Time AllreduceScenario::ideal_iteration_time(Bandwidth cut_rate, Time inter_rtt) const {
  const std::uint64_t bytes_each_way = 2 * bytes_per_iteration_;  // RS + AG
  return serialization_time(static_cast<std::int64_t>(bytes_each_way), cut_rate) +
         inter_rtt;
}

// ---------------------------------------------------------------------------
// GpuClusterScenario (closed-loop)
//
// Tag layout: kind(1=fwd,2=bwd,3=grad) << 32 | job << 24 | dc << 16 |
// microbatch << 8 | hop. Forward hop h carries one microbatch's activations
// from stage h to h+1; backward hop h returns the aggregated wave from stage
// h+1 to h; gradient flows are the cross-DC ring exchanges per bucket.

namespace {
constexpr std::uint64_t kFwd = 1, kBwd = 2, kGrad = 3;
std::uint64_t gpu_tag(std::uint64_t kind, int job, int dc, int mb, int hop) {
  return (kind << 32) | (static_cast<std::uint64_t>(job) << 24) |
         (static_cast<std::uint64_t>(dc) << 16) |
         (static_cast<std::uint64_t>(mb) << 8) | static_cast<std::uint64_t>(hop);
}
}  // namespace

GpuClusterScenario::GpuClusterScenario()
    : Scenario("gpu_cluster",
               "multi-job pipeline+data-parallel training: activation chains "
               "per DC, backward wave, per-bucket cross-DC gradient allreduce "
               "overlapped with backward compute; GPUs locally reduce over an "
               "NVLink-class interconnect before the NIC") {
  opts_.add_num("jobs", 2, "N", "concurrent training jobs");
  opts_.add_num("pp-stages", 4, "N", "pipeline stages per replica (>= 2)");
  opts_.add_num("microbatches", 4, "N", "microbatches per iteration");
  opts_.add_num("buckets", 4, "N", "gradient buckets per stage (overlap grain)");
  opts_.add_num("iterations", 2, "N", "training iterations");
  opts_.add_num("act-mb", 4, "F", "activation bytes per microbatch per hop");
  opts_.add_num("size-mb", 64, "F", "gradient bytes per replica per iteration");
  opts_.add_num("gpus-per-host", 8, "N", "GPUs sharing one host NIC");
  opts_.add_num("nvlink-gbps", 900, "F", "intra-host interconnect rate");
  opts_.add_num("compute-us", 50, "F", "compute gap between iterations");
}

bool GpuClusterScenario::resolve(std::string* err) {
  // Jobs, stages and microbatches are 8-bit fields of a flow's tag.
  if (!to_int(name(), "jobs", opts_.num("jobs"), 1, 255, &jobs_, err) ||
      !to_int(name(), "pp-stages", opts_.num("pp-stages"), 2, 255, &pp_stages_, err) ||
      !to_int(name(), "microbatches", opts_.num("microbatches"), 1, 255, &microbatches_,
              err) ||
      !to_int(name(), "buckets", opts_.num("buckets"), 1, INT_MAX, &buckets_, err) ||
      !to_int(name(), "iterations", opts_.num("iterations"), 1, INT_MAX, &iterations_, err) ||
      !to_int(name(), "gpus-per-host", opts_.num("gpus-per-host"), 1, INT_MAX,
              &gpus_per_host_, err))
    return false;
  double act_mb = opts_.num("act-mb");
  double grad_mb = opts_.num("size-mb");
  if (env().quick) {
    if (!opts_.has("act-mb")) act_mb = 1;
    if (!opts_.has("size-mb")) grad_mb = 8;
    if (!opts_.has("iterations")) iterations_ = 1;
    if (!opts_.has("microbatches")) microbatches_ = 2;
  }
  if (!mb_to_bytes(name(), "act-mb", act_mb, &act_bytes_, err) ||
      !mb_to_bytes(name(), "size-mb", grad_mb, &grad_bytes_, err) ||
      !to_time(name(), "compute-us", opts_.num("compute-us"), kMicrosecond, &compute_time_,
               err))
    return false;
  const double nvlink_bps = opts_.num("nvlink-gbps") * static_cast<double>(kGbps);
  if (nvlink_bps < 1 || nvlink_bps >= 0x1p63) {
    *err = "gpu_cluster: nvlink-gbps must be positive and fit a 64-bit bit rate";
    return false;
  }
  nvlink_rate_ = static_cast<Bandwidth>(nvlink_bps);
  if (env().hosts.num_dcs < 2) {
    *err = "gpu_cluster: data parallelism spans DCs; needs at least 2";
    return false;
  }
  if (jobs_ * pp_stages_ > env().hosts.hosts_per_dc) {
    *err = "gpu_cluster: jobs*pp-stages exceeds hosts per DC (" +
           std::to_string(env().hosts.hosts_per_dc) + ")";
    return false;
  }
  return true;
}

int GpuClusterScenario::stage_host(int job, int stage, int dc) const {
  return dc * env().hosts.hosts_per_dc + job * pp_stages_ + stage;
}

Time GpuClusterScenario::nvlink_delay() const {
  // Local ring reduce of one stage's gradient shard across the host's GPUs:
  // bytes * (g-1)/g cross the NVLink-class interconnect before the NIC flow
  // can start.
  const auto per_stage =
      static_cast<std::int64_t>(grad_bytes_ / static_cast<unsigned>(pp_stages_));
  return serialization_time(per_stage * (gpus_per_host_ - 1) / gpus_per_host_,
                            nvlink_rate_);
}

void GpuClusterScenario::start(ScenarioHarness& h) { start_iteration(h, h.now()); }

void GpuClusterScenario::start_iteration(ScenarioHarness& h, Time start) {
  iteration_start_ = std::max(start, h.now());
  last_completion_ = 0;
  jobs_finished_ = 0;
  const int num_dcs = env().hosts.num_dcs;
  job_state_.assign(static_cast<std::size_t>(jobs_), Job{});
  for (Job& j : job_state_) {
    j.fwd_arrived.assign(static_cast<std::size_t>(num_dcs), 0);
    j.grad_ready.assign(static_cast<std::size_t>(pp_stages_), 0);
    j.grad_ready_time.assign(static_cast<std::size_t>(pp_stages_), 0);
    // Per stage: buckets x 2 ring phases x one flow per DC hop.
    j.grad_outstanding = pp_stages_ * buckets_ * 2 * num_dcs;
  }
  for (int job = 0; job < jobs_; ++job)
    for (int dc = 0; dc < num_dcs; ++dc)
      spawn_fwd(h, job, dc, /*mb=*/0, /*hop=*/0, iteration_start_);
}

void GpuClusterScenario::spawn_fwd(ScenarioHarness& h, int job, int dc, int mb,
                                   int hop, Time start) {
  h.spawn({stage_host(job, hop, dc), stage_host(job, hop + 1, dc), act_bytes_, start,
           false},
          gpu_tag(kFwd, job, dc, mb, hop));
}

void GpuClusterScenario::spawn_bwd(ScenarioHarness& h, int job, int dc, int hop,
                                   Time start) {
  // The backward wave is one aggregated transfer per hop (all microbatches'
  // activation gradients), walking the stages in reverse.
  h.spawn({stage_host(job, hop + 1, dc), stage_host(job, hop, dc),
           act_bytes_ * static_cast<unsigned>(microbatches_), start, false},
          gpu_tag(kBwd, job, dc, 0, hop));
}

bool GpuClusterScenario::mark_grad_ready(Job& j, int stage, Time t) const {
  Time& ready = j.grad_ready_time[static_cast<std::size_t>(stage)];
  ready = std::max(ready, t);
  return ++j.grad_ready[static_cast<std::size_t>(stage)] == env().hosts.num_dcs;
}

void GpuClusterScenario::spawn_grads(ScenarioHarness& h, int job, int stage,
                                     Time ready) {
  const int num_dcs = env().hosts.num_dcs;
  const std::uint64_t bucket_bytes = std::max<std::uint64_t>(
      grad_bytes_ / static_cast<unsigned>(pp_stages_ * buckets_), 1);
  for (int b = 0; b < buckets_; ++b)
    for (int phase = 0; phase < 2; ++phase)  // RS then AG ring passes
      for (int dc = 0; dc < num_dcs; ++dc)
        h.spawn({stage_host(job, stage, dc), stage_host(job, stage, (dc + 1) % num_dcs),
                 bucket_bytes, ready, true},
                gpu_tag(kGrad, job, dc, b, stage));
}

void GpuClusterScenario::on_flow_complete(const FlowResult& r, std::uint64_t tag,
                                          ScenarioHarness& h) {
  const auto kind = tag >> 32;
  const int job = static_cast<int>((tag >> 24) & 0xff);
  const int dc = static_cast<int>((tag >> 16) & 0xff);
  const int mb = static_cast<int>((tag >> 8) & 0xff);
  const int hop = static_cast<int>(tag & 0xff);
  Job& j = job_state_[static_cast<std::size_t>(job)];
  const Time fin = flow_finish_time(r);

  if (kind == kFwd) {
    // Pipeline: this microbatch moves to the next hop; hop 0 freeing up
    // admits the next microbatch into the pipeline.
    if (hop == 0 && mb + 1 < microbatches_) spawn_fwd(h, job, dc, mb + 1, 0, fin);
    if (hop + 1 <= pp_stages_ - 2) {
      spawn_fwd(h, job, dc, mb, hop + 1, fin);
    } else if (++j.fwd_arrived[static_cast<std::size_t>(dc)] == microbatches_) {
      // All microbatches through this DC's pipeline: the last stage starts
      // its backward pass — its gradients are the first ready — and the
      // backward wave walks toward stage 0.
      if (mark_grad_ready(j, pp_stages_ - 1, fin))
        spawn_grads(h, job, pp_stages_ - 1,
                    j.grad_ready_time[static_cast<std::size_t>(pp_stages_ - 1)] +
                        nvlink_delay());
      spawn_bwd(h, job, dc, pp_stages_ - 2, fin);
    }
    return;
  }

  if (kind == kBwd) {
    // Backward hop `hop` landed: stage `hop` now has what it needs to run
    // its backward pass in this DC. Its gradients join the cross-DC
    // allreduce once every DP replica (= every DC) reaches the same point —
    // that barrier is the collective's semantics.
    if (mark_grad_ready(j, hop, fin))
      spawn_grads(h, job, hop,
                  j.grad_ready_time[static_cast<std::size_t>(hop)] + nvlink_delay());
    if (hop > 0) spawn_bwd(h, job, dc, hop - 1, fin);
    return;
  }

  // kGrad: one ring exchange done.
  last_completion_ = std::max(last_completion_, fin);
  if (--j.grad_outstanding > 0) return;
  if (++jobs_finished_ < jobs_) return;
  iteration_times_.push_back(last_completion_ - iteration_start_);
  if (++iterations_done_ < iterations_)
    start_iteration(h, last_completion_ + compute_time_);
}

bool GpuClusterScenario::done() const { return iterations_done_ == iterations_; }

void GpuClusterScenario::report(MetricRegistry& m) const {
  m.set_counter("scenario.gpu_cluster.iterations", iteration_times_.size());
  m.set_gauge("scenario.gpu_cluster.mean_iter_us", mean_us(iteration_times_));
  m.set_gauge("scenario.gpu_cluster.nvlink_delay_us", to_microseconds(nvlink_delay()));
}

// ---------------------------------------------------------------------------

void register_builtin_scenarios(ScenarioRegistry& r) {
  r.add(&make_scenario<PoissonScenario>);
  r.add(&make_scenario<IncastScenario>);
  r.add(&make_scenario<PermutationScenario>);
  r.add(&make_scenario<ReplayScenario>);
  r.add(&make_scenario<AllreduceScenario>);
  r.add(&make_scenario<GpuClusterScenario>);
  r.add(&make_scenario<TornadoScenario>);
  r.add(&make_scenario<RpcChurnScenario>);
}

}  // namespace uno
