#include "core/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/build_info.hpp"
#include "core/parallel.hpp"

namespace uno {

InterDcConfig Experiment::make_topo_config(const UnoConfig& uno, const SchemeSpec& scheme,
                                           int fattree_k, std::uint64_t seed) {
  InterDcConfig t;
  t.k = fattree_k > 0 ? fattree_k : uno.fattree_k;
  t.num_dcs = uno.num_dcs;
  t.cross_links = uno.cross_links;
  t.link_rate = uno.link_rate;
  t.seed = seed;
  t.cross_link_latency = t.cross_latency_for_rtt(uno.inter_rtt);
  // A per-pair RTT matrix translates entry-wise into per-pair WAN latencies
  // (>2-DC heterogeneous meshes); zero entries keep the scalar default.
  const std::size_t nd = static_cast<std::size_t>(t.num_dcs);
  if (uno.inter_rtt_matrix.size() == nd * nd) {
    t.cross_latency_matrix.assign(nd * nd, 0);
    for (std::size_t i = 0; i < nd * nd; ++i)
      if (uno.inter_rtt_matrix[i] > 0)
        t.cross_latency_matrix[i] = t.cross_latency_for_rtt(uno.inter_rtt_matrix[i]);
  }

  auto red_for = [&uno](std::int64_t capacity) {
    RedConfig red;
    red.enabled = true;
    red.min_bytes = static_cast<std::int64_t>(uno.red_min_fraction * static_cast<double>(capacity));
    red.max_bytes = static_cast<std::int64_t>(uno.red_max_fraction * static_cast<double>(capacity));
    return red;
  };

  // Intra-DC ports. Trimming is a fabric capability of the htsim-style
  // switches the paper builds on; it serves all schemes equally.
  t.queue.rate = uno.link_rate;
  t.queue.capacity_bytes = uno.queue_capacity;
  t.queue.trim = uno.trim_enabled;
  t.queue.red = red_for(uno.queue_capacity);
  auto phantom_red = [&uno](std::int64_t vcap) {
    RedConfig red;
    red.enabled = true;
    red.min_bytes =
        static_cast<std::int64_t>(uno.phantom_red_min_fraction * static_cast<double>(vcap));
    red.max_bytes =
        static_cast<std::int64_t>(uno.phantom_red_max_fraction * static_cast<double>(vcap));
    return red;
  };
  if (scheme.phantom_marking) {
    t.queue.phantom.enabled = true;
    t.queue.phantom.drain_fraction = uno.phantom_drain_fraction;
    const auto vcap = static_cast<std::int64_t>(uno.phantom_cap_intra_bdp *
                                                static_cast<double>(uno.intra_bdp()));
    t.queue.phantom.red = phantom_red(vcap);
    t.queue.phantom.cap_bytes = vcap;
  }

  // Host NIC TX port: same marking behaviour but effectively unbounded —
  // a host's own stack backpressures rather than dropping, so a window
  // burst larger than a switch buffer queues at the sender (self-inflicted
  // delay), exactly as in htsim's pacing-at-line-rate sender model.
  t.nic_queue = t.queue;
  t.nic_queue.capacity_bytes = 256ll << 20;

  // Uplink (edge->agg, agg->core) ports: same template, but their rate is
  // divided by the oversubscription factor and they host the QCN probes
  // when the Annulus add-on is active.
  t.uplink_queue = t.queue;
  if (uno.oversubscription > 1.0)
    t.uplink_queue.rate =
        static_cast<Bandwidth>(static_cast<double>(uno.link_rate) / uno.oversubscription);
  if (scheme.annulus) {
    t.uplink_queue.qcn.enabled = true;
    t.uplink_queue.qcn.threshold_bytes = uno.qcn_threshold;
    t.uplink_queue.qcn.min_interval = uno.qcn_min_interval;
  }

  // WAN-facing ports: same marking strategy, possibly deeper buffers, and
  // phantom thresholds sized to the inter-DC BDP (§2.3 / §4.1.3).
  t.border_queue = t.queue;
  t.border_queue.capacity_bytes = uno.border_queue_capacity;
  t.border_queue.red = red_for(uno.border_queue_capacity);
  if (scheme.phantom_marking) {
    const auto vcap = static_cast<std::int64_t>(uno.phantom_cap_inter_bdp *
                                                static_cast<double>(uno.inter_bdp()));
    t.border_queue.phantom.red = phantom_red(vcap);
    t.border_queue.phantom.cap_bytes = vcap;
  }
  if (scheme.annulus) {
    // core->border ports are source-side too (§2.2: Annulus helps when the
    // hot spot is near the source, before the datacenter boundary).
    t.border_queue.qcn.enabled = true;
    t.border_queue.qcn.threshold_bytes = uno.qcn_threshold;
    t.border_queue.qcn.min_interval = uno.qcn_min_interval;
  }
  return t;
}

void QcnDispatcher::notify(const Packet& p) {
  if (p.src_host < 0 || p.type != PacketType::kData) return;
  pending_.push_back({eq_.now() + delay_, p.src_host, p.flow_id});
  if (pending_.size() == 1) eq_.schedule_at(pending_.front().due, this);
}

void QcnDispatcher::on_event(std::uint64_t) {
  const PendingQcn q = pending_.front();
  pending_.pop_front();
  Packet p;
  p.type = PacketType::kQcn;
  p.flow_id = q.flow_id;
  p.size = kAckSize;
  ++delivered_;
  topo_.host(q.host).receive(std::move(p));
  if (!pending_.empty()) eq_.schedule_at(pending_.front().due, this);
}

namespace {

std::vector<std::unique_ptr<EventQueue>> make_queues(int n) {
  std::vector<std::unique_ptr<EventQueue>> qs;
  for (int s = 0; s < n; ++s) qs.push_back(std::make_unique<EventQueue>());
  return qs;
}

}  // namespace

int Experiment::resolve_shards(const ExperimentConfig& cfg) {
  int n = cfg.shards == 0 ? resolve_jobs(0) : cfg.shards;
  if (n < 1) n = 1;
  // Fault scripts mutate links and queues from shard 0's timeline, which is
  // only safe when there is exactly one shard.
  if (!cfg.faults.empty()) n = 1;
  // Partition atoms are whole DCs (border tier included — the seam is the
  // cross links), so more shards than DCs cannot help.
  return std::min(n, std::max(1, cfg.uno.num_dcs));
}

Experiment::Experiment(const ExperimentConfig& cfg)
    : cfg_(cfg), eqs_(make_queues(resolve_shards(cfg_))) {
  const int nshards = static_cast<int>(eqs_.size());

  // DC d lives on shard d * nshards / num_dcs (contiguous blocks; the
  // identity map in the common shards == num_dcs case).
  const int ndcs = std::max(1, cfg_.uno.num_dcs);
  std::vector<EventQueue*> atom_map;
  if (nshards == 1) {
    atom_map.push_back(eqs_[0].get());
  } else {
    for (int d = 0; d < ndcs; ++d) atom_map.push_back(eqs_[d * nshards / ndcs].get());
  }
  for (int s = 0; s < nshards; ++s) pools_.push_back(std::make_unique<SlabPool>());
  topo_ = std::make_unique<InterDcTopology>(
      atom_map,
      make_topo_config(cfg_.uno, cfg_.scheme, cfg_.fattree_k, cfg_.seed));
  fct_ = FctCollector(
      FctCollector::pipe_ideal(cfg_.uno.link_rate, cfg_.uno.intra_rtt, cfg_.uno.inter_rtt));
  if (cfg_.trace.enabled) {
    Tracer::Options topt;
    topt.categories = cfg_.trace.categories;
    topt.ring_capacity = cfg_.trace.ring_capacity;
    topt.depth_sample_interval = cfg_.trace.depth_sample_interval;
    // One tracer per shard: the Tracer staging buffer is single-writer, so
    // each shard thread emits into its own. Components register in
    // topology-build order — a pure function of the config — so traces are
    // byte-identical across runs and --jobs levels; tracer() merges the
    // per-shard tracers in shard order for export.
    for (int s = 0; s < nshards; ++s) tracers_.push_back(std::make_unique<Tracer>(topt));
    if (nshards == 1) {
      for (Queue* q : topo_->all_queues())
        q->set_trace({tracers_[0].get(), tracers_[0]->add_component(q->name())});
    } else {
      for (int d = 0; d < ndcs; ++d) {
        Tracer* tr = tracers_[shard_of(d)].get();
        for (Queue* q : topo_->atom_queues(d))
          q->set_trace({tr, tr->add_component(q->name())});
      }
    }
  }
  if (cfg_.scheme.annulus) {
    // One dispatcher per DC so notify/deliver stays inside the DC's shard.
    // Source-side ports only ever carry packets sourced in their own DC
    // (routes climb in the source DC), so delivery never crosses the seam.
    for (int d = 0; d < topo_->num_dcs(); ++d) {
      qcn_.push_back(std::make_unique<QcnDispatcher>(*atom_map[nshards == 1 ? 0 : d],
                                                     *topo_, cfg_.uno.qcn_feedback_delay));
      QcnDispatcher* qd = qcn_.back().get();
      for (Queue* q : topo_->source_side_queues(d))
        q->set_qcn_hook([qd](const Packet& p) { qd->notify(p); });
    }
  }
  // The injector draws from its own RNG stream family off the experiment
  // seed, so adding/removing faults never perturbs workload or LB draws.
  // resolve_shards forces a monolithic run whenever a plan is present.
  if (!cfg_.faults.empty()) {
    faults_ = std::make_unique<FaultInjector>(*eqs_[0], *topo_, cfg_.faults, cfg_.seed);
    if (!tracers_.empty())
      faults_->set_trace({tracers_[0].get(), tracers_[0]->add_component("faults")});
  }
  if (nshards > 1) {
    std::vector<EventQueue*> qs;
    for (auto& q : eqs_) qs.push_back(q.get());
    std::vector<CrossShardChannel*> chans;
    for (ChannelLink* c : topo_->all_channels()) chans.push_back(c);
    runner_ = std::make_unique<ShardRunner>(std::move(qs), std::move(chans));
  }
  pending_completions_.resize(nshards);
  quiet_.resize(nshards);
  envs_.reserve(nshards);
  for (int s = 0; s < nshards; ++s) {
    // Completion fires on the sender's shard thread (the one thread when
    // monolithic); park the record and let run_until's drain apply it, with
    // the path release (the store is main-thread-only), in shard order.
    auto park = [this, s](const FlowResult& r) { pending_completions_[s].push_back(r); };
    envs_.push_back(FlowEnv{*eqs_[s], stacks_, pools_[s].get(), park,
                            tracers_.empty() ? nullptr : tracers_[s].get(), &quiet_[s]});
  }
}

Time Experiment::now() const { return runner_ ? runner_->now() : eqs_[0]->now(); }

std::uint64_t Experiment::events_dispatched() const {
  std::uint64_t n = 0;
  for (const auto& q : eqs_) n += q->dispatched();
  return n;
}

std::uint64_t Experiment::qcn_delivered() const {
  std::uint64_t n = 0;
  for (const auto& qd : qcn_) n += qd->delivered();
  return n;
}

Tracer* Experiment::tracer() {
  if (tracers_.empty()) return nullptr;
  if (!runner_) return tracers_[0].get();
  // Sharded: rebuild the merged view (cheap relative to export, and always
  // consistent with the rings at the time of the call).
  merged_tracer_ = std::make_unique<Tracer>(tracers_[0]->options());
  for (const auto& t : tracers_) merged_tracer_->absorb(*t);
  return merged_tracer_.get();
}

const Tracer* Experiment::tracer() const {
  return const_cast<Experiment*>(this)->tracer();
}

FlowParams Experiment::flow_params(const FlowSpec& spec) const {
  FlowParams p;
  p.src = spec.src;
  p.dst = spec.dst;
  p.size_bytes = spec.size_bytes;
  p.mtu = cfg_.uno.mtu;
  p.start_time = spec.start_time;
  p.interdc = spec.interdc;
  p.base_rtt = spec.interdc
                   ? cfg_.uno.inter_rtt_for(topo_->dc_of(spec.src), topo_->dc_of(spec.dst))
                   : cfg_.uno.intra_rtt;
  p.ec_enabled = spec.interdc && cfg_.scheme.ec_inter;
  p.ec_data = cfg_.uno.ec_data;
  p.ec_parity = cfg_.uno.ec_parity;
  p.block_timeout = cfg_.uno.block_timeout;
  return p;
}

CcParams Experiment::cc_params(const FlowSpec& spec) const {
  return SchemeStackFactory::cc_params(flow_params(spec), cfg_.uno);
}

CcParams SchemeStackFactory::cc_params(const FlowParams& params, const UnoConfig& uno) {
  CcParams c;
  c.base_rtt = params.base_rtt;
  c.intra_rtt = uno.intra_rtt;
  c.line_rate = uno.link_rate;
  c.mtu = params.mtu;
  c.flow_bytes = static_cast<std::int64_t>(params.size_bytes);
  return c;
}

FlowStack SchemeStackFactory::build(const FlowParams& params, std::uint16_t num_paths) const {
  const SchemeSpec& s = cfg_.scheme;
  return {make_cc(params.interdc ? s.cc_inter : s.cc_intra, cc_params(params, cfg_.uno),
                  cfg_.uno),
          make_lb(params.interdc ? s.lb_inter : s.lb_intra, params.id, num_paths,
                  params.base_rtt, cfg_.uno, cfg_.seed)};
}

Flow& Experiment::add_flow(const FlowSpec& spec, bool pinned) {
  assert(spec.src != spec.dst);
  assert(spec.src < topo_->num_hosts() && spec.dst < topo_->num_hosts());
  assert(spec.interdc == topo_->is_interdc(spec.src, spec.dst));

  FlowParams params = flow_params(spec);
  params.id = ++spawned_;  // ids are dense from 1

  // Acquired for the flow's lifetime; the completion path releases the pair
  // so idle route slabs can be evicted after their quarantine. Spawns always
  // run on the main thread (before the run or between windows), so the path
  // store never sees concurrent access.
  const PathSet& paths = topo_->acquire_paths(spec.src, spec.dst, now());

  const int src_shard = shard_of(topo_->dc_of(spec.src));
  const int dst_shard = shard_of(topo_->dc_of(spec.dst));
  auto flow = std::make_unique<Flow>(envs_[src_shard], envs_[dst_shard],
                                     topo_->host(spec.src), topo_->host(spec.dst), params,
                                     &paths);
  if (!tracers_.empty()) {
    const std::string cname = "flow:" + std::to_string(params.id);
    Tracer* ts = tracers_[src_shard].get();
    if (src_shard == dst_shard) {
      flow->set_trace({ts, ts->add_component(cname)});
    } else {
      Tracer* td = tracers_[dst_shard].get();
      flow->set_trace({ts, ts->add_component(cname)}, {td, td->add_component(cname)});
    }
  }
  Record& rec = records_.at(params.id);
  rec = {std::move(flow), pinned};
  return *rec.flow;
}

FlowSender& Experiment::spawn(const FlowSpec& spec, bool pinned) {
  Flow& flow = add_flow(spec, pinned);
  flow.start();
  return flow.sender();
}

void Experiment::reserve_starts() {
  // The keys of an open reservation are still owed to its plan's unspawned
  // flows; replacing them would hand those flows numbers given to other
  // events.
  if (reserving_)
    throw std::logic_error("reserve_starts: the last reservation is still open");
  start_keys_.clear();
  for (auto& q : eqs_) start_keys_.push_back(q->reserve_seqs(kOpenReservation));
  reserved_spawned_ = 0;
  reserving_ = true;
}

FlowSender& Experiment::spawn_reserved(const FlowSpec& spec, bool pinned) {
  assert(reserving_ && reserved_spawned_ < kOpenReservation);
  const std::uint64_t r = reserved_spawned_++;
  Flow& flow = add_flow(spec, pinned);
  flow.sender().start(start_keys_[shard_of(topo_->dc_of(spec.src))] + r);
  return flow.sender();
}

SenderView Experiment::sender(std::size_t i) {
  assert(i < spawned_);
  if (const Record* rec = records_.find(i + 1); rec != nullptr && rec->flow)
    return {rec->flow->sender().params(), &rec->flow->sender()};
  // Retired, so completed: its result holds the spec flow_params() read.
  const FlowResult& r = fct_.results()[result_pos_[i]];
  FlowParams p = flow_params({r.src, r.dst, r.size_bytes, r.start_time, r.interdc});
  p.id = r.id;
  return {p, nullptr};
}

void Experiment::snapshot_metrics(MetricRegistry& m) const {
  // Which binary produced these numbers — the same id the sweep farm folds
  // into its cache keys, so exported metrics are attributable to a build.
  m.set_info("build", build_info_string());
  m.set_counter("flows.spawned", spawned_);
  m.set_counter("flows.completed", completed_);
  m.set_counter("flows.retired", retired_);
  m.set_counter("flows.resident_peak", resident_peak_);
  m.set_counter("sim.events_dispatched", events_dispatched());
  m.set_gauge("sim.time_ms", to_milliseconds(now()));
  m.set_counter("fabric.drops", topo_->total_drops());
  m.set_counter("fabric.trims", topo_->total_trims());

  // Timer-subsystem accounting: where scheduler time goes (DESIGN.md §13).
  // wheel.* shows how much timer traffic bypassed the near-heap; cascaded /
  // slot_drains bound the amortized re-filing cost; stale.noted vs
  // compacted shows how hard lazy cancellation leaned on compaction.
  // Summed across shards (one term monolithic).
  std::uint64_t peak_pending = 0, wheel_inserts = 0, wheel_cascades = 0;
  std::uint64_t wheel_cascaded = 0, wheel_drains = 0, wheel_ovf_ins = 0;
  std::uint64_t wheel_ovf_jumps = 0, stale_noted = 0, compactions = 0;
  std::uint64_t compacted = 0, clamped = 0, stale_disp = 0;
  for (const auto& q : eqs_) {
    peak_pending += q->peak_pending();
    wheel_inserts += q->wheel_inserts();
    wheel_cascades += q->wheel_cascades();
    wheel_cascaded += q->wheel_cascaded_entries();
    wheel_drains += q->wheel_slot_drains();
    wheel_ovf_ins += q->wheel_overflow_inserts();
    wheel_ovf_jumps += q->wheel_overflow_jumps();
    stale_noted += q->stale_noted();
    compactions += q->compactions();
    compacted += q->compacted_entries();
    clamped += q->clamped_schedules();
    stale_disp += q->stale_dispatches();
  }
  m.set_counter("sim.peak_pending", peak_pending);
  m.set_counter("sim.wheel.inserts", wheel_inserts);
  m.set_counter("sim.wheel.cascades", wheel_cascades);
  m.set_counter("sim.wheel.cascaded_entries", wheel_cascaded);
  m.set_counter("sim.wheel.slot_drains", wheel_drains);
  m.set_counter("sim.wheel.overflow_inserts", wheel_ovf_ins);
  m.set_counter("sim.wheel.overflow_jumps", wheel_ovf_jumps);
  m.set_counter("sim.stale.noted", stale_noted);
  m.set_counter("sim.stale.dispatches", stale_disp);
  m.set_counter("sim.compactions", compactions);
  m.set_counter("sim.compacted_entries", compacted);
  m.set_counter("sim.clamped_schedules", clamped);
  // Capacity the wheels' buckets hold (a drained large bucket gives its
  // buffer back, sim/wheel.hpp).
  std::uint64_t wheel_bytes = 0;
  for (const auto& q : eqs_) wheel_bytes += q->wheel_bytes();
  m.set_counter("mem.sim.wheel_bytes", wheel_bytes);

  // Conservative-PDES accounting (DESIGN.md §14): how the bounded-lag run
  // spent its windows. Mirrors the sim.wheel.* style; per-shard event counts
  // expose load balance, stall is wall-clock waiting at barriers.
  m.set_counter("sim.shard.count", static_cast<std::uint64_t>(shards()));
  if (runner_) {
    for (std::size_t s = 0; s < eqs_.size(); ++s)
      m.set_counter("sim.shard.events." + std::to_string(s), eqs_[s]->dispatched());
    m.set_counter("sim.shard.sync_rounds", runner_->sync_rounds());
    m.set_counter("sim.shard.crossings", runner_->crossings_flushed());
    m.set_gauge("sim.shard.stall_ms", runner_->stall_seconds() * 1e3);
    m.set_counter("sim.shard.channel_peak_occupancy",
                  runner_->channel_peak_occupancy());
    const auto& hist = runner_->advance_hist();
    for (int b = 0; b < ShardRunner::kHistBuckets; ++b)
      if (hist[b] != 0)
        m.set_counter("sim.shard.advance_us_log2_" + std::to_string(b), hist[b]);
  }

  // Path-table economics (topo/pathgen.hpp): how many pair slabs were
  // built vs revived from quarantine vs recycled, and their live footprint.
  const PathStore& ps = topo_->path_store();
  m.set_counter("topo.paths.pairs_built", ps.pairs_built());
  m.set_counter("topo.paths.routes_built", ps.routes_built());
  m.set_counter("topo.paths.pairs_revived", ps.pairs_revived());
  m.set_counter("topo.paths.slabs_reused", ps.slabs_reused());
  m.set_counter("topo.paths.evictions", ps.evictions());
  m.set_counter("topo.paths.live_pairs", ps.live_pairs());
  m.set_counter("topo.paths.slab_bytes", ps.slab_bytes());
  m.set_counter("topo.paths.peak_slab_bytes", ps.peak_slab_bytes());
  m.set_counter("topo.paths.quarantine_records", ps.quarantine_records());

  // Flow-state slab pools (core/slab.hpp), summed across shards. Steady
  // state under churn shows acquires growing while heap_allocs stays flat —
  // the zero-allocation contract scale tests and bench_scale gate on.
  std::uint64_t sp_acq = 0, sp_rel = 0, sp_heap = 0;
  std::size_t sp_live = 0, sp_peak = 0, sp_pooled = 0;
  for (const auto& pool : pools_) {
    sp_acq += pool->acquires();
    sp_rel += pool->releases();
    sp_heap += pool->heap_allocs();
    sp_live += pool->live_bytes();
    sp_peak += pool->peak_live_bytes();
    sp_pooled += pool->pooled_bytes();
  }
  m.set_counter("mem.flow.slab_acquires", sp_acq);
  m.set_counter("mem.flow.slab_releases", sp_rel);
  m.set_counter("mem.flow.slab_heap_allocs", sp_heap);
  m.set_counter("mem.flow.slab_live_bytes", sp_live);
  m.set_counter("mem.flow.slab_peak_bytes", sp_peak);
  m.set_counter("mem.flow.slab_pooled_bytes", sp_pooled);
  // Per-flow bookkeeping: the flow table's and the record window's
  // capacity, which follow the flows alive at once, and the 4 B result
  // index, which follows every completed flow.
  m.set_counter("mem.flow.table_bytes",
                topo_->flow_table().bytes() + records_.bytes() +
                    result_pos_.capacity() * sizeof(std::uint32_t));

  // ring_bytes: what queue lanes and link rings hold in capacity (handles
  // only); the packets themselves are in the per-shard pools below.
  std::uint64_t forwarded = 0, ecn_marked = 0, ring_bytes = 0;
  for (const Queue* q : topo_->all_queues()) {
    forwarded += q->forwarded();
    ecn_marked += q->ecn_marked();
    ring_bytes += q->ring_bytes();
  }
  m.set_counter("fabric.forwarded", forwarded);
  m.set_counter("fabric.ecn_marked", ecn_marked);

  // Batched link delivery (net/link.cpp): how many arrivals rode along in
  // another packet's event. delivered - coalesced = delivery events fired.
  std::uint64_t delivered = 0, coalesced = 0;
  for (const Link* l : topo_->all_links()) {
    delivered += l->delivered();
    coalesced += l->coalesced_deliveries();
    ring_bytes += l->ring_bytes();
  }
  m.set_counter("fabric.link.delivered", delivered);
  m.set_counter("fabric.link.coalesced_deliveries", coalesced);

  // Packet pools (net/packet.hpp), summed across shards: peak packets live
  // in the fabric and the chunk bytes that peak pinned.
  std::uint64_t pool_peak = 0, pool_bytes = 0;
  for (const PacketPool* pool : topo_->packet_pools()) {
    pool_peak += pool->peak_live();
    pool_bytes += pool->bytes();
  }
  m.set_counter("fabric.pool.peak_live", pool_peak);
  m.set_counter("mem.fabric.pool_bytes", pool_bytes);
  m.set_counter("mem.fabric.ring_bytes", ring_bytes);

  std::uint64_t pkts = 0, rtx = 0, nacks = 0, fec_masked = 0, bytes = 0;
  for (const FlowResult& r : fct_.results()) {
    pkts += r.packets_sent;
    rtx += r.retransmits;
    nacks += r.nacks;
    fec_masked += r.fec_masked;
    bytes += r.size_bytes;
  }
  m.set_counter("flows.packets_sent", pkts);
  m.set_counter("flows.retransmits", rtx);
  m.set_counter("flows.nacks", nacks);
  m.set_counter("flows.fec_masked", fec_masked);
  m.set_counter("flows.bytes_completed", bytes);
  m.set_counter("mem.fct.result_bytes", fct_.bytes());

  // A class with no flows has no FCT: its keys stay out rather than read
  // as a perfect 0, as merged.csv leaves its cells empty.
  for (const auto& [name, cls] :
       {std::pair{"all", FctCollector::Class::kAll}, {"intra", FctCollector::Class::kIntra},
        {"inter", FctCollector::Class::kInter}}) {
    const FctSummary s = fct_.summarize(cls);
    if (s.count == 0) continue;
    const std::string key = std::string("fct.") + name + ".";
    m.set_gauge(key + "mean_us", s.mean_us);
    m.set_gauge(key + "p50_us", s.p50_us);
    m.set_gauge(key + "p99_us", s.p99_us);
    m.set_gauge(key + "max_us", s.max_us);
    m.set_gauge(key + "mean_slowdown", s.mean_slowdown);
    m.set_gauge(key + "p99_slowdown", s.p99_slowdown);
  }

  if (!qcn_.empty()) m.set_counter("qcn.delivered", qcn_delivered());
  if (faults_) m.set_counter("faults.actions", faults_->actions());
  if (const Tracer* tr = tracer()) {
    m.set_counter("trace.components", tr->num_components());
    m.set_counter("trace.events", tr->total_events());
    m.set_counter("trace.dropped", tr->total_dropped());
  }
}

ExperimentResult Experiment::result(Recorder recorder) const {
  ExperimentResult r;
  r.flows = fct_.results();
  snapshot_metrics(r.metrics);
  r.recorder = std::move(recorder);
  return r;
}

void Experiment::drain_completions() {
  const Time t = now();
  const std::size_t first = fct_.count();
  for (auto& parked : pending_completions_) {
    for (const FlowResult& r : parked) {
      ++completed_;
      fct_.add(r);
      topo_->release_paths(r.src, r.dst, t);
    }
    parked.clear();
  }
  // Every flow that completed in this step finished after the previous
  // step's, so sorting the step's batch keeps the whole record canonical,
  // whatever the shard count.
  fct_.sort_from(first);
  if (result_pos_.size() < spawned_) result_pos_.resize(spawned_, kNoResult);
  for (std::size_t i = first; i < fct_.count(); ++i) {
    std::uint32_t& pos = result_pos_[fct_.results()[i].id - 1];
    assert(pos == kNoResult && "a flow completed twice");
    pos = static_cast<std::uint32_t>(i);
  }
  // Retire the flows an endpoint reported this step, if quiet by now (a
  // flow reported twice or pinned is skipped). Quiet is a fact about
  // simulation content at this sync point, so retirement, and the flows
  // kept across the sync point, are the same at every shard count.
  for (auto& ids : quiet_) {
    for (const std::uint64_t id : ids) {
      Record* rec = records_.find(id);
      if (rec != nullptr && rec->flow && !rec->pinned && rec->flow->quiet()) {
        rec->flow.reset();
        ++retired_;
      }
    }
    ids.clear();
  }
  records_.trim_front([](const Record& rec) { return !rec.flow; });
  resident_peak_ = std::max(resident_peak_, spawned_ - retired_);
}

void Experiment::run_until(Time t) {
  if (runner_) {
    runner_->run_until(t);
  } else {
    eqs_[0]->run_until(t);
  }
  drain_completions();
}

bool Experiment::idle() const {
  return runner_ ? runner_->idle() : eqs_[0]->empty();
}

RunDigest Experiment::digest() const {
  constexpr std::uint64_t kMul = 1315423911ull;
  RunDigest d;
  d.flows = fct_.count();
  d.events = events_dispatched();
  d.sim_end = now();
  d.fct_hash = 1469598103934665603ull;
  for (const FlowResult& r : fct_.results()) {
    // completion_time is the FCT duration (see transport/flow.hpp).
    const auto fct = static_cast<std::uint64_t>(r.completion_time);
    d.fct_sum += fct;
    d.fct_hash = (d.fct_hash ^ r.id) * kMul;
    d.fct_hash = (d.fct_hash ^ fct) * kMul;
    d.fct_seq_hash = d.fct_seq_hash * kMul + fct;
    d.packets += r.packets_sent;
    d.retransmits += r.retransmits;
    d.nacks += r.nacks;
    d.fec_masked += r.fec_masked;
  }
  return d;
}

std::string RunDigest::line() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "flows=%zu events=%llu sim_end=%llu fct_sum=%llu fct_hash=%016llx", flows,
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(sim_end),
                static_cast<unsigned long long>(fct_sum),
                static_cast<unsigned long long>(fct_hash));
  return buf;
}

}  // namespace uno
