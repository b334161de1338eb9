#include "topo/pathgen.hpp"

#include <algorithm>
#include <cassert>

namespace uno {

const PathSet& PathStore::get(int src, int dst) {
  // No clock at pinned-lookup call sites; 0 sweeps nothing early since every
  // quarantine deadline is strictly positive.
  Entry& e = lookup(src, dst, 0);
  e.pinned = true;
  return src < dst ? e.ab : e.ba;
}

const PathSet& PathStore::acquire(int src, int dst, Time now) {
  Entry& e = lookup(src, dst, now);
  ++e.refs;
  return src < dst ? e.ab : e.ba;
}

void PathStore::release(int src, int dst, Time now) {
  auto it = cache_.find(unordered_path_key(src, dst));
  assert(it != cache_.end() && it->second.refs > 0);
  Entry& e = it->second;
  if (--e.refs == 0 && !e.pinned) {
    e.released_at = now;
    if (!e.queued) {
      e.queued = true;
      quarantine_.emplace_back(now, it->first);
    }
  }
}

PathStore::Entry& PathStore::lookup(int src, int dst, Time now) {
  assert(src != dst);
  const std::uint64_t key = unordered_path_key(src, dst);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    Entry& e = it->second;
    if (e.refs == 0 && !e.pinned && e.released_at >= 0) {
      // Revive a quarantined pair; sweep() drops its pending record unless
      // the pair is idle again by then.
      e.released_at = -1;
      ++pairs_revived_;
    }
    return e;
  }
  sweep(now);
  Entry& e = cache_[key];
  build(std::min(src, dst), std::max(src, dst), e);
  return e;
}

void PathStore::sweep(Time now) {
  while (!quarantine_.empty() &&
         quarantine_.front().first + quarantine_after_ <= now) {
    const std::uint64_t key = quarantine_.front().second;
    quarantine_.pop_front();
    auto it = cache_.find(key);
    if (it == cache_.end()) continue;
    Entry& e = it->second;
    e.queued = false;
    if (e.refs != 0 || e.pinned || e.released_at < 0) continue;  // in use again
    if (e.released_at + quarantine_after_ > now) {
      // Released again after the record was queued: wait out the latest
      // release. Pushing behind newer records can only delay the eviction.
      e.queued = true;
      quarantine_.emplace_back(e.released_at, key);
      continue;
    }
    slab_bytes_ -= e.slab.bytes();
    retired_.push_back(std::move(e.slab));
    cache_.erase(it);
    ++evictions_;
  }
}

void PathStore::build(int fwd_src, int fwd_dst, Entry& e) {
  scratch_fwd_.clear();
  scratch_rev_.clear();
  source_.generate_routes(fwd_src, fwd_dst, scratch_fwd_);
  source_.generate_routes(fwd_dst, fwd_src, scratch_rev_);
  const std::uint32_t nf = static_cast<std::uint32_t>(scratch_fwd_.size());
  const std::uint32_t nr = static_cast<std::uint32_t>(scratch_rev_.size());
  assert(nf > 0 && nf == nr && "route count is symmetric in the pair");
  const std::uint32_t nroutes = nf + nr;
  std::uint32_t nhops = 0;
  for (const RouteScratch& s : scratch_fwd_) nhops += static_cast<std::uint32_t>(s.n);
  for (const RouteScratch& s : scratch_rev_) nhops += static_cast<std::uint32_t>(s.n);

  // Recycle a retired slab when one fits; under homogeneous route shapes
  // (the common case: churn within one pair class) the first candidate hits.
  for (std::size_t i = retired_.size(); i-- > 0;) {
    if (retired_[i].routes_cap >= nroutes && retired_[i].hops_cap >= nhops) {
      e.slab = std::move(retired_[i]);
      retired_[i] = std::move(retired_.back());
      retired_.pop_back();
      ++slabs_reused_;
      break;
    }
  }
  if (e.slab.routes_cap < nroutes || e.slab.hops_cap < nhops) {
    e.slab.routes.reset(new Route[nroutes]);
    e.slab.hops.reset(new PacketSink*[nhops]);
    e.slab.routes_cap = nroutes;
    e.slab.hops_cap = nhops;
  }

  Route* route_cursor = e.slab.routes.get();
  PacketSink** hop_cursor = e.slab.hops.get();
  auto commit = [&](const std::vector<RouteScratch>& family) {
    for (std::size_t i = 0; i < family.size(); ++i) {
      const RouteScratch& s = family[i];
      for (int h = 0; h < s.n; ++h) hop_cursor[h] = s.hops[h];
      Route& r = *route_cursor++;
      r.hops.bind(hop_cursor, static_cast<std::uint16_t>(s.n));
      r.path_id = static_cast<std::uint16_t>(i);
      hop_cursor += s.n;
    }
  };
  const Route* fwd = route_cursor;
  commit(scratch_fwd_);
  const Route* rev = route_cursor;
  commit(scratch_rev_);

  e.ab.forward = {fwd, static_cast<std::uint16_t>(nf)};
  e.ab.reverse = {rev, static_cast<std::uint16_t>(nr)};
  e.ba.forward = e.ab.reverse;
  e.ba.reverse = e.ab.forward;

  ++pairs_built_;
  routes_built_ += nroutes;
  slab_bytes_ += e.slab.bytes();
  if (slab_bytes_ > peak_slab_bytes_) peak_slab_bytes_ = slab_bytes_;
}

}  // namespace uno
