#include "net/link.hpp"

#include <cassert>

namespace uno {

void Link::receive(Packet&& p) { receive(pool_, pool_.put(p)); }

void Link::receive([[maybe_unused]] PacketPool& pool, PacketHandle h) {
  assert(&pool == &pool_);
  if (!up_ || (loss_ && loss_->should_drop(eq_.now()))) {
    ++dropped_;
    pool_.drop(h);
    return;  // the transport's RTO / EC layer recovers the loss
  }
  const Time exit = eq_.now() + latency_;
  inflight_.push_back({exit, h});
  if (inflight_.size() == 1) eq_.schedule_at(exit, this);
}

void Link::set_up(bool up) {
  if (!up && up_) {
    // The wire is severed: everything currently propagating is lost. The
    // already-scheduled delivery events turn into stale no-ops (see the
    // guards in on_event).
    dropped_ += inflight_.size();
    for (std::size_t i = 0; i < inflight_.size(); ++i) pool_.drop(inflight_[i].handle);
    inflight_.clear();
  }
  up_ = up;
}

void Link::on_event(std::uint64_t) {
  // A link-down flush can orphan delivery events: fire with nothing in
  // flight, or before the (later-arriving) new head is actually due.
  if (inflight_.empty() || inflight_.front().due > eq_.now()) return;
  // Drain every packet sharing this arrival instant in one event: one
  // schedule_at per *distinct* due instead of one per packet. Behind a
  // serializing Queue consecutive dues are distinct, but fan-in links fed by
  // multiple sources (or bursts crossing a latency change) arrive in shared
  // instants and coalesce here. Strictly-equal dues only — a head that is
  // *overdue* (its due passed while an earlier head was still scheduled)
  // re-schedules exactly like the one-event-per-packet path did, so dispatch
  // interleaving at a timestamp is unchanged and results stay bit-identical.
  const Time now = eq_.now();
  for (;;) {
    ++delivered_;
    // On long-latency links the next body was last touched one `latency_`
    // ago and is cold; start pulling it in while this delivery's forward
    // chain executes. An 88-byte packet spans two or three cache lines. The head
    // entry stays in the ring until the pop below, so a synchronous push
    // during forward() sees size >= 2 and never double-schedules the
    // delivery event.
    if (inflight_.size() > 1) {
      const char* next = reinterpret_cast<const char*>(&pool_[inflight_[1].handle]);
      __builtin_prefetch(next);
      __builtin_prefetch(next + 64);
      __builtin_prefetch(next + sizeof(Packet) - 1);
    }
    forward(pool_, inflight_.front().handle);
    inflight_.pop_front();
    if (inflight_.empty()) return;
    if (inflight_.front().due != now) break;
    ++coalesced_;
  }
  eq_.schedule_at(inflight_.front().due, this);
}

}  // namespace uno
