#include "sim/event.hpp"

namespace uno {

std::uint64_t EventQueue::run_until(Time deadline) {
  std::uint64_t n = 0;
  const detail::HandlerRegistry* const reg = registry_.get();
  for (;;) {
    if (heap_.empty()) {
      // The heap holds every event up to the wheel cursor, so an empty heap
      // means the next event (if any) lives in the wheel: advance the cursor
      // and pull the next occupied slot in. This may overshoot the deadline —
      // the time check below catches that and the entries simply wait in the
      // heap for the next run_until call.
      if (!refill_from_wheel()) break;
      continue;
    }
    if (key_time(heap_[0]) > deadline) break;
    const Entry e = heap_[0];
    pop_min();
    const detail::HandlerRegistry::Slot& s = reg->slots[e.slot];
    if (s.generation != e.gen) {
      // Handler destroyed: a dead wakeup. Such entries are mostly timers
      // cancelled just before they died (a flow engine cancels its RTO
      // timer at completion, then drops it), so the pop consumes a stale
      // hint exactly as the cancelled Timer's own wakeup would have.
      if (stale_hint_ > 0) --stale_hint_;
      continue;
    }
    EventHandler* h = s.handler;
    now_ = key_time(e);
    if (!heap_.empty()) {
      // Pull the next entry's registry slot and — the slot array is small
      // and hot, so the handler pointer is almost always readable — the
      // handler object itself (vtable + first members) in while this
      // event's handler runs.
      const detail::HandlerRegistry::Slot& ns = reg->slots[heap_[0].slot];
      __builtin_prefetch(&ns);
      __builtin_prefetch(ns.handler);
    }
    stale_dispatch_ = false;
    h->on_event(e.tag);
    // A superseded timer wakeup flags itself via note_stale_consumed();
    // keeping it out of `n` makes the dispatch total independent of whether
    // compaction (a queue-size heuristic, so shard-count dependent) removed
    // the entry before it could pop.
    if (stale_dispatch_)
      ++stale_dispatches_;
    else
      ++n;
  }
  // Advance the clock to the deadline even if nothing fired there, so
  // successive run_until calls observe monotonic time.
  if (deadline != kTimeInfinity && deadline > now_) now_ = deadline;
  dispatched_ += n;
  return n;
}

bool EventQueue::refill_from_wheel() {
  return wheel_.pop_next_slot([this](const Entry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  });
}

void EventQueue::compact() {
  // Keep exactly the entries that could still dispatch: live slot generation
  // and not reported logically dead by the handler (superseded Timer arms).
  // {t, seq} is a total order, so the Floyd rebuild preserves fire order;
  // wheel buckets are unordered anyway (the heap re-sorts them on drain).
  const auto& slots = registry_->slots;
  const auto dead = [&slots](const Entry& e) {
    const detail::HandlerRegistry::Slot& s = slots[e.slot];
    return s.generation != e.gen || s.handler->event_stale(e.tag);
  };
  std::size_t w = 0;
  for (const Entry& e : heap_) {
    if (dead(e)) continue;
    heap_[w++] = e;
  }
  compacted_ += heap_.size() - w;
  heap_.resize(w);
  if (w > 1)
    for (std::size_t i = (w - 2) / 4 + 1; i-- > 0;) sift_down_hole(i, heap_[i]);
  compacted_ += wheel_.compact(dead);
  stale_hint_ = 0;
  ++compactions_;
}

}  // namespace uno
