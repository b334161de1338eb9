// Discrete-event core: a monotonic clock plus an inline 4-ary heap.
//
// Components that need to be woken register as `EventHandler`s and schedule
// themselves with an integer tag; no per-event allocation happens. Ties in
// time are broken by insertion order so the simulation is deterministic.
//
// Hot-path design (see DESIGN.md §9 and §13):
//  * Liveness is a generation-slot registry, not a weak_ptr: each handler is
//    lazily assigned a small slot id on first schedule, each heap entry
//    carries {slot, generation}, and dispatch validates with two plain loads
//    (generation compare + handler pointer) — no atomics, no allocation.
//  * The heap is an inline 4-ary array heap of 32-byte POD entries: shallower
//    than a binary heap and one cache line per sift level — but it holds only
//    the events up to the wheel's cursor: the *current ~1 ns quantum*, or a
//    sparse stretch of up to 64 of them. Everything later is parked in a
//    hierarchical timing wheel (sim/wheel.hpp) with O(1) schedule, and flows
//    back into the heap as the cursor advances, so long-RTT timer churn never
//    inflates the sift depth of near-term events.
//  * Cancelled/superseded Timer deadlines go stale in place (O(1)); the
//    queue counts them and compacts heap + wheel when stale entries reach
//    half of the pending set, so rearm/cancel storms (retransmit timers
//    under link flaps) cannot grow the pending set without bound.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "sim/wheel.hpp"

namespace uno {

class EventHandler;
class EventQueue;

namespace detail {

/// Maps small integer slots to live handlers. Owned (shared) by the queue
/// and every registered handler, so whichever dies last tears it down.
/// A slot's generation bumps when its handler is destroyed, invalidating
/// every heap entry scheduled against the old incarnation.
struct HandlerRegistry {
  struct Slot {
    EventHandler* handler = nullptr;
    std::uint32_t generation = 0;
  };
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_slots;

  std::uint32_t acquire(EventHandler* h) {
    if (!free_slots.empty()) {
      const std::uint32_t s = free_slots.back();
      free_slots.pop_back();
      slots[s].handler = h;
      return s;
    }
    slots.push_back(Slot{h, 0});
    return static_cast<std::uint32_t>(slots.size() - 1);
  }

  void release(std::uint32_t slot) {
    slots[slot].handler = nullptr;
    ++slots[slot].generation;  // all pending entries for this slot go stale
    free_slots.push_back(slot);
  }
};

}  // namespace detail

/// Anything that can be woken by the event queue.
///
/// Handlers are registered with a queue's slot registry on first schedule;
/// events scheduled against a handler that has since been destroyed are
/// silently skipped, so tearing down a component (e.g. a Flow mid-flight)
/// never leaves dangling wakeups.
class EventHandler {
 public:
  EventHandler() = default;
  virtual ~EventHandler() {
    if (registry_) registry_->release(slot_);
  }
  EventHandler(const EventHandler&) = delete;
  EventHandler& operator=(const EventHandler&) = delete;

  /// Called when a scheduled event fires. `tag` is the value passed to
  /// `EventQueue::schedule_*`, letting one handler multiplex several
  /// logical timers/events. 64-bit so generation-style tags (see Timer)
  /// can never wrap within a feasible simulation.
  virtual void on_event(std::uint64_t tag) = 0;

  /// Compaction probe: return true if the entry scheduled with `tag` is
  /// already logically dead and may be dropped without dispatch (e.g. a
  /// superseded Timer generation). Must be side-effect free. Only called
  /// during heap compaction, never on the dispatch path.
  virtual bool event_stale(std::uint64_t tag) const {
    (void)tag;
    return false;
  }

 private:
  friend class EventQueue;
  std::shared_ptr<detail::HandlerRegistry> registry_;
  std::uint32_t slot_ = 0;
};

class EventQueue {
 public:
  EventQueue() : registry_(std::make_shared<detail::HandlerRegistry>()) {
    heap_.reserve(1024);  // skip the early growth reallocations
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Time now() const { return now_; }

  /// Schedule `handler->on_event(tag)` at absolute time `t`. `t` must be
  /// >= now(): asserted in debug builds, clamped to now() in release builds
  /// so a stray past deadline degrades to an immediate event instead of
  /// silently time-travelling the heap.
  void schedule_at(Time t, EventHandler* handler, std::uint64_t tag = 0) {
    assert(handler != nullptr);
    assert(t >= now_ && "cannot schedule into the past");
    if (t < now_) {
      t = now_;
      ++clamped_;
    }
    if (handler->registry_.get() != registry_.get()) bind(handler);
    const std::uint32_t slot = handler->slot_;
    push_entry(t, Entry{make_key(t, next_seq_++), tag, slot,
                        registry_->slots[slot].generation});
  }

  /// Schedule after a relative delay.
  void schedule_in(Time delay, EventHandler* handler, std::uint64_t tag = 0) {
    schedule_at(now_ + delay, handler, tag);
  }

  /// Canonical cross-shard keys. Events that cross a shard seam cannot use
  /// the destination queue's insertion counter for tie-breaking — the value
  /// it would take depends on how the run is sharded. Instead the producer
  /// supplies a *canonical* sequence: high bit set (so a crossing event sorts
  /// after every same-time intra-shard event — whose seqs count up from 0 and
  /// can never reach 2^63), then the channel id, then the per-channel
  /// sequence. The resulting (t, seq) key is a pure function of simulation
  /// content, identical for every value of --shards.
  static constexpr std::uint64_t kCanonicalBand = 1ull << 63;
  static constexpr int kChannelShift = 48;
  static std::uint64_t canonical_seq(std::uint32_t channel, std::uint64_t seq) {
    assert(channel < (1u << 15) && "channel id must fit 15 bits");
    assert(seq < (1ull << kChannelShift) && "per-channel seq overflow");
    return kCanonicalBand | (static_cast<std::uint64_t>(channel) << kChannelShift) | seq;
  }

  /// Schedule with a caller-supplied 64-bit sequence component instead of
  /// this queue's insertion counter (see canonical_seq above). Same clamping
  /// rules as schedule_at. The queue's own counter is not consumed, so the
  /// relative order of ordinary same-time events is unaffected.
  void schedule_keyed(Time t, EventHandler* handler, std::uint64_t tag,
                      std::uint64_t seq64) {
    assert(handler != nullptr);
    assert(t >= now_ && "cannot schedule into the past");
    if (t < now_) {
      t = now_;
      ++clamped_;
    }
    if (handler->registry_.get() != registry_.get()) bind(handler);
    const std::uint32_t slot = handler->slot_;
    push_entry(t, Entry{make_key(t, seq64), tag, slot,
                        registry_->slots[slot].generation});
  }

  /// Reserve `n` consecutive insertion sequence numbers and return the
  /// first. An event scheduled later through schedule_keyed with one of them
  /// dispatches exactly where schedule_at would have put it at the time of
  /// this call: after every same-time event scheduled before the call,
  /// before every one scheduled after it, and in sequence order among the
  /// reserved ones.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    assert(next_seq_ < kCanonicalBand && "reserved seqs reach the canonical band");
    return first;
  }

  /// Return `handler`'s registry slot (a no-op when it holds none here), so
  /// a handler that is done with this queue stops costing a slot while it
  /// lives. Nothing may be pending for it: releasing the slot invalidates
  /// its pending entries, which would then be dropped instead of dispatched.
  /// Slots are not part of the (time, seq) key, so handing the slot to the
  /// next handler never changes dispatch order. The handler rebinds on its
  /// next schedule.
  void unbind(EventHandler* handler) {
    if (handler->registry_.get() != registry_.get()) return;
    registry_->release(handler->slot_);
    handler->registry_.reset();
  }
  /// Registry slots held by live handlers (test introspection).
  std::size_t bound_handlers() const {
    return registry_->slots.size() - registry_->free_slots.size();
  }

  /// Run events until the queue is empty or the clock passes `deadline`.
  /// Returns the number of events dispatched *by this queue* during the call.
  /// Under sharding (sim/shard.hpp) each shard's queue counts only its own
  /// dispatches; ShardRunner::dispatched() / Experiment::events_dispatched()
  /// sum the per-shard counters, so `sim.events` metrics and bench
  /// denominators stay comparable across --shards values.
  std::uint64_t run_until(Time deadline);

  /// Run until the queue drains completely.
  std::uint64_t run_all() { return run_until(kTimeInfinity); }

  /// Time of the earliest pending event, kTimeInfinity when empty. May pull
  /// a wheel quantum into the near-heap to find it — that move never changes
  /// dispatch order (the heap re-sorts by the full key), it just happens a
  /// little earlier than the dispatch loop would have done it. Used by the
  /// shard coordinator to hop bounded-lag windows over idle gaps.
  Time next_event_time() {
    while (heap_.empty())
      if (!refill_from_wheel()) return kTimeInfinity;
    return key_time(heap_[0]);
  }

  bool empty() const { return heap_.empty() && wheel_.empty(); }
  std::size_t pending() const { return heap_.size() + wheel_.size(); }
  std::size_t peak_pending() const { return peak_pending_; }
  /// Events executed to completion. Stale no-op wakeups (superseded Timer
  /// deadlines, dead-slot entries) are excluded: compaction removes those
  /// before they pop, and its trigger depends on queue size — counting them
  /// would make this total vary with the shard count. See stale_dispatches()
  /// for the excluded wakeups.
  std::uint64_t dispatched() const { return dispatched_; }

  /// Stale-entry accounting, used by Timer: each cancel/rearm that strands a
  /// pending entry calls note_stale(); popping such an entry calls
  /// note_stale_consumed(). When stale entries reach half the pending set
  /// (heap + wheel) the queue compacts, dropping dead-slot entries and
  /// entries whose handler reports event_stale().
  void note_stale() {
    ++stale_hint_;
    ++stale_noted_;
    maybe_compact();
  }
  void note_stale_consumed() {
    if (stale_hint_ > 0) --stale_hint_;
    // Tell the dispatch loop the wakeup it is executing was a no-op, so it
    // stays out of dispatched(). Whether a superseded timer entry is popped
    // (here) or compacted away first depends on queue size — which depends
    // on the shard count — so counting these would make event totals vary
    // with --shards (DESIGN.md §14).
    stale_dispatch_ = true;
  }

  /// Introspection for tests and perf accounting.
  std::uint64_t compactions() const { return compactions_; }
  /// Stale wakeups popped and skipped (excluded from dispatched()).
  std::uint64_t stale_dispatches() const { return stale_dispatches_; }
  std::uint64_t compacted_entries() const { return compacted_; }
  std::uint64_t clamped_schedules() const { return clamped_; }
  std::size_t stale_hint() const { return stale_hint_; }
  std::uint64_t stale_noted() const { return stale_noted_; }

  /// Timing-wheel counters (see sim/wheel.hpp).
  std::size_t wheel_pending() const { return wheel_.size(); }
  std::uint64_t wheel_inserts() const { return wheel_.inserts(); }
  std::uint64_t wheel_cascades() const { return wheel_.cascades(); }
  std::uint64_t wheel_cascaded_entries() const { return wheel_.cascaded_entries(); }
  std::uint64_t wheel_slot_drains() const { return wheel_.slot_drains(); }
  std::uint64_t wheel_overflow_inserts() const { return wheel_.overflow_inserts(); }
  std::uint64_t wheel_overflow_jumps() const { return wheel_.overflow_jumps(); }
  std::size_t wheel_bytes() const { return wheel_.bytes(); }

  /// Wheel quantum: 2^10 ps ≈ 1 ns per level-0 slot. Sized to the event
  /// density of a two-DC k=8 run (about one event per simulated ns), so a
  /// drained slot hands the near-heap ~2 entries to order; sparse stretches
  /// drain 64 quanta at once (TimingWheel::kWholeDrainMax). DESIGN.md §13
  /// has the measured grid.
  static constexpr int kQuantumShift = 10;

 private:
  /// 32-byte POD heap entry. The heap key packs (time, insertion seq) into
  /// one 128-bit integer — time in the high 64 bits, sequence in the low —
  /// so the (t, seq) lexicographic order is a single integer compare
  /// (branch-predictor friendly in the min-child scans). Simulated time is
  /// never negative, so unsigned order matches signed order. {t, seq} is a
  /// total order, so heap rebuilds can never reorder dispatch.
  struct Entry {
    unsigned __int128 key;  // (t << 64) | seq
    std::uint64_t tag;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static unsigned __int128 make_key(Time t, std::uint64_t seq) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(t)) << 64) | seq;
  }
  static Time key_time(const Entry& e) {
    return static_cast<Time>(static_cast<std::uint64_t>(e.key >> 64));
  }

  /// Route a finished entry by quantum: the heap holds only quanta up to the
  /// wheel cursor (earlier stragglers are always safe, the heap is a full
  /// priority queue); strictly later quanta park in the wheel in O(1).
  void push_entry(Time t, const Entry& e) {
    const std::uint64_t q = static_cast<std::uint64_t>(t) >> kQuantumShift;
    if (q <= wheel_.cur()) {
      heap_.push_back(e);
      sift_up(heap_.size() - 1);
    } else {
      wheel_.insert(q, e);
    }
    const std::size_t p = heap_.size() + wheel_.size();
    if (p > peak_pending_) peak_pending_ = p;
  }

  void bind(EventHandler* h) {
    // Lazy registration; a handler outliving its queue may be re-bound to a
    // fresh queue, abandoning (= invalidating) anything still pending in
    // the old one.
    if (h->registry_) h->registry_->release(h->slot_);
    h->slot_ = registry_->acquire(h);
    h->registry_ = registry_;
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t p = (i - 1) >> 2;
      if (heap_[p].key <= e.key) break;
      heap_[i] = heap_[p];
      i = p;
    }
    heap_[i] = e;
  }

  /// Bottom-up ("hole") sift: walk the hole at `i` down the min-child path
  /// to a leaf without comparing against `e`, then bubble `e` back up. `e`
  /// is usually one of the latest deadlines (it came off the heap's back),
  /// so the bubble-up almost always stops immediately — this does ~3
  /// compares per level instead of 4, and matches libstdc++'s
  /// __adjust_heap trick that made the old binary heap hard to beat.
  void sift_down_hole(std::size_t i, Entry e) {  // by value: e may alias heap_[i]
    const std::size_t n = heap_.size();
    Entry* const h = heap_.data();
    std::size_t hole = i;
    for (;;) {
      const std::size_t c0 = 4 * hole + 1;
      if (c0 >= n) break;
      std::size_t m = c0;
      const std::size_t end = c0 + 4 < n ? c0 + 4 : n;
      for (std::size_t c = c0 + 1; c < end; ++c)
        if (h[c].key < h[m].key) m = c;
      h[hole] = h[m];
      hole = m;
    }
    while (hole > i) {
      const std::size_t p = (hole - 1) >> 2;
      if (e.key >= h[p].key) break;
      h[hole] = h[p];
      hole = p;
    }
    h[hole] = e;
  }

  void pop_min() {
    const Entry back = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down_hole(0, back);
  }

  void maybe_compact() {
    const std::size_t total = heap_.size() + wheel_.size();
    if (total >= kCompactMinSize && stale_hint_ * 2 >= total) compact();
  }
  void compact();

  /// Advance the wheel cursor to the next occupied slot and move its
  /// entries into the heap. Returns false iff the wheel is empty.
  bool refill_from_wheel();

  static constexpr std::size_t kCompactMinSize = 64;

  struct EntryQuantum {
    std::uint64_t operator()(const Entry& e) const {
      return static_cast<std::uint64_t>(e.key >> 64) >> kQuantumShift;
    }
  };

  using Wheel = TimingWheel<Entry, EntryQuantum>;
  // The wheel reaches 2^52 ps (~75 simulated minutes) past its cursor
  // before entries spill into its overflow list.
  static_assert(kQuantumShift + Wheel::kSlotBits * Wheel::kLevels >= 52,
                "a finer quantum needs more wheel levels");

  std::shared_ptr<detail::HandlerRegistry> registry_;
  std::vector<Entry> heap_;
  Wheel wheel_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t stale_dispatches_ = 0;
  /// Set by note_stale_consumed() while an on_event is executing: marks the
  /// in-flight dispatch as a stale no-op (see the run_until loop).
  bool stale_dispatch_ = false;
  std::size_t peak_pending_ = 0;
  std::size_t stale_hint_ = 0;
  std::uint64_t stale_noted_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t compacted_ = 0;
  std::uint64_t clamped_ = 0;
};

/// A cancellable, re-armable one-shot timer built on the event queue.
///
/// Cancellation is lazy: the pending heap entry is superseded via a 64-bit
/// generation counter carried in the event tag, so cancel/rearm are O(1).
/// The queue's stale accounting (note_stale / event_stale) lets compaction
/// physically remove superseded entries when they pile up. The generation
/// is 64-bit precisely so the tag channel can never wrap: 2^64 rearms is
/// unreachable (a simulation doing 10^9 rearms/sec would need ~585 years).
class Timer : public EventHandler {
 public:
  /// `tag` is forwarded to `target->on_event(tag)` when the timer fires.
  Timer(EventQueue& eq, EventHandler* target, std::uint64_t tag)
      : eq_(eq), target_(target), tag_(tag) {}

  /// (Re)arm to fire at absolute time `t`.
  void arm_at(Time t) {
    if (armed_) eq_.note_stale();  // the outstanding entry is now superseded
    ++generation_;
    armed_ = true;
    deadline_ = t;
    eq_.schedule_at(t, this, generation_);
  }

  void arm_in(Time delay) { arm_at(eq_.now() + delay); }

  void cancel() {
    if (armed_) eq_.note_stale();
    ++generation_;
    armed_ = false;
  }

  bool armed() const { return armed_; }
  Time deadline() const { return deadline_; }

  void on_event(std::uint64_t gen) override {
    if (gen != generation_ || !armed_) {  // stale or cancelled
      eq_.note_stale_consumed();
      return;
    }
    armed_ = false;
    target_->on_event(tag_);
  }

  bool event_stale(std::uint64_t gen) const override {
    return gen != generation_ || !armed_;
  }

 private:
  EventQueue& eq_;
  EventHandler* target_;
  std::uint64_t tag_;
  std::uint64_t generation_ = 0;
  bool armed_ = false;
  Time deadline_ = 0;
};

}  // namespace uno
