// Stress and regression tests for the hierarchical timing wheel
// (sim/wheel.hpp) and its integration into EventQueue: randomized multi-level
// schedules against a std::priority_queue reference model, (t, seq) tie-break
// preservation across the heap/wheel boundary, far-future overflow parking,
// long idle-gap cursor jumps, cancel/rearm storms compacting wheel buckets,
// and past-deadline clamping after the cursor has advanced.
//
// event_stress_test.cpp covers the near-heap with short time spreads;
// everything here deliberately schedules far beyond the level-0 quantum so
// entries land in (and cascade through) the wheel proper. Times derive from
// the queue's geometry (kQuantum, kWheelSpan below), so each test keeps its
// meaning whatever quantum and level count the event core picks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/wheel.hpp"

namespace uno {
namespace {

struct Recorder final : public EventHandler {
  std::vector<std::pair<Time, std::uint64_t>>* log;
  EventQueue* eq = nullptr;
  explicit Recorder(std::vector<std::pair<Time, std::uint64_t>>* l) : log(l) {}
  void on_event(std::uint64_t tag) override { log->emplace_back(eq->now(), tag); }
};

struct RefEntry {
  Time t;
  std::uint64_t seq;
  std::uint64_t tag;
  bool operator>(const RefEntry& o) const {
    return t != o.t ? t > o.t : seq > o.seq;
  }
};
using RefQueue =
    std::priority_queue<RefEntry, std::vector<RefEntry>, std::greater<RefEntry>>;

// --- direct TimingWheel unit tests -------------------------------------------

struct WEntry {
  std::uint64_t q;
  std::uint64_t id;
};
struct WQuantum {
  std::uint64_t operator()(const WEntry& e) const { return e.q; }
};
using Wheel = TimingWheel<WEntry, WQuantum>;

// EventQueue's geometry: one level-0 quantum, and how far past the cursor
// the wheel reaches before entries park in its overflow list.
constexpr Time kQuantum = Time{1} << EventQueue::kQuantumShift;
constexpr Time kWheelSpan = static_cast<Time>(Wheel::kSpanQuanta)
                            << EventQueue::kQuantumShift;

TEST(TimingWheel, DrainsQuantaInOrderAcrossAllLevelsAndOverflow) {
  Wheel w;
  Rng rng(2024);
  // Quanta spanning every level plus the overflow region (>= kSpanQuanta
  // away), with deliberate duplicates so one slot holds several entries.
  std::multimap<std::uint64_t, std::uint64_t> ref;  // q -> id
  std::uint64_t id = 0;
  const std::uint64_t top = Wheel::kSpanQuanta >> Wheel::kSlotBits;
  for (int i = 0; i < 5000; ++i) {
    std::uint64_t q;
    switch (rng.uniform_below(5)) {
      case 0: q = 1 + rng.uniform_below(Wheel::kSlots); break;       // level 0
      case 1: q = 1 + rng.uniform_below(1u << 12); break;            // level 1-2
      case 2:                                                        // top level
        q = top + rng.uniform_below(Wheel::kSpanQuanta - top);
        break;
      case 3: q = 1 + rng.uniform_below(Wheel::kSpanQuanta); break;  // any level
      default: q = Wheel::kSpanQuanta + rng.uniform_below(1ull << 40); break;
    }
    if (i % 7 == 0 && !ref.empty()) q = ref.begin()->first;  // force duplicates
    w.insert(q, WEntry{q, id});
    ref.emplace(q, id);
    ++id;
  }
  ASSERT_EQ(w.size(), ref.size());
  EXPECT_GT(w.overflow_inserts(), 0u);

  std::uint64_t last_cur = 0;
  std::size_t whole_drains = 0;
  while (!ref.empty()) {
    std::vector<WEntry> batch;
    ASSERT_TRUE(w.pop_next_slot([&](const WEntry& e) { batch.push_back(e); }));
    ASSERT_GT(w.cur(), last_cur) << "cursor must advance strictly";
    last_cur = w.cur();
    // Each drain must surface exactly the entries at or before the cursor,
    // from the smallest remaining quantum on: that quantum alone, or all of
    // a sparse level-1 slot with the cursor on the slot's last quantum.
    const std::uint64_t qmin = ref.begin()->first;
    ASSERT_GE(w.cur(), qmin);
    const auto end = ref.upper_bound(w.cur());
    ASSERT_EQ(batch.size(), static_cast<std::size_t>(std::distance(ref.begin(), end)));
    if (w.cur() != qmin) {
      ++whole_drains;
      EXPECT_LE(batch.size(), Wheel::kWholeDrainMax);
      EXPECT_EQ(qmin / Wheel::kSlots, w.cur() / Wheel::kSlots);
      EXPECT_EQ(w.cur() % Wheel::kSlots, Wheel::kSlots - 1);
    }
    for (const WEntry& e : batch) {
      auto range = ref.equal_range(e.q);
      auto it = std::find_if(range.first, range.second,
                             [&](const auto& kv) { return kv.second == e.id; });
      ASSERT_NE(it, range.second) << "unknown or duplicated id " << e.id;
      ref.erase(it);
    }
  }
  EXPECT_GT(whole_drains, 0u);
  EXPECT_TRUE(w.empty());
  EXPECT_FALSE(w.pop_next_slot([](const WEntry&) {}));
  EXPECT_GT(w.cascades(), 0u);
  EXPECT_GT(w.overflow_jumps(), 0u);
}

TEST(TimingWheel, SparseLevelOneSlotDrainsWholeAndDenseOneQuantumAtATime) {
  // Entries on distinct quanta of one level-1 slot: up to kWholeDrainMax of
  // them leave in one drain that parks the cursor on the slot's last
  // quantum; one more and the slot cascades, so each quantum leaves alone.
  const std::uint64_t window = 5 * Wheel::kSlots;
  for (const std::size_t n : {Wheel::kWholeDrainMax, Wheel::kWholeDrainMax + 1}) {
    Wheel w;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t q = window + 2 * i + 1;
      w.insert(q, WEntry{q, i});
    }
    std::vector<std::size_t> batches;
    while (!w.empty()) {
      std::size_t k = 0;
      ASSERT_TRUE(w.pop_next_slot([&](const WEntry&) { ++k; }));
      batches.push_back(k);
    }
    if (n <= Wheel::kWholeDrainMax) {
      EXPECT_EQ(batches, std::vector<std::size_t>{n});
      EXPECT_EQ(w.cur(), window + Wheel::kSlots - 1);
    } else {
      EXPECT_EQ(batches, std::vector<std::size_t>(n, 1));
      EXPECT_EQ(w.cur(), window + 2 * n - 1);
    }
  }
}

TEST(TimingWheel, CompactRemovesExactlyThePredicatedEntries) {
  Wheel w;
  Rng rng(7);
  std::uint64_t kept = 0;
  for (std::uint64_t id = 0; id < 2000; ++id) {
    const std::uint64_t q = 1 + rng.uniform_below(Wheel::kSpanQuanta * 4);
    w.insert(q, WEntry{q, id});
    if (id % 3 != 0) ++kept;
  }
  const std::size_t removed = w.compact([](const WEntry& e) { return e.id % 3 == 0; });
  EXPECT_EQ(removed, 2000u - kept);
  EXPECT_EQ(w.size(), kept);
  std::uint64_t drained = 0;
  while (w.pop_next_slot([&](const WEntry& e) {
    EXPECT_NE(e.id % 3, 0u);
    ++drained;
  })) {
  }
  EXPECT_EQ(drained, kept);
}

// --- EventQueue integration --------------------------------------------------

TEST(WheelStress, RandomizedMultiLevelMatchesReferenceModel) {
  std::vector<std::pair<Time, std::uint64_t>> log;
  EventQueue eq;
  Recorder rec(&log);
  rec.eq = &eq;

  RefQueue ref;
  std::vector<std::pair<Time, std::uint64_t>> expected;
  Rng rng(54321);
  std::uint64_t seq = 0;

  // Horizons from sub-quantum to hundreds of seconds (deep wheel levels),
  // drained at stepped deadlines with occasional huge idle jumps so the
  // cursor exercises single-slot advances, multi-level cascades, and
  // empty-wheel fast-forwards alike.
  Time now = 0;
  for (int round = 0; round < 150; ++round) {
    const int pushes = 1 + static_cast<int>(rng.uniform_below(30));
    for (int i = 0; i < pushes; ++i) {
      Time horizon;
      switch (rng.uniform_below(4)) {
        case 0: horizon = static_cast<Time>(rng.uniform_below(kQuantum)); break;
        case 1: horizon = static_cast<Time>(rng.uniform_below(2 * kMicrosecond)); break;
        case 2: horizon = static_cast<Time>(rng.uniform_below(5 * kMillisecond)); break;
        default: horizon = static_cast<Time>(rng.uniform_below(300 * kSecond)); break;
      }
      const Time t = now + horizon;
      eq.schedule_at(t, &rec, seq);
      ref.push(RefEntry{t, seq, seq});
      ++seq;
    }
    now += static_cast<Time>(
        rng.uniform_below(round % 10 == 9 ? 10 * kSecond : 100 * kMicrosecond));
    eq.run_until(now);
    while (!ref.empty() && ref.top().t <= now) {
      expected.emplace_back(ref.top().t, ref.top().tag);
      ref.pop();
    }
    ASSERT_EQ(log.size(), expected.size()) << "diverged at round " << round;
  }
  eq.run_all();
  while (!ref.empty()) {
    expected.emplace_back(ref.top().t, ref.top().tag);
    ref.pop();
  }
  ASSERT_EQ(log.size(), expected.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].first, expected[i].first) << "time mismatch at " << i;
    EXPECT_EQ(log[i].second, expected[i].second) << "order mismatch at " << i;
  }
  EXPECT_GT(eq.wheel_inserts(), 0u);
  EXPECT_GT(eq.wheel_cascaded_entries(), 0u);
}

TEST(WheelStress, TieBreakPreservedAcrossHeapWheelBoundary) {
  // Entries at the exact same instant must dispatch in schedule order even
  // when some were parked in the wheel (scheduled early, seq 0..9) and some
  // went straight to the drained-quantum heap (scheduled late, seq 10..19).
  // t0 sits mid-quantum, so t0 - 1 falls in t0's own quantum.
  std::vector<std::pair<Time, std::uint64_t>> log;
  EventQueue eq;
  Recorder rec(&log);
  rec.eq = &eq;
  const Time t0 = 3 * kMillisecond / kQuantum * kQuantum + kQuantum / 2;
  for (std::uint64_t i = 0; i < 10; ++i) eq.schedule_at(t0, &rec, i);
  eq.run_until(t0 - 1);  // cursor advances; the t0 batch now sits in the heap
  for (std::uint64_t i = 10; i < 20; ++i) eq.schedule_at(t0, &rec, i);
  eq.run_all();
  ASSERT_EQ(log.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(log[i].first, t0);
    EXPECT_EQ(log[i].second, i) << "tie-break order broke at " << i;
  }
}

TEST(WheelStress, FarFutureOverflowParksAndFiresInOrder) {
  std::vector<std::pair<Time, std::uint64_t>> log;
  EventQueue eq;
  Recorder rec(&log);
  rec.eq = &eq;
  // Two and three wheel spans out must park in the overflow list, a
  // microsecond out in the wheel proper.
  static_assert(kWheelSpan > kMicrosecond);
  eq.schedule_at(3 * kWheelSpan, &rec, 3);
  eq.schedule_at(2 * kWheelSpan, &rec, 2);
  eq.schedule_at(kMicrosecond, &rec, 1);
  EXPECT_EQ(eq.wheel_overflow_inserts(), 2u);
  eq.run_all();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<Time, std::uint64_t>{kMicrosecond, 1}));
  EXPECT_EQ(log[1], (std::pair<Time, std::uint64_t>{2 * kWheelSpan, 2}));
  EXPECT_EQ(log[2], (std::pair<Time, std::uint64_t>{3 * kWheelSpan, 3}));
  EXPECT_GE(eq.wheel_overflow_jumps(), 1u);
}

TEST(WheelStress, LongIdleGapJumpsWithoutTickingEmptySlots) {
  // One event a full second out: the cursor must jump straight to it (via
  // cascades, not per-slot ticks — a second is kSecond / kQuantum level-0
  // quanta, about 10^9 at 1 ns quanta).
  static_assert(kSecond < kWheelSpan && kSecond / kQuantum > 1'000'000);
  std::vector<std::pair<Time, std::uint64_t>> log;
  EventQueue eq;
  Recorder rec(&log);
  rec.eq = &eq;
  eq.schedule_at(kSecond, &rec, 1);
  eq.run_all();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, kSecond);
  EXPECT_EQ(eq.now(), kSecond);
  // At most one cascade per level on the way down, then one drain.
  EXPECT_LE(eq.wheel_cascades(), static_cast<std::uint64_t>(Wheel::kLevels));
  EXPECT_EQ(eq.wheel_slot_drains(), 1u);
}

TEST(WheelStress, OneQuantumOfEventsDispatchesInTimeSeqOrder) {
  // A quantum's entries leave the wheel in one drain, in no order; the
  // near-heap alone sorts them by (time, seq). 100 of them inside one
  // quantum, every other one at a single instant, keep that path covered
  // however fine the quantum is.
  std::vector<std::pair<Time, std::uint64_t>> log;
  EventQueue eq;
  Recorder rec(&log);
  rec.eq = &eq;
  const Time base = kMillisecond / kQuantum * kQuantum;
  RefQueue ref;
  Rng rng(2026);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const Time t = base + (seq % 2 == 0 ? kQuantum / 2
                                        : static_cast<Time>(rng.uniform_below(kQuantum)));
    eq.schedule_at(t, &rec, seq);
    ref.push(RefEntry{t, seq, seq});
  }
  EXPECT_EQ(eq.wheel_pending(), 100u);
  eq.run_all();
  EXPECT_EQ(eq.wheel_slot_drains(), 1u) << "the 100 events must share one quantum";
  ASSERT_EQ(log.size(), 100u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].first, ref.top().t) << "time mismatch at " << i;
    EXPECT_EQ(log[i].second, ref.top().tag) << "order mismatch at " << i;
    ref.pop();
  }
}

TEST(WheelStress, RearmStormOnWheelHorizonStaysBoundedAndFires) {
  // Timer rearms at a 2 ms horizon park every superseded entry deep in the
  // wheel; stale accounting + compaction must keep the *wheel* bounded too,
  // and only the final arm may fire.
  std::vector<std::pair<Time, std::uint64_t>> log;
  EventQueue eq;
  Recorder rec(&log);
  rec.eq = &eq;
  Timer timer(eq, &rec, 42);
  constexpr int kRearms = (1 << 20) + 17;
  std::size_t peak = 0;
  for (int i = 0; i < kRearms; ++i) {
    timer.arm_in(2 * kMillisecond);
    peak = std::max(peak, eq.pending());
  }
  EXPECT_GT(eq.compactions(), 0u);
  EXPECT_GT(eq.wheel_inserts(), 0u);
  EXPECT_LT(peak, 4096u) << "stale wheel entries must not accumulate";
  EXPECT_LT(eq.pending(), 4096u);
  eq.run_all();
  ASSERT_EQ(log.size(), 1u) << "exactly the last arm fires";
  EXPECT_EQ(log[0].second, 42u);
  EXPECT_EQ(log[0].first, timer.deadline());
}

TEST(WheelStress, CancelStormAcrossMixedHorizonsNeverFires) {
  std::vector<std::pair<Time, std::uint64_t>> log;
  EventQueue eq;
  Recorder rec(&log);
  rec.eq = &eq;
  Timer timer(eq, &rec, 7);
  Rng rng(11);
  for (int i = 0; i < 100'000; ++i) {
    timer.arm_in(static_cast<Time>(1 + rng.uniform_below(10 * kMillisecond)));
    timer.cancel();
  }
  EXPECT_LT(eq.pending(), 4096u);
  eq.run_all();
  EXPECT_TRUE(log.empty());
}

TEST(WheelStress, PastDeadlineAfterCursorAdvanceClampsToNow) {
  std::vector<std::pair<Time, std::uint64_t>> log;
  EventQueue eq;
  Recorder rec(&log);
  rec.eq = &eq;
  // Park an event far out, then fast-forward the clock halfway: the wheel
  // cursor may already sit on the far event's quantum.
  eq.schedule_at(10 * kSecond, &rec, 10);
  eq.run_until(5 * kSecond);
  ASSERT_EQ(eq.now(), 5 * kSecond);
  ASSERT_TRUE(log.empty());
#ifdef NDEBUG
  // Release: a stray past deadline degrades to an immediate event — it must
  // land in the heap (behind the cursor) and still fire before the far one.
  eq.schedule_at(4 * kSecond, &rec, 4);
  EXPECT_EQ(eq.clamped_schedules(), 1u);
  eq.run_all();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].second, 4u);
  EXPECT_EQ(log[0].first, 5 * kSecond);  // fired at now, not in the past
  EXPECT_EQ(log[1].second, 10u);
#else
  EXPECT_DEATH(eq.schedule_at(4 * kSecond, &rec, 4), "cannot schedule into the past");
#endif
}

}  // namespace
}  // namespace uno
