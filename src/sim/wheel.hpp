// Hierarchical timing wheel: the far-horizon companion to the event heap.
//
// The event queue keeps only the entries at or before the wheel's cursor in
// its 4-ary heap; everything later parks here in O(1) and is handed back to
// the heap as the cursor advances: one ~1 ns quantum at a time where events
// are dense, a whole sparse level-1 slot (64 quanta) at a time where they
// are not (kWholeDrainMax). perm_inter-style
// inter-DC runs pend thousands of long-RTT timers and WAN in-flight
// deliveries (2 ms RTO rearm storms, ~1 ms propagation), and with a plain
// heap every one of them pays O(log n) sift traffic twice against a
// multi-thousand-entry array. The wheel turns that into: one bucket append
// on schedule, one (amortized O(1)) cascade chain on its way down, and a
// push into a now-tiny near-heap.
//
// Placement is XOR-based (the same trick as Linux hrtimer buckets /
// "hashed hierarchical wheels"): with q = time >> shift and x = q ^ cur,
// the level is the index of x's top set bit divided by 6, and the slot is
// q's 6-bit digit at that level. Because the level only depends on the
// highest *differing* digit, a slot never wraps around the ring — every
// occupied slot at every level is strictly in the future, so per-level
// 64-bit occupancy bitmaps plus ctz give the next occupied quantum without
// scanning.
//
// Determinism: the wheel never dispatches. It only moves entries back into
// the caller's heap (via pop_next_slot's sink) before their quantum starts,
// and the heap's full (time, seq) key restores the exact total order. A
// run's dispatch sequence is therefore bit-identical to the heap-only
// scheduler's — see tests/ab_identity_test.cpp for the pinned proof.
//
// Lazy cancellation composes unchanged: stale entries ride along like live
// ones and either get dropped by compact() (the queue's stale-storm valve)
// or dispatched as cheap no-ops.
//
// Bucket capacity is kept across fills, so the steady state allocates
// nothing, except above kKeepCapacity entries: a bucket that large gives
// its buffer back once it drains or cascades empty. A higher-level slot can
// collect a burst's worth of far timers (the loss-expiry timers of many
// finished flows), and keeping that capacity would pin it for the run.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace uno {

/// `Quantum` maps an Entry to its wheel quantum (time >> shift); it is
/// re-evaluated on cascade instead of being stored, keeping bucket slots at
/// sizeof(Entry).
template <typename Entry, typename Quantum>
class TimingWheel {
 public:
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;  // 64
  static constexpr int kLevels = 7;
  /// Quanta addressable before an entry falls into the overflow list:
  /// 2^42 quanta = 2^52 ps ≈ 75 simulated minutes at shift 10.
  static constexpr std::uint64_t kSpanQuanta = std::uint64_t{1}
                                               << (kSlotBits * kLevels);

  TimingWheel() : buckets_(kLevels * kSlots) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Current quantum: the wheel holds only entries with quantum > cur().
  /// The caller keeps quantum <= cur() entries in its own near-structure.
  std::uint64_t cur() const { return cur_; }

  /// File an entry under quantum `q`. Requires q > cur().
  void insert(std::uint64_t q, const Entry& e) {
    ++size_;
    ++inserts_;
    place(q, e);
  }

  /// A level-1 slot (kSlots quanta) holding at most this many entries
  /// drains whole instead of cascading into level 0. Sparse stretches of a
  /// run then cost one drain per kSlots quanta, as with a kSlots-times
  /// coarser quantum; dense ones still drain one quantum at a time.
  static constexpr std::size_t kWholeDrainMax = 8;

  /// Advance the cursor and move the next occupied slot's entries out
  /// through `sink`: the next occupied quantum's, or all of a sparse level-1
  /// slot's (kWholeDrainMax). Afterwards every entry handed out has quantum
  /// <= cur() and every entry left has quantum > cur().
  /// Returns false iff the wheel — overflow included — is empty.
  template <typename Sink>
  bool pop_next_slot(Sink&& sink) {
    if (size_ == 0) return false;
    for (;;) {
      if (occ_[0] != 0) {
        const int idx = std::countr_zero(occ_[0]);
        cur_ = (cur_ & ~(kSlots - 1)) | static_cast<std::uint64_t>(idx);
        drain(0, idx, sink);
        return true;
      }
      int l = 1;
      while (l < kLevels && occ_[l] == 0) ++l;
      if (l < kLevels) {
        // Jump the cursor into the first occupied slot's window and re-file
        // its entries one level chain down. Slots below the cursor's own
        // digit can't be occupied (they'd be in the past), so ctz is safe.
        const int j = std::countr_zero(occ_[l]);
        const int sh = l * kSlotBits;
        const std::uint64_t below = (std::uint64_t{1} << (sh + kSlotBits)) - 1;
        cur_ = (cur_ & ~below) | (static_cast<std::uint64_t>(j) << sh);
        if (l == 1 && buckets_[kSlots + j].size() <= kWholeDrainMax) {
          // Park the cursor on the slot's last quantum, at or after every
          // entry it holds; level 0 is empty, so nothing is skipped.
          cur_ |= kSlots - 1;
          drain(1, j, sink);
          return true;
        }
        cascade(l, j);
      } else {
        // Wheel arrays empty; only far-future overflow remains. Jump
        // straight to its minimum and pull back whatever now fits.
        ++overflow_jumps_;
        cur_ = overflow_min_q_;
        refile_overflow();
      }
    }
  }

  /// Drop every entry for which `dead` returns true (the queue's stale-entry
  /// compaction). Returns the number removed.
  template <typename DeadPred>
  std::size_t compact(DeadPred&& dead) {
    std::size_t removed = 0;
    for (int l = 0; l < kLevels; ++l) {
      std::uint64_t occ = occ_[l];
      while (occ != 0) {
        const int idx = std::countr_zero(occ);
        occ &= occ - 1;
        std::vector<Entry>& b = buckets_[l * kSlots + idx];
        std::size_t w = 0;
        for (const Entry& e : b)
          if (!dead(e)) b[w++] = e;
        removed += b.size() - w;
        b.resize(w);
        if (w == 0) occ_[l] &= ~(std::uint64_t{1} << idx);
      }
    }
    {
      std::size_t w = 0;
      std::uint64_t new_min = ~std::uint64_t{0};
      for (const Entry& e : overflow_) {
        if (dead(e)) continue;
        overflow_[w++] = e;
        const std::uint64_t q = Quantum{}(e);
        if (q < new_min) new_min = q;
      }
      removed += overflow_.size() - w;
      overflow_.resize(w);
      overflow_min_q_ = new_min;
    }
    size_ -= removed;
    return removed;
  }

  /// Capacity held by the buckets and the overflow list, in bytes.
  std::size_t bytes() const {
    std::size_t n = overflow_.capacity() + scratch_.capacity();
    for (const std::vector<Entry>& b : buckets_) n += b.capacity();
    return n * sizeof(Entry) + buckets_.capacity() * sizeof(std::vector<Entry>);
  }

  /// Perf/obs counters (monotonic over the wheel's lifetime).
  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t cascades() const { return cascades_; }
  std::uint64_t cascaded_entries() const { return cascaded_; }
  std::uint64_t slot_drains() const { return slot_drains_; }
  std::uint64_t overflow_inserts() const { return overflow_inserts_; }
  std::uint64_t overflow_jumps() const { return overflow_jumps_; }

 private:
  /// File under the level given by the highest digit in which q differs from
  /// the cursor; q == cur_ (only possible mid-cascade) lands in the level-0
  /// slot the cursor is parked on, which is drained next.
  void place(std::uint64_t q, const Entry& e) {
    const std::uint64_t x = q ^ cur_;
    const int level = x == 0 ? 0 : (63 - std::countl_zero(x)) / kSlotBits;
    if (level >= kLevels) {
      if (overflow_.empty() || q < overflow_min_q_) overflow_min_q_ = q;
      overflow_.push_back(e);
      ++overflow_inserts_;
      return;
    }
    const std::size_t idx = (q >> (level * kSlotBits)) & (kSlots - 1);
    buckets_[static_cast<std::size_t>(level) * kSlots + idx].push_back(e);
    occ_[level] |= std::uint64_t{1} << idx;
  }

  /// Buckets keep up to this many entries' capacity once emptied.
  static constexpr std::size_t kKeepCapacity = 4096;

  /// Empty `b`, giving back its buffer if it is above kKeepCapacity.
  static void empty(std::vector<Entry>& b) {
    if (b.capacity() > kKeepCapacity)
      std::vector<Entry>().swap(b);
    else
      b.clear();
  }

  template <typename Sink>
  void drain(int l, int j, Sink& sink) {
    std::vector<Entry>& b = buckets_[static_cast<std::size_t>(l) * kSlots + j];
    for (const Entry& e : b) sink(e);
    size_ -= b.size();
    empty(b);
    occ_[l] &= ~(std::uint64_t{1} << j);
    ++slot_drains_;
  }

  void cascade(int l, int j) {
    std::vector<Entry>& b = buckets_[static_cast<std::size_t>(l) * kSlots + j];
    occ_[l] &= ~(std::uint64_t{1} << j);
    ++cascades_;
    cascaded_ += b.size();
    // Re-filing always lands strictly below level l (the level-l digits now
    // match the cursor), so pushing into other buckets never aliases b.
    for (const Entry& e : b) place(Quantum{}(e), e);
    empty(b);
  }

  void refile_overflow() {
    scratch_.clear();
    scratch_.swap(overflow_);
    std::uint64_t new_min = ~std::uint64_t{0};
    for (const Entry& e : scratch_) {
      const std::uint64_t q = Quantum{}(e);
      if ((q ^ cur_) < kSpanQuanta) {
        place(q, e);
      } else {
        overflow_.push_back(e);
        if (q < new_min) new_min = q;
      }
    }
    overflow_min_q_ = new_min;
  }

  std::vector<std::vector<Entry>> buckets_;  // kLevels * kSlots
  std::uint64_t occ_[kLevels] = {};
  std::vector<Entry> overflow_;
  std::vector<Entry> scratch_;
  std::uint64_t overflow_min_q_ = ~std::uint64_t{0};
  std::uint64_t cur_ = 0;
  std::size_t size_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t cascades_ = 0;
  std::uint64_t cascaded_ = 0;
  std::uint64_t slot_drains_ = 0;
  std::uint64_t overflow_inserts_ = 0;
  std::uint64_t overflow_jumps_ = 0;
};

}  // namespace uno
