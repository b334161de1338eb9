// A table indexed by 64-bit id that keeps only the window of ids in use.
//
// Flow ids are dense and increasing (an Experiment hands out 1, 2, 3, ...),
// and a flow's entries are needed only from its spawn until it retires. A
// vector indexed by id therefore grows with every flow ever spawned; this
// table spans the oldest entry still in use to the newest, so it grows with
// the flows alive at once. Its owner says when entries at the front are
// done (trim_front). An entry that stays in use holds the window's start,
// so the window never spans more ids than that vector would.
//
// Storage is a power-of-two ring addressed by id & mask, at least as large
// as the window: a lookup is a subtraction, a bounds check and one load,
// and the window slides without moving an entry. Slots outside the window
// hold T{}.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace uno {

template <typename T>
class IdWindow {
 public:
  /// The entry for `id`, or null outside the window.
  T* find(std::uint64_t id) {
    return id - first_ < size_ ? &slots_[id & mask_] : nullptr;  // wraps below first_
  }
  const T* find(std::uint64_t id) const { return const_cast<IdWindow*>(this)->find(id); }

  /// The entry for `id`, widening the window to hold it; the slots it
  /// adds hold T{}.
  T& at(std::uint64_t id) {
    std::uint64_t first = first_;
    std::size_t size = size_;
    if (size == 0) {
      first = id;
      size = 1;
    } else if (id < first) {  // ids picked by hand, below the window
      size += first - id;
      first = id;
    } else if (id - first >= size) {
      size = id - first + 1;
    }
    if (size > cap_) grow(size);
    first_ = first;
    size_ = size;
    return slots_[id & mask_];
  }

  /// Drop entries from the front of the window while `done(entry)` holds.
  template <typename Done>
  void trim_front(Done&& done) {
    while (size_ > 0 && done(slots_[first_ & mask_])) {
      slots_[first_ & mask_] = T{};
      ++first_;
      --size_;
    }
  }

  /// Ids in the window, from the oldest entry's to the newest's.
  std::size_t size() const { return size_; }
  /// Capacity held, in bytes.
  std::size_t bytes() const { return cap_ * sizeof(T); }

 private:
  /// Double the ring until `size` ids fit, re-homing every entry.
  void grow(std::size_t size) {
    std::size_t cap = cap_ == 0 ? kInitialCapacity : cap_;
    while (cap < size) cap *= 2;
    auto slots = std::make_unique<T[]>(cap);
    for (std::uint64_t id = first_; id - first_ < size_; ++id)
      slots[id & (cap - 1)] = std::move(slots_[id & mask_]);
    slots_ = std::move(slots);
    cap_ = cap;
    mask_ = cap - 1;
  }

  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  std::unique_ptr<T[]> slots_;
  std::size_t cap_ = 0;
  std::uint64_t mask_ = 0;
  std::uint64_t first_ = 0;  // the window's oldest id
  std::size_t size_ = 0;     // ids in the window
};

}  // namespace uno
