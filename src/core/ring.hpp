// Contiguous power-of-two ring buffer for trivially copyable payloads.
//
// Queues and links push/pop one packet per simulated serialization or
// propagation event, so the FIFO is on the per-packet hot path. std::deque
// pays block-map indirection and boundary branches on every access; this
// ring is a single flat array with mask-wrapped indices, and because the
// element type is trivially copyable a pop is just an index bump (no
// destructor, no slot reset — stale bytes are unreachable and harmless).
//
// The backing store is allocated with new[] and left default-initialized:
// a std::vector would zero-fill every slot on construction and growth, a
// full pass over memory that is only ever read after being overwritten.
// Skipping it matters to the trace rings (obs/trace.hpp), where first-touch
// memory traffic is the dominant emit cost; reserve() exists for the same
// reason (pre-size once, no doubling copies on the hot path).
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>

namespace uno {

template <typename T>
class PodRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "PodRing skips initialization and destruction of slots");

 public:
  PodRing() = default;
  PodRing(PodRing&& o) noexcept
      : buf_(std::move(o.buf_)), cap_(o.cap_), mask_(o.mask_), head_(o.head_),
        tail_(o.tail_) {
    o.cap_ = o.mask_ = 0;
    o.head_ = o.tail_ = 0;
  }
  PodRing& operator=(PodRing&& o) noexcept {
    buf_ = std::move(o.buf_);
    cap_ = o.cap_;
    mask_ = o.mask_;
    head_ = o.head_;
    tail_ = o.tail_;
    o.cap_ = o.mask_ = 0;
    o.head_ = o.tail_ = 0;
    return *this;
  }
  PodRing(const PodRing&) = delete;
  PodRing& operator=(const PodRing&) = delete;

  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }
  std::size_t capacity() const { return cap_; }

  T& front() { return buf_[head_ & mask_]; }
  const T& front() const { return buf_[head_ & mask_]; }

  /// i-th element from the front (0 == front()).
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const { return buf_[(head_ + i) & mask_]; }

  void push_back(const T& v) {
    if (size() == cap_) grow(2 * cap_);
    buf_[tail_++ & mask_] = v;
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    if (size() == cap_) grow(2 * cap_);
    buf_[tail_++ & mask_] = T{static_cast<Args&&>(args)...};
  }

  void pop_front() { ++head_; }

  void clear() { head_ = tail_ = 0; }

  /// Drop the backing store entirely (clear() keeps it). Completed flows
  /// call this so a million finished senders don't pin their ring buffers.
  void release() {
    buf_.reset();
    cap_ = mask_ = 0;
    head_ = tail_ = 0;
  }

  /// Pre-size the buffer to hold at least `n` elements (rounded up to a
  /// power of two). Untouched slots cost address space, not pages. Throws
  /// std::length_error, leaving the ring as it was, when `n` is above the
  /// largest power of two a size_t holds (2^63 on 64-bit targets).
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

 private:
  void grow(std::size_t at_least) {
    // Above the largest power of two the doubling below would wrap to 0 and
    // never end.
    if (at_least > kMaxCapacity)
      throw std::length_error("PodRing: capacity above the largest power of two");
    std::size_t next_cap = cap_ == 0 ? kInitialCapacity : cap_;
    while (next_cap < at_least) next_cap *= 2;
    const std::size_t n = size();
    // new T[] of a trivial type default-initializes: no zero-fill.
    std::unique_ptr<T[]> next(new T[next_cap]);
    for (std::size_t i = 0; i < n; ++i) next[i] = buf_[(head_ + i) & mask_];
    buf_ = std::move(next);
    cap_ = next_cap;
    mask_ = cap_ - 1;
    head_ = 0;
    tail_ = n;
  }

  static constexpr std::size_t kInitialCapacity = 16;  // power of two
  static constexpr std::size_t kMaxCapacity =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  // Free-running indices; unsigned wraparound keeps tail_ - head_ == size
  // even across 2^64 pushes, and masking picks the slot.
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace uno
