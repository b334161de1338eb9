// Size-classed slab recycling for per-flow transport state.
//
// A million-flow run creates and destroys flow state continuously; the
// default allocator handles that, but each create/destroy round trips
// through malloc for every PktMeta array, delivery bitmap, and ring buffer,
// and the blocks scatter across the heap. `SlabPool` keeps freed blocks in
// power-of-two size-class free lists, so steady-state flow churn recycles
// the same slabs instead of allocating: after warm-up, `acquires()` grows
// while `heap_allocs()` stays flat — the same testable zero-allocation
// contract as the FEC ArenaPool (fec/arena.hpp, PR 4).
//
// Not thread-safe by design: the experiment owns one pool per PDES shard,
// and a flow endpoint acquires and releases only on the thread that owns
// its shard (or on the main thread while shard threads are parked) — the
// pool is only ever touched from one thread at a time.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

namespace uno {

class SlabPool {
 public:
  static constexpr std::size_t kMinBlock = 64;  // one cache line

  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    for (auto& cls : classes_)
      for (void* p : cls) ::operator delete(p);
  }

  /// Round `bytes` up to its size class (power of two, >= kMinBlock).
  static std::size_t block_size(std::size_t bytes) {
    std::size_t b = kMinBlock;
    while (b < bytes) b *= 2;
    return b;
  }

  /// A block of at least `bytes` bytes (contents unspecified). The caller
  /// must release with the same `bytes` (or the rounded block_size).
  void* acquire(std::size_t bytes) {
    ++acquires_;
    const std::size_t cls = class_of(bytes);
    const std::size_t block = kMinBlock << cls;
    live_bytes_ += block;
    if (live_bytes_ > peak_live_bytes_) peak_live_bytes_ = live_bytes_;
    if (cls < classes_.size() && !classes_[cls].empty()) {
      void* p = classes_[cls].back();
      classes_[cls].pop_back();
      pooled_bytes_ -= block;
      return p;
    }
    ++heap_allocs_;
    return ::operator new(block);
  }

  void release(void* p, std::size_t bytes) {
    if (p == nullptr) return;
    ++releases_;
    const std::size_t cls = class_of(bytes);
    const std::size_t block = kMinBlock << cls;
    assert(live_bytes_ >= block);
    live_bytes_ -= block;
    if (classes_.size() <= cls) classes_.resize(cls + 1);
    classes_[cls].push_back(p);
    pooled_bytes_ += block;
  }

  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t releases() const { return releases_; }
  std::uint64_t heap_allocs() const { return heap_allocs_; }
  /// Bytes currently handed out to live holders (size-class rounded).
  std::size_t live_bytes() const { return live_bytes_; }
  std::size_t peak_live_bytes() const { return peak_live_bytes_; }
  /// Bytes idle on the free lists, ready for reuse.
  std::size_t pooled_bytes() const { return pooled_bytes_; }

 private:
  static std::size_t class_of(std::size_t bytes) {
    std::size_t cls = 0;
    std::size_t b = kMinBlock;
    while (b < bytes) {
      b *= 2;
      ++cls;
    }
    return cls;
  }

  std::vector<std::vector<void*>> classes_;
  std::uint64_t acquires_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t heap_allocs_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t peak_live_bytes_ = 0;
  std::size_t pooled_bytes_ = 0;
};

/// Fixed-size array of a trivially copyable T, backed by a SlabPool block
/// when a pool is supplied and plain heap otherwise (so direct-construction
/// call sites without a pool keep working unchanged). `release()` returns
/// the storage early — flows shed their per-packet state the moment the
/// message completes instead of holding it until destruction.
template <typename T>
class SlabVec {
  static_assert(std::is_trivially_copyable_v<T>, "SlabVec skips destruction");

 public:
  SlabVec() = default;
  SlabVec(SlabVec&& o) noexcept
      : data_(o.data_), n_(o.n_), bytes_(o.bytes_), pool_(o.pool_) {
    o.data_ = nullptr;
    o.n_ = 0;
    o.bytes_ = 0;
  }
  SlabVec& operator=(SlabVec&& o) noexcept {
    release();
    data_ = o.data_;
    n_ = o.n_;
    bytes_ = o.bytes_;
    pool_ = o.pool_;
    o.data_ = nullptr;
    o.n_ = 0;
    o.bytes_ = 0;
    return *this;
  }
  SlabVec(const SlabVec&) = delete;
  SlabVec& operator=(const SlabVec&) = delete;
  ~SlabVec() { release(); }

  /// Size to `n` elements, each a copy of `v`.
  void assign(std::size_t n, const T& v, SlabPool* pool) {
    release();
    pool_ = pool;
    n_ = n;
    if (n == 0) return;
    bytes_ = n * sizeof(T);
    data_ = static_cast<T*>(pool_ != nullptr ? pool_->acquire(bytes_)
                                             : ::operator new(bytes_));
    for (std::size_t i = 0; i < n; ++i) data_[i] = v;
  }

  /// Return the storage to the pool (or heap). The vec reads as empty after.
  void release() {
    if (data_ == nullptr) return;
    if (pool_ != nullptr)
      pool_->release(data_, bytes_);
    else
      ::operator delete(data_);
    data_ = nullptr;
    n_ = 0;
    bytes_ = 0;
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  T& operator[](std::size_t i) {
    assert(i < n_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < n_);
    return data_[i];
  }
  T* begin() { return data_; }
  T* end() { return data_ + n_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + n_; }

 private:
  T* data_ = nullptr;
  std::size_t n_ = 0;
  std::size_t bytes_ = 0;
  SlabPool* pool_ = nullptr;
};

}  // namespace uno
