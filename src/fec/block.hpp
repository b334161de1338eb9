// Erasure-coding block framing and delivery accounting (UnoRC, §4.2).
//
// A message of `size_bytes` is segmented into MTU-sized data packets and,
// when EC is enabled, grouped into blocks of `x` data + `y` parity shards
// (default (8,2)). A block is decodable once any `x` of its `x+y` shards
// arrive — the MDS property of the Reed–Solomon code in fec/rs.hpp, which is
// property-tested over every erasure pattern. This class does the *framing
// arithmetic and progress accounting* shared by sender (ACK side) and
// receiver (arrival side); the actual codec operates on payload bytes and is
// exercised by the fec tests, benches, and examples.
//
// With y == 0 the frame degenerates to plain segmentation: a "block" is
// complete only when all of its data shards are marked, so whole-message
// completion means every packet delivered.
#pragma once

#include <cstdint>

#include "core/bitmap.hpp"

namespace uno {

class BlockFrame {
 public:
  /// Framing plus an all-clear delivery bitmap on the heap.
  BlockFrame(std::uint64_t size_bytes, std::int64_t mtu, bool ec_enabled, int data_shards,
             int parity_shards);
  /// Framing only: the delivery bitmap stays empty until acquire(), so a
  /// flow holds per-shard state only while its message is in progress.
  struct Deferred {};
  BlockFrame(std::uint64_t size_bytes, std::int64_t mtu, bool ec_enabled, int data_shards,
             int parity_shards, Deferred);

  /// Draw the all-clear delivery bitmap, from `pool` when given (release()
  /// then recycles it there) and from the heap otherwise.
  void acquire(SlabPool* pool) { marked_.assign(total_packets_, pool); }
  /// Drop the delivery bitmap once the message completed; the framing
  /// arithmetic (total_packets, shard_of, complete, ...) stays valid, only
  /// per-shard queries (is_marked, shard_mask, ...) become meaningless.
  void release() { marked_.release(); }

  std::uint64_t total_packets() const { return total_packets_; }
  std::uint64_t data_packets() const { return ndata_; }
  std::uint32_t num_blocks() const { return nblocks_; }
  bool ec_enabled() const { return y_ > 0; }
  int data_per_block() const { return x_; }
  int parity_per_block() const { return y_; }

  struct Shard {
    std::uint32_t block = 0;
    std::uint8_t index = 0;  // within the block
    bool parity = false;
    std::uint32_t size = 0;  // wire bytes
  };
  Shard shard_of(std::uint64_t seq) const;

  std::uint64_t first_seq_of_block(std::uint32_t b) const {
    return static_cast<std::uint64_t>(b) * (x_ + y_);
  }
  /// Data shards in block b (the last block may be short).
  int data_shards_in_block(std::uint32_t b) const;
  /// Total shards (data + parity) in block b.
  int shards_in_block(std::uint32_t b) const {
    return data_shards_in_block(b) + y_;
  }

  // --- delivery/ACK progress --------------------------------------------------
  // Delivery state is a word-packed bitmap (core/bitmap.hpp): per-block
  // questions are a window extract + popcount, and `shard_mask` is the same
  // present-bitmask the Reed–Solomon decode-matrix cache keys on.

  /// Record shard `seq` as delivered/acked. Returns true the first time.
  bool mark(std::uint64_t seq);
  bool is_marked(std::uint64_t seq) const { return marked_.test(seq); }
  int marked_in_block(std::uint32_t b) const {
    return static_cast<int>(
        marked_.count_range(first_seq_of_block(b), shards_in_block(b)));
  }
  /// Decodable: >= data_shards_in_block distinct shards marked.
  bool block_complete(std::uint32_t b) const {
    return marked_in_block(b) >= data_shards_in_block(b);
  }
  bool complete() const { return complete_blocks_ == nblocks_; }
  /// Present bitmask of block b's shards, bit i = shard i (x + y <= 64).
  std::uint64_t shard_mask(std::uint32_t b) const {
    return marked_.window(first_seq_of_block(b), shards_in_block(b));
  }

 private:
  std::uint64_t size_bytes_;
  std::int64_t mtu_;
  int x_;
  int y_;
  std::uint64_t ndata_;
  std::uint32_t nblocks_;
  std::uint64_t total_packets_;

  Bitset64 marked_;
  std::uint32_t complete_blocks_ = 0;
};

}  // namespace uno
