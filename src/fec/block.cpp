#include "fec/block.hpp"

#include <algorithm>
#include <cassert>

namespace uno {

BlockFrame::BlockFrame(std::uint64_t size_bytes, std::int64_t mtu, bool ec_enabled,
                       int data_shards, int parity_shards)
    : BlockFrame(size_bytes, mtu, ec_enabled, data_shards, parity_shards, Deferred{}) {
  acquire(nullptr);
}

BlockFrame::BlockFrame(std::uint64_t size_bytes, std::int64_t mtu, bool ec_enabled,
                       int data_shards, int parity_shards, Deferred)
    : size_bytes_(size_bytes),
      mtu_(mtu),
      x_(data_shards),
      y_(ec_enabled ? parity_shards : 0) {
  assert(mtu_ > 0);
  assert(x_ > 0);
  assert(y_ >= 0 && x_ + y_ <= 64);  // shard masks are 64-bit words
  ndata_ = std::max<std::uint64_t>(1, (size_bytes_ + mtu_ - 1) / mtu_);
  nblocks_ = static_cast<std::uint32_t>((ndata_ + x_ - 1) / x_);
  // Every block except possibly the last carries x_ data shards; each block
  // carries y_ parity shards.
  total_packets_ = ndata_ + static_cast<std::uint64_t>(nblocks_) * y_;
}

int BlockFrame::data_shards_in_block(std::uint32_t b) const {
  assert(b < nblocks_);
  const std::uint64_t remaining = ndata_ - static_cast<std::uint64_t>(b) * x_;
  return static_cast<int>(std::min<std::uint64_t>(x_, remaining));
}

BlockFrame::Shard BlockFrame::shard_of(std::uint64_t seq) const {
  assert(seq < total_packets_);
  std::uint32_t b = static_cast<std::uint32_t>(seq / (x_ + y_));
  if (b >= nblocks_) b = nblocks_ - 1;  // the (short) last block
  const std::uint64_t idx = seq - first_seq_of_block(b);
  const int dl = data_shards_in_block(b);
  Shard s;
  s.block = b;
  s.index = static_cast<std::uint8_t>(idx);
  s.parity = static_cast<std::int64_t>(idx) >= dl;
  if (s.parity) {
    s.size = static_cast<std::uint32_t>(mtu_);
  } else {
    const std::uint64_t global_data = static_cast<std::uint64_t>(b) * x_ + idx;
    const bool last = global_data == ndata_ - 1;
    s.size = last ? static_cast<std::uint32_t>(size_bytes_ - (ndata_ - 1) * mtu_)
                  : static_cast<std::uint32_t>(mtu_);
    if (s.size == 0) s.size = 1;  // zero-byte messages still send one packet
  }
  return s;
}

bool BlockFrame::mark(std::uint64_t seq) {
  assert(seq < total_packets_);
  if (marked_.test_and_set(seq)) return false;
  const Shard s = shard_of(seq);
  // Completion fires exactly once: bits are set one at a time, so the
  // popcount equals data_shards_in_block only on the completing mark.
  if (marked_in_block(s.block) == data_shards_in_block(s.block)) ++complete_blocks_;
  return true;
}

}  // namespace uno
