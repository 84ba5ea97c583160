#include "sim/slab.hpp"

#include <algorithm>

#include "testing/fault_injection.hpp"
#include "util/check.hpp"

namespace dec {

std::uint32_t MessageSlab::allocate_index(std::size_t n) {
  // Chaos hook: an armed kAllocFail plan throws std::bad_alloc from inside
  // a running round, exercising abort_round on whichever shard spilled.
  DEC_FAULT_POINT("slab.alloc");
  // The block must start where its offset still fits the index's offset
  // bits and end inside the chunk; chunks that cannot take it are skipped
  // for this round (a retained oversized chunk serves any width).
  while (chunk_ < chunks_.size() &&
         (offset_ >= kChunkFields || offset_ + n > chunks_[chunk_].size)) {
    ++chunk_;
    offset_ = 0;
  }
  if (chunk_ == chunks_.size()) {
    // Blocks are always written before they are read, so the chunk needs
    // no zeroing (untouched pages of a large chunk stay unmapped).
    const std::size_t size = std::max(kChunkFields, n);
    chunks_.push_back(
        Chunk{std::make_unique_for_overwrite<std::int64_t[]>(size), size});
    offset_ = 0;
  }
  const std::size_t idx = (chunk_ << kChunkShift) | offset_;
  DEC_CHECK(idx <= 0xffffff,
            "spill arena exhausted: more than 2^24 spilled fields in one "
            "shard's round — shard the run further (more threads) or send "
            "narrower messages");
  offset_ += n;
  used_ += n;
  return static_cast<std::uint32_t>(idx);
}

void MessageSlab::reset() {
  chunk_ = 0;
  offset_ = 0;
  used_ = 0;
}

}  // namespace dec
