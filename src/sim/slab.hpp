// Bump-pointer slab arena for spilled message payloads.
//
// A SyncNetwork slot stores one field inline; a payload of two or more
// fields spills into a MessageSlab owned by the network (one per shard per
// buffer plane), addressed by a 24-bit index the slot can hold. Allocation
// is an index bump, deallocation is a bulk reset() at the round boundary —
// individual blocks are never freed, so the round hot path performs no
// general-heap traffic. Chunks are retained across resets and reused, so a
// steady-state workload allocates nothing at all.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace dec {

class MessageSlab {
 public:
  MessageSlab() = default;
  MessageSlab(const MessageSlab&) = delete;
  MessageSlab& operator=(const MessageSlab&) = delete;
  MessageSlab(MessageSlab&&) = default;
  MessageSlab& operator=(MessageSlab&&) = default;

  /// Bump-allocate a block of `n` fields and return its field index
  /// (resolve with at_index). An index decomposes as chunk = idx >>
  /// kChunkShift, offset = idx & (kChunkFields - 1): a block starts in the
  /// first kChunkFields fields of its chunk and never straddles chunks, and
  /// a block wider than kChunkFields gets a chunk of its own. Never freed
  /// individually; the block lives until the next reset(). Throws
  /// (actionably) past the 24-bit index space.
  std::uint32_t allocate_index(std::size_t n);

  /// Resolve an allocate_index() block.
  const std::int64_t* at_index(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift].data.get() +
           (idx & (kChunkFields - 1));
  }
  std::int64_t* at_index(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift].data.get() +
           (idx & (kChunkFields - 1));
  }

  /// Rewind the arena. All previously allocated blocks become invalid, but
  /// their chunks are kept for reuse.
  void reset();

  /// Fields currently allocated since the last reset (for tests/stats).
  std::size_t used() const { return used_; }

  /// Bytes held by the arena's chunks (kept across resets; for the memory
  /// budget report).
  std::size_t capacity_bytes() const {
    std::size_t bytes = 0;
    for (const auto& c : chunks_) bytes += c.size * sizeof(std::int64_t);
    return bytes;
  }

  static constexpr std::size_t kChunkShift = 14;
  static constexpr std::size_t kChunkFields = 1 << kChunkShift;  // 128 KiB

 private:
  struct Chunk {
    std::unique_ptr<std::int64_t[]> data;
    std::size_t size = 0;
  };

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;   // index of the chunk currently bumped
  std::size_t offset_ = 0;  // fields used within chunks_[chunk_]
  std::size_t used_ = 0;    // total fields since last reset
};

}  // namespace dec
