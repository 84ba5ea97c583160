// Message slots of SyncNetwork, with semantic bit accounting.
//
// CONGEST requires O(log n)-bit messages. We measure the information content
// of every message as the sum of the minimal two's-complement widths of its
// integer fields; the per-round maximum feeds the CongestAudit so that
// Theorem 1.2's bandwidth claim can be checked empirically (EXP-J).
//
// Storage model: every slot of a SyncNetwork plane is a 16 B NarrowSlot —
// one inline field plus an epoch-tagged header (docs/ARCHITECTURE.md "Slot
// format"). A payload of two or more fields spills whole into the owning
// shard's MessageSlab arena, addressed by a 24-bit index; a payload wider
// than 254 fields saturates the slot's 8-bit count and keeps its true length
// in the first word of its spill block. The epoch tag, stamped by the
// network, makes slot validity a tag comparison instead of a per-round
// clear sweep.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace dec {

/// Slot format of a SyncNetwork's message planes. One format remains — the
/// 16 B NarrowSlot — so this is a tag, kept because SlotPlan spells it.
enum class SlotFormat : std::uint8_t {
  kNarrow,  // 16 B NarrowSlot: one inline int64, slab-indexed overflow
};

/// Plane mode of a SyncNetwork's message storage. The mode is structural:
/// chosen at construction, immutable for the life of the run state, and
/// part of the pool's park/adopt identity (a single-plane run state is never
/// adopted for a double-plane lease or vice versa — see
/// sim/shared_pool.hpp). kDouble keeps the classic swapped inbox/outbox
/// plane pair. kSingle allocates ONE plane and delivers by alternating slot
/// ownership with round parity (docs/ARCHITECTURE.md "Plane modes"): in
/// even rounds every node reads and writes its own CSR slots, in odd rounds
/// it reads and writes the peer slots through the precomputed permutation,
/// so each slot has exactly one accessing node per round and last round's
/// write is exactly where this round's read looks. Drain (`drain_fast`)
/// re-reads delivered messages after the round and is therefore impossible
/// on a single plane — it throws. Only drain-free protocols may opt in.
enum class PlaneMode : std::uint8_t {
  kDouble,  // two planes, swap at the barrier (the general default)
  kSingle,  // one plane, parity-alternating slot ownership; drain banned
};

/// Per-lease slot plan: the protocol's declared maximum per-message field
/// count (any width >= 1; it sizes the slab spill blocks) and the plane
/// mode. Exceeding the declared width throws — the substrate never
/// truncates a message. `format` is the one-value SlotFormat tag.
struct SlotPlan {
  SlotFormat format = SlotFormat::kNarrow;
  int max_fields = 1;
  PlaneMode mode = PlaneMode::kDouble;
};

/// The 16 B message slot (docs/ARCHITECTURE.md "Slot format"). One int64
/// payload lives inline; the header word packs the epoch tag (high 32
/// bits), the field count (8 bits), and a 24-bit index into the owning
/// shard's slab for payloads wider than one field:
///
///   header_ = epoch << 32 | count << 24 | spill_index
///
/// Spilled payloads (count >= 2) live whole in a slab block sized for the
/// lease's declared width (block_fields), addressed by index
/// (MessageSlab::at_index) because 24 bits cannot hold a pointer. A count
/// of kSaturated means the payload has 255 or more fields: its true length
/// is the first word of the spill block and the fields follow it, so counts
/// up to 254 keep the plain layout. A slot is live only when its tag equals
/// the round epoch, and the lazy first-touch stamp doubles as the clear
/// (count and spill go to 0).
struct NarrowSlot {
  static constexpr std::uint32_t kMaxSpillIndex = (1u << 24) - 1;
  static constexpr std::uint32_t kSaturated = 255;

  std::int64_t payload_ = 0;
  std::uint64_t header_ = 0;

  std::uint32_t epoch() const {
    return static_cast<std::uint32_t>(header_ >> 32);
  }
  std::uint32_t count() const {
    return static_cast<std::uint32_t>(header_ >> 24) & 0xff;
  }
  std::uint32_t spill() const {
    return static_cast<std::uint32_t>(header_) & kMaxSpillIndex;
  }

  /// Lazy first-touch reset: stamp the write epoch, zero count and spill.
  void stamp(std::uint32_t e) { header_ = static_cast<std::uint64_t>(e) << 32; }
  void set_count(std::uint32_t c) {
    header_ = (header_ & ~0xff000000ull) | (static_cast<std::uint64_t>(c) << 24);
  }
  void set_spill(std::uint32_t idx) {
    header_ = (header_ & ~static_cast<std::uint64_t>(kMaxSpillIndex)) | idx;
  }

  /// Fields of a spill block for a slot of count `c` >= 2.
  static std::span<const std::int64_t> spilled(const std::int64_t* block,
                                               std::uint32_t c) {
    if (c == kSaturated) {
      return {block + 1, static_cast<std::size_t>(block[0])};
    }
    return {block, c};
  }

  /// Spill block size for a declared width: the payload, plus the length
  /// word once the width can saturate the count.
  static std::size_t block_fields(int declared) {
    const auto w = static_cast<std::size_t>(declared);
    return w < kSaturated ? w : w + 1;
  }
};
static_assert(sizeof(NarrowSlot) == 16, "NarrowSlot must stay 16 bytes");

/// Minimal bit width of one signed field (sign bit + magnitude bits).
/// Branch-free: for v >= 0 the magnitude is v, for v < 0 it is |v| - 1
/// (two's complement needs one fewer magnitude bit on the negative side,
/// e.g. -1 fits in sign + 1 bit, INT64_MIN in sign + 63 bits).
inline int field_bits(std::int64_t v) {
  const std::uint64_t u = static_cast<std::uint64_t>(v);
  const std::uint64_t mag = u ^ static_cast<std::uint64_t>(v >> 63);
  return std::bit_width(mag | 1) + 1;  // |1: zero still costs a magnitude bit
}

/// Tracks the maximum message width seen, per run.
class CongestAudit {
 public:
  /// Count one message of `fields` (an empty span models "send nothing"
  /// and is not counted). Bits are a function of the field values alone.
  void observe(std::span<const std::int64_t> fields) {
    if (fields.empty()) return;
    ++messages_;
    int bits = 0;
    for (const std::int64_t v : fields) bits += field_bits(v);
    if (bits > max_bits_) max_bits_ = bits;
  }
  int max_bits() const { return max_bits_; }
  std::int64_t messages_sent() const { return messages_; }
  void reset();

  /// Fold another audit into this one (max of widths, sum of counts). Both
  /// operations are order-independent, so merging per-shard accumulators at
  /// the round barrier is deterministic regardless of thread scheduling.
  void merge(const CongestAudit& other);

 private:
  int max_bits_ = 0;
  std::int64_t messages_ = 0;
};

}  // namespace dec
