// Common scalar types and strong aliases used across the pamakv library.
#pragma once

#include <cstdint>
#include <limits>

namespace pamakv {

/// 64-bit key identifier. String front-ends hash into this space; the
/// simulator's synthetic traces draw keys from it directly.
using KeyId = std::uint64_t;

/// Byte counts (item sizes, slab sizes, cache capacities).
using Bytes = std::uint64_t;

/// Durations in microseconds. Miss penalties in the paper span 1 ms .. 5 s,
/// so a signed 64-bit microsecond count is ample.
using MicroSecs = std::int64_t;

/// Logical cache time: the number of requests served so far. The paper
/// defines PAMA's time windows in accesses, not wall-clock time (Sec. III).
using AccessClock = std::uint64_t;

/// Index of a size class (Memcached "slab class").
using ClassId = std::uint32_t;

/// Index of a penalty-band subclass within a class.
using SubclassId = std::uint32_t;

/// Handle into the engine's item table. 32 bits bounds the table at ~4B
/// items, far beyond any simulated cache.
using ItemHandle = std::uint32_t;

inline constexpr ItemHandle kInvalidHandle =
    std::numeric_limits<ItemHandle>::max();

/// The memcached state of one stored value: the header a DRAM record and a
/// flash slot share, so every item rule (lapse, touch, cas compare) reads
/// the same fields on either tier. Times are monotonic nanoseconds.
struct ItemMeta {
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  /// Deadline; 0 = never, negative = expired on arrival.
  std::int64_t expire_at_ns = 0;
  /// When the value was stored or last touched: the flush-epoch side of
  /// the lapse rule compares against this.
  std::int64_t stored_at_ns = 0;
  /// The shard's flush count at that moment: splits stores landing on the
  /// same nanosecond as a flush_all (before vs after the command).
  std::uint64_t flush_seq = 0;

  /// This header alone, to read or assign it through a type that extends
  /// it.
  [[nodiscard]] ItemMeta& header() noexcept { return *this; }
  [[nodiscard]] const ItemMeta& header() const noexcept { return *this; }
};

/// Request verbs understood by the simulator (the Memcached primitives the
/// paper's Sec. I lists, with REPLACE folded into SET).
enum class Op : std::uint8_t {
  kGet = 0,
  kSet = 1,
  kDel = 2,
};

}  // namespace pamakv
