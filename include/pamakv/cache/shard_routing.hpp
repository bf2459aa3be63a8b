// ShardIndexFor: the one key-to-shard routing, shared by the server
// (net::CacheService) and the sharded simulator (ParallelSimulator). Keys
// are mixed with a salt of their own, so routing is independent of the
// engines' internal hashing. Data directories, flash segments and goldens
// were written under it: the salt and the formula must not change.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pamakv/util/rng.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

/// The shard, of `shard_count`, that `key` routes to.
[[nodiscard]] constexpr std::size_t ShardIndexFor(
    KeyId key, std::size_t shard_count) noexcept {
  constexpr std::uint64_t kShardSalt = 0x51a2d5a17e5a17edULL;
  return static_cast<std::size_t>(Mix64(key ^ kShardSalt) % shard_count);
}

}  // namespace pamakv
