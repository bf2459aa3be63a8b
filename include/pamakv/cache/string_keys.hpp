// HashStringKey: maps memcached byte-string keys onto the engine's 64-bit
// key ids.
//
// The engine works on 64-bit key ids for speed; real Memcached clients use
// byte-string keys (up to 250 bytes). A collision would make the cache
// answer a GET with the wrong key's metadata, so the string-keyed front
// end (net::CacheService) keeps the exact key string next to each id and
// resolves a mismatch as a miss — correctness is preserved even in the
// astronomically unlikely collision case.
#pragma once

#include <string_view>

#include "pamakv/util/types.hpp"

namespace pamakv {

/// 64-bit hash of a byte string (FNV-1a core + splitmix finalizer).
[[nodiscard]] KeyId HashStringKey(std::string_view key) noexcept;

}  // namespace pamakv
