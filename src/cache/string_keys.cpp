#include "pamakv/cache/string_keys.hpp"

#include "pamakv/util/rng.hpp"

namespace pamakv {

KeyId HashStringKey(std::string_view key) noexcept {
  // FNV-1a accumulates every byte; the splitmix finalizer fixes FNV's weak
  // high-bit avalanche.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace pamakv
