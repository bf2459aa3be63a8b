#include "pamakv/util/crc32.hpp"

#include <array>

namespace pamakv::util {

namespace {

using Table = std::array<std::uint32_t, 256>;

// Slice-by-8: kTables[0] is the classic bytewise table; kTables[k][b] is the
// CRC of byte b followed by k zero bytes, so eight table lookups fold one
// 8-byte word into the state at once.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<Table, 8> kTables = MakeTables();

/// Little-endian load assembled from bytes: same value on every host.
inline std::uint32_t LoadLe32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32Update(std::uint32_t state, const void* data,
                          std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = state ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    state = kTables[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace pamakv::util
