// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
// framing every persistence record. Slice-by-8 tables, no dependencies; the
// same polynomial zlib/gzip use, so frames can be cross-checked with
// standard tools while debugging a corrupt file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pamakv::util {

/// Incremental update: feed chunks with the running value, starting from
/// Crc32Init(). Finalize with Crc32Final().
[[nodiscard]] std::uint32_t Crc32Update(std::uint32_t state, const void* data,
                                        std::size_t len) noexcept;

[[nodiscard]] constexpr std::uint32_t Crc32Init() noexcept {
  return 0xFFFFFFFFu;
}

[[nodiscard]] constexpr std::uint32_t Crc32Final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot convenience.
[[nodiscard]] inline std::uint32_t Crc32(std::string_view data) noexcept {
  return Crc32Final(Crc32Update(Crc32Init(), data.data(), data.size()));
}

}  // namespace pamakv::util
