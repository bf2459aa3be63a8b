// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
// framing every persistence record; the same polynomial zlib/gzip use, so
// frames can be cross-checked with standard tools while debugging a
// corrupt file. Two kernels compute the same values: on x86-64 hosts with
// PCLMULQDQ and SSE4.1 (checked once per process), inputs of 64 bytes or
// more fold 16-byte blocks by carry-less multiplication; everything else —
// other hosts, shorter inputs and the last len % 16 bytes — runs slice-by-8
// tables. No dependencies, no option selects between them.
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

namespace detail {

/// The portable kernel alone (Crc32Update's fallback and tail), so tests
/// check it against the reference on every host.
[[nodiscard]] std::uint32_t Crc32SliceBy8(std::uint32_t state, const void* data,
                                          std::size_t len) noexcept;

/// "pclmul" or "slice-by-8": the kernel Crc32Update uses for long inputs
/// on this host.
[[nodiscard]] const char* Crc32KernelName() noexcept;

}  // namespace detail

}  // namespace pamakv::util
