#include "pamakv/util/crc32.hpp"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PAMAKV_CRC32_CLMUL 1
#include <immintrin.h>
#else
#define PAMAKV_CRC32_CLMUL 0
#endif

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

#if PAMAKV_CRC32_CLMUL

/// Below this the folding set-up costs more than slice-by-8 saves.
constexpr std::size_t kClmulMinBytes = 64;

#define PAMAKV_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

PAMAKV_CLMUL_TARGET inline __m128i Load128(const unsigned char* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries `x` 128 bits forward (its halves times k's halves) and adds the
/// block that sits there.
PAMAKV_CLMUL_TARGET inline __m128i Fold128(__m128i x, __m128i k,
                                           __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ", Intel 2009) over the bit-reflected
/// 0xEDB88320 polynomial. Four 128-bit lanes fold 64 bytes per step,
/// collapse into one lane, fold the remaining 16-byte blocks, then reduce
/// 128 -> 64 -> 32 bits with a Barrett step. `len` is a multiple of 16 and
/// at least 64; every load is unaligned. Returns the running state, the
/// same value slice-by-8 computes.
PAMAKV_CLMUL_TARGET std::uint32_t Crc32Clmul(std::uint32_t state,
                                             const unsigned char* p,
                                             std::size_t len) noexcept {
  // Reflected x^(512+32) and x^(512-32) mod P (fold by 64 B), x^(128+32)
  // and x^(128-32) (by 16 B), x^64 (128 -> 64 bits), then P itself and
  // floor(x^64 / P) for the Barrett step.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = Fold128(x1, k1k2, Load128(p));
    x2 = Fold128(x2, k1k2, Load128(p + 16));
    x3 = Fold128(x3, k1k2, Load128(p + 32));
    x4 = Fold128(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = Fold128(x1, k3k4, Load128(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// Decided once per process; the kernel needs PCLMULQDQ and SSE4.1.
bool HostHasClmul() noexcept {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return have;
}

#endif  // PAMAKV_CRC32_CLMUL

}  // namespace

namespace detail {

std::uint32_t Crc32SliceBy8(std::uint32_t state, const void* data,
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

const char* Crc32KernelName() noexcept {
#if PAMAKV_CRC32_CLMUL
  if (HostHasClmul()) return "pclmul";
#endif
  return "slice-by-8";
}

}  // namespace detail

std::uint32_t Crc32Update(std::uint32_t state, const void* data,
                          std::size_t len) noexcept {
#if PAMAKV_CRC32_CLMUL
  if (len >= kClmulMinBytes && HostHasClmul()) {
    const auto* p = static_cast<const unsigned char*>(data);
    const std::size_t blocks = len & ~std::size_t{15};
    state = Crc32Clmul(state, p, blocks);
    return detail::Crc32SliceBy8(state, p + blocks, len - blocks);
  }
#endif
  return detail::Crc32SliceBy8(state, data, len);
}

}  // namespace pamakv::util
