// On-disk record format shared by snapshots and the write-ahead log.
//
// Every record is one CRC-framed unit:
//
//     [u32 len][payload (len bytes)][u32 crc32(payload)]
//
// with all integers little-endian and the payload's first byte a
// RecordType tag. The frame is the corruption-detection boundary: a
// reader either gets a whole CRC-verified payload or knows exactly where
// the file stops making sense.
//
// Torn tail vs corruption: a crash mid-append leaves a bad frame with
// *nothing valid after it* (short frame, zeroed bytes, or a length that
// runs past EOF). Bit rot in the middle of a file leaves a bad frame
// *followed by more valid frames*. FrameScanner classifies the two by
// scanning a bounded window past the first bad byte for any CRC-valid
// frame — recovery truncates the former and refuses the latter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "pamakv/persist/records.hpp"

namespace pamakv::persist {

/// Recovery's clean-refusal signal: the data directory holds a file that
/// is damaged in a way replay cannot safely skip. The server reports the
/// message and exits nonzero rather than serving reconstructed garbage.
class CorruptionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RecordType : std::uint8_t {
  // Snapshot records, in file order.
  kSnapHeader = 0x01,
  kSnapLayout = 0x02,
  kSnapGhosts = 0x03,
  kSnapItem = 0x04,
  kSnapFooter = 0x05,
  // WAL records.
  kWalHeader = 0x10,
  kWalStore = 0x11,
  kWalDelete = 0x12,
  kWalTouch = 0x13,
  kWalFlush = 0x14,
  // Flash segment records (flash/ reuses the CRC frame layer, so its
  // tags must be registered here for FrameAt's type check).
  kFlashItem = 0x20,
  kFlashTomb = 0x21,
};

[[nodiscard]] bool IsKnownRecordType(std::uint8_t tag) noexcept;

inline constexpr std::uint64_t kSnapMagic = 0x70616D616B762D31ULL;  // "pamakv-1"
inline constexpr std::uint64_t kWalMagic = 0x70616D616B772D31ULL;   // "pamakw-1"
inline constexpr std::uint32_t kFormatVersion = 1;

/// Upper bound on one payload: key (250) + value (1 MiB) + fixed fields,
/// with slack. Anything larger is by definition not one of our frames.
inline constexpr std::size_t kMaxFramePayload = 2u * 1024 * 1024;

/// How far past a bad frame FrameScanner looks for a valid frame before
/// concluding the rest of the file is a torn tail. Larger than any one
/// frame, so a single overwritten frame with intact successors is always
/// classified as corruption, not a tail.
inline constexpr std::size_t kCorruptionScanWindow = 4u * 1024 * 1024;

/// Maps the whole regular file open at `fd` read-only, its size taken
/// from fstat(2), with every page faulted in up front. False (errno set,
/// `out` untouched) when fstat or mmap fails or `fd` is not a regular
/// file. The file must not be truncated while `out` maps it.
[[nodiscard]] bool MapWholeFile(int fd, FileBytes* out);

/// Appends [len][payload][crc] to `out`.
void AppendFrame(std::vector<char>& out, std::string_view payload);

// ---- primitive little-endian encoding ----

class Encoder {
 public:
  explicit Encoder(std::vector<char>& out) : out_(&out) {}
  void U8(std::uint8_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  /// U32 length prefix + raw bytes.
  void Bytes(std::string_view v);

 private:
  std::vector<char>* out_;
};

/// Bounds-checked reader over one payload. Every accessor returns a
/// value and clears ok() on underflow; callers check `ok() && AtEnd()`
/// once at the end instead of after every field.
class Decoder {
 public:
  explicit Decoder(std::string_view payload)
      : p_(payload.data()), end_(payload.data() + payload.size()) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  /// View into the payload buffer (valid as long as the buffer is).
  std::string_view Bytes();

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool AtEnd() const noexcept { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

// ---- frame scanning ----

class FrameScanner {
 public:
  explicit FrameScanner(std::string_view data) : data_(data) {}

  enum class Status {
    kFrame,  ///< *payload points at the next CRC-verified payload
    kEnd,    ///< clean end of data
    kBad,    ///< bytes at offset() are not a valid frame; cursor stays
  };

  Status Next(std::string_view* payload);

  /// Byte offset of the cursor (after kBad: where the bad frame starts —
  /// the truncation point if the tail is torn).
  [[nodiscard]] std::size_t offset() const noexcept { return off_; }

  /// Only meaningful after kBad: true when a CRC-valid frame with a known
  /// record type exists within the scan window after the bad bytes —
  /// i.e. mid-file corruption, not a torn tail.
  [[nodiscard]] bool ValidFrameAfterBad() const;

 private:
  std::string_view data_;
  std::size_t off_ = 0;
};

// ---- snapshot records ----

struct SnapHeader {
  std::uint32_t shard = 0;
  std::uint32_t shard_count = 0;
  std::uint32_t num_classes = 0;
  std::uint32_t num_bands = 0;
  std::uint64_t wal_seq = 0;  ///< WAL records <= this are covered
  std::uint64_t cas_counter = 0;
  std::int64_t flush_at_unix_ns = 0;
  std::uint64_t flush_seq = 0;
  std::int64_t captured_unix_ns = 0;
};

void EncodeSnapHeader(std::vector<char>& payload, const SnapHeader& h);
[[nodiscard]] bool DecodeSnapHeader(std::string_view payload, SnapHeader* out);

void EncodeSnapLayout(std::vector<char>& payload,
                      const std::vector<std::uint64_t>& slab_counts);
[[nodiscard]] bool DecodeSnapLayout(std::string_view payload,
                                    std::vector<std::uint64_t>* out);

/// One (class,band) ghost list, entries oldest first.
void EncodeSnapGhosts(std::vector<char>& payload, std::uint32_t stack_index,
                      const std::vector<GhostEntry>& entries);
[[nodiscard]] bool DecodeSnapGhosts(std::string_view payload,
                                    std::uint32_t* stack_index,
                                    std::vector<GhostEntry>* out);

void EncodeSnapItem(std::vector<char>& payload, const SnapItem& item);
/// Views into `payload`; leaves `out->id` to the caller.
[[nodiscard]] bool DecodeSnapItem(std::string_view payload, RestoredItem* out);

struct SnapFooter {
  std::uint64_t item_count = 0;  ///< kSnapItem records in this file
};

void EncodeSnapFooter(std::vector<char>& payload, const SnapFooter& f);
[[nodiscard]] bool DecodeSnapFooter(std::string_view payload, SnapFooter* out);

// ---- WAL records ----

struct WalHeader {
  std::uint32_t shard = 0;
  std::uint64_t gen = 0;
  std::uint64_t first_seq = 0;  ///< seq the first record in this file gets
};

void EncodeWalHeader(std::vector<char>& payload, const WalHeader& h);
[[nodiscard]] bool DecodeWalHeader(std::string_view payload, WalHeader* out);

/// Decoded mutation record; string fields view into the file buffer.
struct WalRecord {
  RecordType type = RecordType::kWalStore;
  std::uint64_t seq = 0;
  std::string_view key;
  std::string_view value;             // kWalStore
  std::uint32_t flags = 0;            // kWalStore
  std::int64_t expire_unix_ns = 0;    // kWalStore / kWalTouch
  std::int64_t stored_unix_ns = 0;    // kWalStore / kWalTouch
  std::uint64_t cas = 0;              // kWalStore
  std::int64_t cutover_unix_ns = 0;   // kWalFlush
};

void EncodeWalStore(std::vector<char>& payload, std::uint64_t seq,
                    const WalStore& rec);
void EncodeWalDelete(std::vector<char>& payload, std::uint64_t seq,
                     std::string_view key);
void EncodeWalTouch(std::vector<char>& payload, std::uint64_t seq,
                    std::string_view key, std::int64_t expire_unix_ns,
                    std::int64_t stored_unix_ns);
void EncodeWalFlush(std::vector<char>& payload, std::uint64_t seq,
                    std::int64_t cutover_unix_ns);

/// Decodes any of the four mutation records (not kWalHeader).
[[nodiscard]] bool DecodeWalRecord(std::string_view payload, WalRecord* out);

// ---- data-dir file naming ----

/// shard<I>-<N>.snap / shard<I>-<N>.wal (N = covered wal_seq for
/// snapshots, generation for logs).
[[nodiscard]] std::string SnapshotFileName(std::size_t shard, std::uint64_t seq);
[[nodiscard]] std::string WalFileName(std::size_t shard, std::uint64_t gen);

struct DataFileName {
  enum class Kind { kSnapshot, kWal };
  Kind kind = Kind::kSnapshot;
  std::size_t shard = 0;
  std::uint64_t number = 0;
};

/// Parses a directory entry; false for anything that is not ours.
[[nodiscard]] bool ParseDataFileName(std::string_view name, DataFileName* out);

}  // namespace pamakv::persist
