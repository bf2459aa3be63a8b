// Interchange types between the cache service and the persistence layer.
//
// This header is deliberately dependency-light (plain structs + one
// abstract interface): net/cache_service.hpp includes it to emit
// mutations and accept restore state, while the persistence machinery
// (wal/recovery/persister) includes cache_service.hpp — keeping the
// include graph acyclic.
//
// Time convention: everything persisted is UNIX nanoseconds, because the
// monotonic clock does not survive a restart. Expiry deadlines keep the
// service's sentinels: 0 = never expires, negative = already expired.
// CacheService converts to/from its monotonic anchor at the boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pamakv/util/types.hpp"

namespace pamakv::persist {

/// One acknowledged mutation, as appended to the write-ahead log. Views
/// point into the service's records and are only valid for the
/// duration of the sink call (made under the shard lock).
struct WalStore {
  std::string_view key;
  std::string_view value;
  std::uint32_t flags = 0;
  std::int64_t expire_unix_ns = 0;  ///< 0 never, <0 already expired
  std::int64_t stored_unix_ns = 0;
  std::uint64_t cas = 0;
};

/// One item the snapshot writer serializes (owning strings: snapshots are
/// serialized in batches after the capture lock is dropped).
struct SnapItem {
  std::string key;
  std::string value;
  std::uint32_t flags = 0;
  std::int64_t expire_unix_ns = 0;
  std::int64_t stored_unix_ns = 0;
  std::uint64_t cas = 0;
  /// Global LRU position: snapshot items carry the engine access clock,
  /// WAL-replayed items carry sequence numbers offset far above it, so
  /// sorting by `order` ascending reproduces coldest-to-hottest.
  std::uint64_t order = 0;
};

/// One file's bytes, mapped read-only by MapWholeFile. The mapping never
/// moves: moving a FileBytes keeps every view into it valid, and it is
/// unmapped when the FileBytes that owns it is destroyed. A zero-length
/// file maps nothing.
class FileBytes {
 public:
  FileBytes() = default;
  FileBytes(FileBytes&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  FileBytes& operator=(FileBytes&& other) noexcept {
    if (this != &other) {
      Unmap();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;
  ~FileBytes() { Unmap(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::string_view view() const noexcept {
    return {data_, size_};
  }

 private:
  friend bool MapWholeFile(int fd, FileBytes* out);
  void Unmap() noexcept;

  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One recovered item: its newest state after replay, viewing the bytes of
/// the snapshot or log record it came from (ShardRestoreState::files).
struct RestoredItem {
  KeyId id = 0;  ///< HashStringKey(key), computed once by the replay
  std::string_view key;
  std::string_view value;
  std::uint32_t flags = 0;
  std::int64_t expire_unix_ns = 0;
  std::int64_t stored_unix_ns = 0;
  std::uint64_t cas = 0;
  /// Global LRU position, as SnapItem::order.
  std::uint64_t order = 0;
};

/// One ghost-list entry ((class,band) implied by position).
struct GhostEntry {
  KeyId key = 0;
  MicroSecs penalty = 0;
};

/// Everything CapturePersistMeta grabs under one shard lock hold: the
/// engine's learned PAMA state plus the key list whose entries the
/// snapshot writer serializes afterwards in bounded batches.
struct ShardCaptureMeta {
  std::uint64_t cas_counter = 0;
  std::int64_t flush_at_unix_ns = 0;
  std::uint64_t flush_seq = 0;
  std::uint32_t num_classes = 0;
  std::uint32_t num_bands = 0;
  /// Slabs granted per (class,band), row-major class-then-band.
  std::vector<std::uint64_t> slab_counts;
  /// Ghost entries per (class,band), oldest first.
  std::vector<std::vector<GhostEntry>> ghosts;
  /// Live keys at capture, coldest first (per-stack bottom-to-top).
  std::vector<KeyId> keys;
};

/// The reconciled per-shard state recovery hands back to the service.
struct ShardRestoreState {
  bool have_snapshot = false;
  std::uint32_t num_classes = 0;
  std::uint32_t num_bands = 0;
  std::vector<std::uint64_t> slab_counts;
  std::vector<std::vector<GhostEntry>> ghosts;
  /// The shard's snapshot and log files, each mapped once. `items` view
  /// into them; RestoreShard releases both once it has seated the items.
  std::vector<FileBytes> files;
  /// Sorted by order ascending (coldest first).
  std::vector<RestoredItem> items;
  /// Keys replay found deleted or dead on boot, each with its last cas
  /// (the maximum for a delete): no older flash copy of them may come back.
  std::vector<std::pair<KeyId, std::uint64_t>> dropped;
  std::uint64_t cas_counter = 0;
  std::int64_t flush_at_unix_ns = 0;
  std::uint64_t flush_seq = 0;
  /// First WAL sequence number the new process may assign.
  std::uint64_t next_seq = 1;
  /// First WAL generation the new process may create.
  std::uint64_t next_gen = 1;
};

/// The service's outbound persistence hooks. All On* calls are made
/// under the owning shard's lock, in commit order; Commit is called
/// after the lock is released, before the client sees the reply — an
/// `always` sink makes the write durable there.
class MutationSink {
 public:
  virtual ~MutationSink() = default;

  virtual void OnStore(std::size_t shard, const WalStore& rec) = 0;
  virtual void OnDelete(std::size_t shard, std::string_view key) = 0;
  virtual void OnTouch(std::size_t shard, std::string_view key,
                       std::int64_t expire_unix_ns,
                       std::int64_t stored_unix_ns) = 0;
  virtual void OnFlush(std::size_t shard, std::int64_t cutover_unix_ns) = 0;
  /// Pre-reply durability point for everything appended to `shard` since
  /// the last Commit. Must be cheap when nothing is pending.
  virtual void Commit(std::size_t shard) = 0;

  /// `bgsave`: kick an asynchronous snapshot. False when persistence is
  /// disabled (never configured, or degraded after an I/O error).
  virtual bool TriggerSnapshot() = 0;
  /// Appends `STAT name value\r\n` lines to the stats reply.
  virtual void AppendStats(std::vector<char>& out) const = 0;
};

}  // namespace pamakv::persist
