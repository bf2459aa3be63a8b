// FlashTier: the penalty-aware second tier (ROADMAP item 4).
//
// Items evicted from DRAM demote into an append-only log of fixed-size
// segments — `shard<I>-seg<N>.flog` under --flash-dir, each record one
// persist/ CRC frame — and a per-shard in-memory index maps KeyId to the
// live record so DRAM misses can consult flash without touching disk.
// The tier owns only mechanics; every *policy* decision stays with the
// caller (CacheService), which holds the matching shard lock around every
// index/segment call:
//
//  * Admission: the service demotes an eviction only when the policy's
//    IncomingSlabValue(class, band) clears --flash-admit-min-value — the
//    same incoming-value math the DRAM migration rule uses, so only
//    (class, band) pairs whose ghost lists say the bytes earn their keep
//    reach flash (high-penalty bands first, by construction).
//  * GC: when a shard exceeds its share of --flash-cap-mb, the sealed
//    segment with the least live value (Σ value_of(class, band) over its
//    live records) is the victim — the per-(class,band) slab-value
//    comparison again, à la Memshare's log arbitration. Live records that
//    still clear admission rewrite forward into the open segment, most
//    valuable first, while the shard stays within its cap; the rest drop
//    with a tombstone and ghost-route through on_drop so the demand stays
//    visible to the DRAM policy. The shard ends at or under its cap.
//  * Reads: a flash hit first tries ReadCached under the shard lock. It
//    asks mincore(2) whether every page of the frame is in the page
//    cache, over a read-only mapping of the segment that nothing ever
//    touches (so it adds nothing to RSS); only then does it preadv2
//    (RWF_NOWAIT) the frame through the segment's own fd (GC cannot
//    unlink the segment while the lock is held) into a per-shard buffer
//    and check its CRC. A cold frame is not read at all: RWF_NOWAIT on a
//    missing page may start readahead itself, device I/O under the lock.
//    The lock is held for one frame's copy and CRC (about 1 ms for a
//    1 MiB value). A cold frame, or a read that fails in any way, is not
//    judged there: the service takes a ReadTicket (a dup'd fd, so GC
//    unlinking the segment mid-read is safe) and the IO thread preads +
//    CRC-verifies the frame, then posts the completion to the owner event
//    loop.
//
// Crash behavior: segments are never fsynced — this is a cache, not the
// durability layer. Recovery replays each segment in log order and drops
// any segment containing a single bad frame (torn tail after a crash, or
// bit rot) wholesale: corrupt segments are dropped, never served.
// Tombstone records keep replay honest: deletes and GC drops of live
// records append one, so an older superseded record can never resurrect.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pamakv/util/types.hpp"

namespace pamakv::flash {

struct FlashConfig {
  std::string dir;
  std::size_t shards = 1;
  /// Segment file size; the append that would overflow seals the segment.
  std::size_t segment_bytes = 4u * 1024 * 1024;
  /// Total tier budget across shards (each shard gets an equal share).
  std::size_t cap_bytes = 64u * 1024 * 1024;
  /// Admission floor: demotions (and GC rewrites) from a (class, band)
  /// whose incoming slab value is below this are dropped instead.
  double admit_min_value = 0.0;
  /// Spawn the background read thread (tests/bench may run synchronous).
  bool io_thread = true;
};

/// One decoded segment record, under the header the slot it indexes
/// carries (a tombstone fills only the key and cas). String views alias
/// the caller's buffer.
struct Record : ItemMeta {
  bool tombstone = false;
  std::string_view key;
  std::string_view value;
  MicroSecs penalty_us = 0;
  ClassId cls = 0;
  SubclassId band = 0;
};

/// Index entry for a flash-resident key: where the live record sits plus
/// everything the service needs to answer metadata questions (touch, cas
/// compare, expiry, admission value) without a disk read. The header is
/// the one a DRAM record carries and the record persists.
struct Slot : ItemMeta {
  std::uint64_t seg = 0;
  std::uint64_t offset = 0;     ///< frame start within the segment file
  std::uint32_t frame_len = 0;  ///< whole frame: len + payload + crc
  std::uint32_t value_size = 0;
  MicroSecs penalty = 0;
  ClassId cls = 0;
  SubclassId band = 0;
};

struct ShardStats {
  std::uint64_t demotes = 0;          ///< records appended by AppendItem
  std::uint64_t append_failures = 0;  ///< io error / record too large
  std::uint64_t reads = 0;            ///< served by ReadCached, tickets
                                      ///< submitted, or ReadNow
  std::uint64_t cached_reads = 0;     ///< served inline by ReadCached
  std::uint64_t read_failures = 0;    ///< io error or CRC mismatch
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_rewrites = 0;      ///< live records carried forward
  std::uint64_t gc_drops = 0;         ///< live records dropped (ghosted)
  std::uint64_t segments_created = 0;
  std::uint64_t segments_deleted = 0;
  std::uint64_t recovered_items = 0;
  std::uint64_t corrupt_segments_dropped = 0;

  ShardStats& operator+=(const ShardStats& o) noexcept {
    demotes += o.demotes;
    append_failures += o.append_failures;
    reads += o.reads;
    cached_reads += o.cached_reads;
    read_failures += o.read_failures;
    gc_runs += o.gc_runs;
    gc_rewrites += o.gc_rewrites;
    gc_drops += o.gc_drops;
    segments_created += o.segments_created;
    segments_deleted += o.segments_deleted;
    recovered_items += o.recovered_items;
    corrupt_segments_dropped += o.corrupt_segments_dropped;
    return *this;
  }
};

/// Handle for one asynchronous flash read. Carries a dup'd fd so the
/// segment may be GC-unlinked while the read is in flight.
struct ReadTicket {
  int fd = -1;
  std::uint64_t offset = 0;
  std::uint32_t frame_len = 0;
};

class FlashTier {
 public:
  explicit FlashTier(const FlashConfig& config);
  ~FlashTier();

  FlashTier(const FlashTier&) = delete;
  FlashTier& operator=(const FlashTier&) = delete;

  // ---- index (caller holds the matching shard lock) ----

  /// The live slot for `id`, or nullptr. The pointer stays valid until
  /// the next mutating call on this shard.
  [[nodiscard]] const Slot* Find(std::size_t shard, KeyId id) const;
  [[nodiscard]] Slot* FindMutable(std::size_t shard, KeyId id);

  /// Forgets the slot (promotion back to DRAM: the DRAM copy is newer,
  /// so replay-order cas comparison makes a tombstone unnecessary).
  void Erase(std::size_t shard, KeyId id);

  /// Forgets the slot and appends a tombstone so recovery replay cannot
  /// resurrect it (delete / flush-covered / stale-dropped keys).
  void EraseWithTombstone(std::size_t shard, KeyId id, std::string_view key);

  // ---- demotion ----

  /// The item to append: its header becomes the record's and the slot's.
  struct DemoteMeta : ItemMeta {
    std::string_view key;
    std::string_view value;
    MicroSecs penalty = 0;
    ClassId cls = 0;
    SubclassId band = 0;
  };

  /// Appends one item record and indexes it. False (and nothing indexed)
  /// on io failure or a record larger than a segment; the caller
  /// ghost-routes the loss. Counts demotes_by_band. May exceed the shard
  /// cap transiently — call MaybeGc afterwards.
  bool AppendItem(std::size_t shard, KeyId id, const DemoteMeta& meta);

  /// Runs value-based segment GC until the shard is back at or under its
  /// share of cap_bytes (or nothing is left to collect). `value_of` is the
  /// policy's incoming-value query; `on_drop` (may be empty) fires for
  /// every live record dropped (read failure, expiry, value below the
  /// admission floor, no room under the cap) so the caller can
  /// ghost-route it.
  using ValueFn = std::function<double(ClassId, SubclassId)>;
  using DropFn = std::function<void(KeyId, const Slot&)>;
  void MaybeGc(std::size_t shard, std::int64_t now_ns, const ValueFn& value_of,
               const DropFn& on_drop);

  // ---- reads ----

  /// Ticket for the slot's current record. fd < 0 if dup failed.
  [[nodiscard]] ReadTicket MakeTicket(std::size_t shard, const Slot& slot);

  /// Completion: ok + the CRC-verified payload (decode with
  /// DecodeRecord), or ok=false on io error / CRC mismatch.
  using ReadCallback = std::function<void(bool ok, std::string payload)>;
  /// Runs `fn` on the completion executor (the owner event loop).
  using Poster = std::function<void(std::function<void()>)>;

  /// Queues the read on the IO thread; the callback is wrapped by
  /// `poster` (invoked directly when poster is null). Takes ownership of
  /// the ticket fd. Reads submitted before StartIo or after StopIo are
  /// completed synchronously on the caller thread.
  void SubmitRead(std::size_t shard, ReadTicket ticket, Poster poster,
                  ReadCallback cb);

  /// Synchronous read (tests, bench, GC).
  [[nodiscard]] bool ReadNow(std::size_t shard, const ReadTicket& ticket,
                             std::string* payload);

  /// Page-cache-only read of the slot's frame, under the shard lock: true
  /// with *payload viewing the CRC-verified record (valid until the next
  /// ReadCached on this shard), counted in reads and cached_reads. False
  /// for any outcome that is not a whole, intact frame already in memory
  /// — the caller then reads through a ticket; nothing is counted. A
  /// frame with a page outside the page cache is not read at all, so the
  /// call never starts device I/O.
  [[nodiscard]] bool ReadCached(std::size_t shard, const Slot& slot,
                                std::string_view* payload);

  void StartIo();
  void StopIo();

  // ---- recovery (before StartIo, caller holds the shard lock) ----

  /// Replays shard `shard`'s segment files in log order. Call it once per
  /// shard, before anything appends to the shard: until then the shard's
  /// first append opens segment 0 with O_TRUNC, over the one on disk. Each
  /// surviving item record's slot takes the record's header, and `admit`
  /// returns whether to keep it (false: expired / flush-covered / a newer
  /// copy exists — the record stays on disk as a dead frame).
  /// Corrupt segments, and the files of shards this tier does not have,
  /// are unlinked wholesale.
  using AdmitFn =
      std::function<bool(KeyId id, const Record& rec, Slot* slot)>;
  void Recover(std::size_t shard, const AdmitFn& admit);
  /// Whether Recover has run for `shard`.
  [[nodiscard]] bool recovered(std::size_t shard) const {
    return shards_[shard].recovered;
  }

  // ---- introspection (caller holds the shard lock) ----

  [[nodiscard]] const ShardStats& shard_stats(std::size_t shard) const {
    return shards_[shard].stats;
  }
  [[nodiscard]] std::size_t ItemCount(std::size_t shard) const {
    return shards_[shard].index.size();
  }
  [[nodiscard]] std::uint64_t TotalBytes(std::size_t shard) const {
    return shards_[shard].total_bytes;
  }
  [[nodiscard]] std::uint64_t LiveBytes(std::size_t shard) const;
  [[nodiscard]] std::size_t SegmentCount(std::size_t shard) const {
    return shards_[shard].segments.size();
  }
  [[nodiscard]] std::uint64_t DemotesForBand(std::size_t shard,
                                             SubclassId band) const {
    const auto& v = shards_[shard].demotes_by_band;
    return band < v.size() ? v[band] : 0;
  }
  [[nodiscard]] std::uint32_t MaxBandSeen(std::size_t shard) const {
    return static_cast<std::uint32_t>(shards_[shard].demotes_by_band.size());
  }

  [[nodiscard]] double admit_min_value() const noexcept {
    return config_.admit_min_value;
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::uint64_t shard_cap_bytes() const noexcept {
    return shard_cap_bytes_;
  }
  [[nodiscard]] const std::string& dir() const noexcept { return config_.dir; }

  // ---- record codec (recovery, tests, corruption corpus) ----

  static void EncodeItemRecord(std::vector<char>& payload, const Record& rec);
  static void EncodeTombRecord(std::vector<char>& payload, std::string_view key,
                               std::uint64_t cas);
  [[nodiscard]] static bool DecodeRecord(std::string_view payload, Record* out);

  [[nodiscard]] static std::string SegmentFileName(std::size_t shard,
                                                   std::uint64_t seg);
  /// Parses `shard<I>-seg<N>.flog`; false for anything else.
  [[nodiscard]] static bool ParseSegmentFileName(std::string_view name,
                                                 std::size_t* shard,
                                                 std::uint64_t* seg);

 private:
  struct Tomb {
    KeyId id = 0;
    std::string key;
  };
  struct Segment {
    std::uint64_t id = 0;
    int fd = -1;
    std::uint64_t bytes = 0;  ///< file append offset
    bool sealed = false;
    std::vector<Tomb> tombs;  ///< tombstone records living in this file
    /// Read-only mapping of the file, never touched: ReadCached asks
    /// mincore(2) over it whether a frame is resident. nullptr when the
    /// mapping failed (every read then goes to the IO thread).
    void* map = nullptr;
    std::size_t map_len = 0;
  };
  struct ShardState {
    // Ordered by id so recovery/GC iterate oldest first.
    std::vector<Segment> segments;
    std::unordered_map<KeyId, Slot> index;
    std::vector<std::uint64_t> demotes_by_band;
    ShardStats stats;
    std::uint64_t next_seg = 0;
    std::uint64_t total_bytes = 0;
    bool in_gc = false;
    bool recovered = false;
    std::vector<char> read_buf;  ///< ReadCached's frame (capacity reused)
    std::vector<unsigned char> resident;  ///< ReadCached's mincore pages
  };

  Segment* SegmentById(ShardState& st, std::uint64_t id);
  /// Maps `len` bytes of the segment's file for residency checks; the
  /// length covers the appends still to come.
  static void MapForResidency(Segment& seg, std::size_t len);
  /// The open segment with room for `frame_len` more bytes, creating or
  /// sealing as needed; nullptr when a segment cannot be opened.
  Segment* OpenForAppend(ShardState& st, std::size_t shard,
                         std::size_t frame_len);
  /// Appends pre-framed bytes via the flash.append seam; on failure the
  /// file is truncated back (or the segment sealed if even that fails).
  bool AppendRaw(ShardState& st, std::size_t shard, const std::vector<char>& frame,
                 std::uint64_t* out_seg, std::uint64_t* out_offset);
  bool AppendTomb(ShardState& st, std::size_t shard, KeyId id,
                  std::string_view key, std::uint64_t cas);
  void DropSegment(ShardState& st, std::vector<Segment>::iterator it);
  void GcVictim(ShardState& st, std::size_t shard, std::uint64_t victim_id,
                std::int64_t now_ns, const ValueFn& value_of,
                const DropFn& on_drop);

  struct PendingRead;
  void CompleteRead(PendingRead&& pending);
  void IoThreadMain();

  FlashConfig config_;
  std::uint64_t shard_cap_bytes_ = 0;
  std::vector<ShardState> shards_;

  struct PendingRead {
    std::size_t shard = 0;
    ReadTicket ticket;
    Poster poster;
    ReadCallback cb;
  };
  std::mutex io_mu_;
  std::condition_variable io_cv_;
  std::deque<PendingRead> io_queue_;
  std::thread io_thread_;
  bool io_running_ = false;
  bool io_stop_ = false;
};

}  // namespace pamakv::flash
