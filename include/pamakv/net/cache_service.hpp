// CacheService: the server-side bridge from wire requests to CacheEngines.
//
// Topology mirrors ParallelSimulator — N independent single-threaded
// engines, keys routed by ShardIndexFor over the string key's 64-bit hash —
// but adds what a real server needs on top of the simulator's
// metadata-only engines:
//
//  * a per-shard mutex (engines are single-threaded by design; the event
//    loop threads serialize per shard, different shards proceed in
//    parallel);
//  * actual payload bytes. The engine decides *whether* a key is cached;
//    the shard keeps one record per cached key — key, value, flags, CAS
//    stamp and times — at the engine's item handle. The exact key string
//    verifies every lookup: a 64-bit id collision is detected and
//    resolved as a miss rather than served as a wrong value.
//
// The engine's hash index is the only map a cached key lives in. A record
// is recycled with its handle, reusing its buffers, so memory follows the
// capacity rather than the keys ever seen, and a warm shard stores without
// allocating. An evicted key lives on only as the engine's ghost — key and
// penalty, as in the paper — which routes its next GET miss to the ghost
// list of the class/band it left, exactly what value-gated policies
// (PAMA) need to earn the key space back.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/cache/expiry.hpp"
#include "pamakv/cache/shard_routing.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/persist/records.hpp"
#include "pamakv/policy/pama.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/metrics.hpp"

namespace pamakv::net {

class Batch;
struct BatchOp;
enum class Verb : std::uint8_t;

struct CacheServiceConfig {
  std::size_t shards = 4;
  Bytes capacity_bytes = 256ULL * 1024 * 1024;
  /// Penalty charged to a GET miss for a key the server has never seen
  /// (known keys reuse their stored penalty).
  MicroSecs default_penalty_us = 1'000;
  /// Clock expiry deadlines are computed and checked against. nullptr =>
  /// the process SteadyClock; tests inject a FakeClock and replay exact
  /// boundaries.
  util::Clock* clock = nullptr;
  /// Unix time (seconds) corresponding to the clock's *current* reading,
  /// used to convert absolute exptimes (> 30 days) to monotonic
  /// deadlines. 0 => time(nullptr) at construction; tests pin it.
  std::int64_t unix_now_s = 0;
};

/// Storage-family verbs, in CacheService terms (protocol Verb maps onto
/// this; the service has no dependency on the wire layer's enum).
enum class StoreVerb : std::uint8_t {
  kSet,      ///< unconditional
  kAdd,      ///< only if absent
  kReplace,  ///< only if present
  kAppend,   ///< concatenate after; keeps stored flags + exptime
  kPrepend,  ///< concatenate before; keeps stored flags + exptime
  kCas,      ///< only if the CAS unique matches
};

enum class StoreStatus : std::uint8_t {
  kStored,
  kNotStored,  ///< verb precondition failed, or the engine refused space
  kExists,     ///< cas: the item changed since the client's gets
  kNotFound,   ///< cas: the key is not cached
};

struct ArithmeticResult {
  enum class Status : std::uint8_t {
    kOk,
    kNotFound,
    kNonNumeric,  ///< stored value is not a plain decimal uint64
  };
  Status status = Status::kNotFound;
  std::uint64_t value = 0;  ///< post-operation value when kOk
};

// ---- shared wire-reply formatting ----

/// "STORED\r\n" / "NOT_STORED\r\n" / "EXISTS\r\n" / "NOT_FOUND\r\n".
[[nodiscard]] std::string_view StoreReplyText(StoreStatus status) noexcept;
/// incr/decr reply: "<value>\r\n", "NOT_FOUND\r\n", or the non-numeric
/// CLIENT_ERROR line.
void AppendArithmeticReply(std::vector<char>& out, ArithmeticResult result);
/// Protocol verb → service storage verb (storage family only).
[[nodiscard]] StoreVerb ToStoreVerb(Verb v) noexcept;

inline constexpr std::string_view kTouchedReply = "TOUCHED\r\n";
inline constexpr std::string_view kNotFoundReply = "NOT_FOUND\r\n";
inline constexpr std::string_view kDeletedReply = "DELETED\r\n";
inline constexpr std::string_view kStoreOomReply =
    "SERVER_ERROR out of memory storing object\r\n";

/// Per-shard command counters beyond what CacheStats tracks; summed for
/// `stats` and the metrics registry under their memcached names.
struct ServiceCounters {
  std::uint64_t cas_hits = 0;
  std::uint64_t cas_misses = 0;  ///< cas on an uncached key (NOT_FOUND)
  std::uint64_t cas_badval = 0;  ///< cas with a stale unique (EXISTS)
  std::uint64_t incr_hits = 0;
  std::uint64_t incr_misses = 0;
  std::uint64_t decr_hits = 0;
  std::uint64_t decr_misses = 0;
  std::uint64_t touch_hits = 0;  ///< touch/gat/gats deadline updates
  std::uint64_t touch_misses = 0;
  // Flash victim tier (all zero with the tier off).
  std::uint64_t flash_hits = 0;           ///< deferred reads that served
  std::uint64_t flash_promotes = 0;       ///< flash→DRAM via the set path
  std::uint64_t flash_direct_serves = 0;  ///< served with no DRAM seat
  std::uint64_t flash_read_failures = 0;  ///< async read io/CRC failures
  std::uint64_t flash_penalty_saved_us = 0;  ///< Σ penalty of flash serves

  ServiceCounters& operator+=(const ServiceCounters& o) noexcept {
    cas_hits += o.cas_hits;
    cas_misses += o.cas_misses;
    cas_badval += o.cas_badval;
    incr_hits += o.incr_hits;
    incr_misses += o.incr_misses;
    decr_hits += o.decr_hits;
    decr_misses += o.decr_misses;
    touch_hits += o.touch_hits;
    touch_misses += o.touch_misses;
    flash_hits += o.flash_hits;
    flash_promotes += o.flash_promotes;
    flash_direct_serves += o.flash_direct_serves;
    flash_read_failures += o.flash_read_failures;
    flash_penalty_saved_us += o.flash_penalty_saved_us;
    return *this;
  }
};

/// Everything `stats` and the service's pamakv_* series report, summed
/// over shards by CacheService::Totals() in one pass that locks each
/// shard once. The vectors are filled only for the series (Totals(true)),
/// so the `stats` path gathers without allocating.
struct ServiceTotals {
  CacheStats stats;
  ServiceCounters counters;
  std::uint64_t items = 0;        ///< live items (memcached curr_items)
  std::uint64_t collisions = 0;   ///< hash collisions resolved
  /// Expiry-heap entries, at most one per item handle the engines issued.
  std::uint64_t wheel_nodes = 0;
  std::uint64_t free_slabs = 0;
  std::uint64_t total_slabs = 0;
  /// Per (class, band), indexed class * bands + band, where bands is the
  /// engines' num_subclasses().
  std::vector<std::uint64_t> slabs;
  std::vector<std::uint64_t> subclass_items;
  std::vector<std::uint64_t> ghost_hits;  ///< receiving-segment ghost hits
  /// PAMA value flow, decision counts and window rotations per shard, and
  /// band-to-band slab migrations (row-major by source band); all empty
  /// unless the shards run PAMA.
  std::vector<PamaPolicy::ValueFlow> pama_flow;
  std::vector<PamaPolicy::Decisions> pama_decisions;
  std::vector<std::uint64_t> pama_rotations;
  std::vector<std::uint64_t> migration_flow;
  /// The flash tier's totals, zero with no tier attached;
  /// `flash_demotes` (per band) is filled only with a tier.
  flash::ShardStats flash;
  std::uint64_t flash_items = 0;
  std::uint64_t flash_bytes = 0;       ///< segment bytes, live + dead
  std::uint64_t flash_live_bytes = 0;
  std::uint64_t flash_segments = 0;
  std::uint64_t demote_drops = 0;      ///< demotions lost to allocation
  std::vector<std::uint64_t> flash_demotes;
};

class CacheService {
 public:
  using EngineFactory = std::function<std::unique_ptr<CacheEngine>(Bytes)>;

  /// How a flash-aware get ended: kDone means the reply is complete;
  /// kDeferred means the key is flash-resident and `pending` carries a
  /// scheduled read — read it (SubmitFlashRead) and finish the get with
  /// CompleteFlashGet once the payload arrives.
  enum class FlashOutcome : std::uint8_t { kDone, kDeferred };

  /// One scheduled flash read. The engine was already charged the miss
  /// (demand visible at schedule time); `cas` pins the slot version so
  /// the completion can detect delete/overwrite races that happened while
  /// the read was in flight.
  struct FlashPending {
    bool armed = false;
    std::size_t shard = 0;
    KeyId id = 0;
    std::uint64_t cas = 0;
    flash::ReadTicket ticket;
  };

  /// Builds `shards` engines, each given capacity/shards via the factory
  /// and a clock step of `shards`, so every shard's windows count server
  /// requests.
  CacheService(const CacheServiceConfig& config, const EngineFactory& factory);

  /// GET/GETS one key: on a verified hit appends a "VALUE ..." block to
  /// `out` (under the shard lock, so value and stats stay consistent) and
  /// returns true; on a miss appends nothing, charges the engine the
  /// key's penalty, and returns false. An item whose deadline (or flush
  /// epoch) has passed is expired on the spot and handled as a miss —
  /// routed to the ghost list of the class/subclass it occupied, so the
  /// key's demand stays visible to the allocation policy.
  bool Get(std::string_view key, std::vector<char>& out, bool with_cas);

  /// The six storage verbs. `flags` is the miss penalty in µs (0 => the
  /// configured default); `exptime_s` uses memcached semantics (0 never,
  /// negative already-expired, <= 30 days relative, else absolute unix);
  /// `cas_unique` is consulted only by kCas. Every successful store bumps
  /// the entry's CAS stamp. Append/prepend keep the stored flags and
  /// deadline, ignoring the arguments, as memcached does.
  StoreStatus Store(StoreVerb verb, std::string_view key, std::uint32_t flags,
                    std::int64_t exptime_s, std::string_view value,
                    std::uint64_t cas_unique = 0);

  /// SET, kept as the short form of Store(kSet, ...) with no TTL.
  bool Set(std::string_view key, std::uint32_t flags, std::string_view value);

  /// incr/decr: the stored value must be a plain decimal uint64 (at most
  /// 20 digits, no sign, no padding). incr saturates at 2^64-1; decr
  /// floors at 0. The result is re-stored as plain decimal (the value may
  /// shrink, unlike memcached's blank-padding) and bumps CAS.
  ArithmeticResult IncrDecr(std::string_view key, std::uint64_t delta,
                            bool increment);

  /// touch: moves the deadline; promotes the item. False when not cached.
  bool Touch(std::string_view key, std::int64_t exptime_s);

  /// DELETE. True if the key was cached.
  bool Del(std::string_view key);

  /// flush_all [delay]: marks every item stored before now (+ delay
  /// seconds) invalid once that moment arrives. Purely an epoch flip —
  /// nothing is walked or freed here; flushed items fall out lazily on
  /// access (and under eviction pressure), exactly like expired ones. A
  /// later flush_all supersedes an earlier pending one.
  void FlushAll(std::int64_t delay_s = 0);

  /// One background-reap sweep: per shard, pops up to max_per_shard due
  /// expiry-heap entries (under that shard's lock only) and expires each
  /// item whose handle still holds that deadline. Returns items reaped.
  /// Bounded work per call — the server's reap timer calls this, and the
  /// data path never waits behind more than one bounded sweep.
  std::size_t ReapExpired(std::size_t max_per_shard);

  /// Current reading of the configured clock (monotonic nanoseconds).
  [[nodiscard]] std::int64_t NowNs() const { return clock_->NowNanos(); }

  /// Monotonic-ns deadline for a memcached exptime relative to `now_ns`:
  /// 0 => 0 (never), negative => already expired, <= 30 days => relative
  /// seconds, else absolute unix seconds against the configured unix
  /// anchor. Exposed for tests and the load generator.
  [[nodiscard]] std::int64_t DeadlineFor(std::int64_t exptime_s,
                                         std::int64_t now_ns) const noexcept;

  /// Appends the full "STAT name value\r\n"* + "END\r\n" payload for the
  /// `stats` command: the Totals() counters and gauges plus, when
  /// registered, the extra appender's lines (the Server wires its
  /// connection/lifecycle counters in here). With detail=true (the `stats
  /// detail` command) and a registry wired via RegisterMetrics, every
  /// metrics-registry series is appended as a STAT line, rendered from
  /// the same snapshot type the Prometheus endpoint serves.
  void AppendStats(std::vector<char>& out, bool detail = false) const;

  /// Registers the service's collector in `registry`: at snapshot time it
  /// gathers Totals() (one lock of each shard, so the request hot path
  /// never touches a metric it does not already own) and appends
  ///   pamakv_slabs{class,band}            per-subclass slab count
  ///   pamakv_subclass_items{class,band}   items per subclass
  ///   pamakv_ghost_hits{class,band}       ghost receiving-segment hits
  ///   pamakv_free_slabs / pamakv_total_slabs / pamakv_curr_items
  ///   pamakv_<stat> for every CacheStats and ServiceCounters counter
  ///   pamakv_expiry_wheel_nodes
  /// and, with a flash tier attached, pamakv_flash_demotes{band} and the
  /// tier's occupancy and read gauges; when the shards run PamaPolicy,
  /// the value-flow telemetry:
  ///   pamakv_pama_decisions_total{shard}, pamakv_pama_outgoing_value_sum,
  ///   pamakv_pama_incoming_value_sum, pamakv_pama_migration_benefit_sum,
  ///   pamakv_pama_last_{outgoing,incoming}_value{shard} and the
  ///   band-to-band matrix pamakv_pama_migration_flow_total{from,to}.
  /// Registering again replaces the collector. Keeps a pointer to
  /// `registry` for `stats detail`.
  void RegisterMetrics(util::MetricsRegistry& registry);

  /// Registers (or clears, with nullptr) an extra "STAT ..." appender run
  /// inside AppendStats before the END line. Thread-safe.
  void SetExtraStats(std::function<void(std::vector<char>&)> appender);

  /// The service's counters and gauges summed over shards, each shard
  /// locked once; with `series`, also the per-(class, band), per-band and
  /// per-shard vectors.
  [[nodiscard]] ServiceTotals Totals(bool series = false) const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Shard index a key id routes to (ShardIndexFor); the executor uses
  /// this to group batched ops before taking any lock.
  [[nodiscard]] std::size_t ShardIndexForId(KeyId id) const noexcept {
    return ShardIndexFor(id, shards_.size());
  }

  /// Executes a shard group: takes shard `index`'s lock once, reads the
  /// clock once, runs the listed ops in request order (each writes its
  /// wire reply into its own buffer), and commits the WAL once. `idx`
  /// indexes into `batch`; every listed op must already be routed to this
  /// shard. A flash-resident op whose record is in the page cache is read
  /// and completed inline, under the same lock hold. Returns how many ops
  /// finished. Fewer than `n` means op `idx[result]` needs a flash record
  /// from the device: `*park` is armed with its read (ticket included),
  /// and the caller finishes the op with CompleteFlashOp before running
  /// the rest of the group.
  std::size_t ExecuteOps(std::size_t index, Batch& batch,
                         const std::uint32_t* idx, std::size_t n,
                         FlashPending* park);

  /// Test access: shard `index`'s engine, for snapshot comparisons. The
  /// caller must guarantee the service is quiescent.
  [[nodiscard]] const CacheEngine& shard_engine(std::size_t index) const {
    return *shards_[index]->engine;
  }

  // ---- persistence ----

  /// Registers (or clears, with nullptr) the mutation sink. Every
  /// acknowledged mutation is mirrored into it under the shard lock;
  /// Commit(shard) runs after the lock is released, before the reply.
  /// Wire it before serving traffic — there is no synchronization with
  /// in-flight requests.
  void SetPersistence(persist::MutationSink* sink) { sink_ = sink; }

  /// `bgsave`: forwards to the sink. False when persistence is off.
  bool TriggerSnapshot() { return sink_ != nullptr && sink_->TriggerSnapshot(); }

  /// Captures shard `index`'s PAMA metadata — per-(class,band) slab
  /// layout, ghost lists, counters — plus the live key list ordered
  /// coldest-first, under one shard-lock hold. `under_lock` (may be
  /// empty) runs while the lock is held; the persister rolls the shard's
  /// WAL generation there so the snapshot's covered-sequence boundary is
  /// exact.
  [[nodiscard]] persist::ShardCaptureMeta CapturePersistMeta(
      std::size_t index, const std::function<void()>& under_lock);

  /// Serializes up to `max` of `keys[start...]` into `out` (skipping
  /// keys that left or expired since capture) under the shard lock.
  /// Returns how many keys were consumed; 0 means the list is exhausted.
  std::size_t CaptureItems(std::size_t index, const std::vector<KeyId>& keys,
                           std::size_t start, std::size_t max,
                           std::vector<persist::SnapItem>& out);

  /// Restores shard `index` completely, under one lock hold: slab layout
  /// + ghosts first (when the engine geometry matches the snapshot's),
  /// then items coldest-first through the engine's restore path, falling
  /// back to a normal Set when the saved layout cannot seat one. It then
  /// releases the state's file mappings and, with a tier attached,
  /// replays the shard's flash segments (ReplayFlashLocked) against what
  /// it seated and against the states it did not seat, died on boot or
  /// were deleted. Call at startup, after AttachFlash and before the
  /// server listens.
  void RestoreShard(std::size_t index, persist::ShardRestoreState st);

  /// Re-captures the (unix, mono) anchor from the clock. The persister
  /// calls this after recovery replay so absolute-exptime conversion and
  /// persisted timestamps are anchored at "now", not at construction
  /// (recovery can spend real time replaying a large WAL).
  void ReanchorNow();

  // ---- flash victim tier ----

  /// Wires the flash tier, which must be sharded exactly like the
  /// service. Attach it before persistence recovery, so each RestoreShard
  /// replays its shard's segments; RecoverFlash replays the rest. A shard
  /// demotes evictions only once its segments are replayed. Wire it
  /// before serving traffic; there is no synchronization with in-flight
  /// requests. The flash lines of `stats` and the flash series appear
  /// once a tier is attached.
  void AttachFlash(flash::FlashTier* tier);

  [[nodiscard]] bool flash_enabled() const noexcept { return flash_ != nullptr; }
  [[nodiscard]] flash::FlashTier* flash() noexcept { return flash_; }

  /// Replays the segments of every shard no RestoreShard call replayed,
  /// against DRAM alone: a start-up without persistence, or a tier
  /// attached after it. Call before StartIo and before the server
  /// listens.
  void RecoverFlash();

  /// Hands the pending read to the tier's IO thread (completed on the
  /// caller when the tier runs none). Call outside the shard lock; takes
  /// ownership of the ticket fd.
  void SubmitFlashRead(FlashPending& pending, flash::FlashTier::Poster poster,
                       flash::FlashTier::ReadCallback cb);
  /// Reads the pending record synchronously on the caller; takes
  /// ownership of the ticket fd.
  bool ReadFlashNow(FlashPending& pending, std::string* payload);

  /// Finishes an op that ExecuteOps parked, once its read landed. Re-takes
  /// the shard lock, revalidates the slot against races (DRAM re-store,
  /// delete, flush_all, re-demotion — detected via the pinned cas),
  /// promotes the record into DRAM through the normal set path, then
  /// re-runs the op, so PAMA's accounting stays exact: miss at schedule +
  /// set at promote + hit at the re-run. When the engine cannot seat the
  /// item, a get is served and an incr/decr applied directly against the
  /// tier, and an append/prepend answers NOT_STORED.
  void CompleteFlashOp(Batch& batch, BatchOp& op, const FlashPending& pending,
                       bool read_ok, std::string_view payload);

  // Single-call forms for callers that drive flash reads themselves (the
  // flash bench and the per-layer trace), over the same core.
  /// Get/GAT that defers instead of missing when the key lives on flash.
  FlashOutcome GetFlashAware(std::string_view key, std::vector<char>& out,
                             bool with_cas, bool touch, std::int64_t exptime_s,
                             bool* hit, FlashPending* pending);
  /// Store that never defers: every verb resolves from slot metadata, and
  /// an append/prepend on a flash-resident key answers NOT_STORED (only
  /// ExecuteOps parks those for the read).
  FlashOutcome StoreFlashAware(StoreVerb verb, std::string_view key,
                               std::uint32_t flags, std::int64_t exptime_s,
                               std::string_view value, std::uint64_t cas_unique,
                               StoreStatus* status, FlashPending* pending);
  /// CompleteFlashOp for a deferred GetFlashAware; returns the hit.
  bool CompleteFlashGet(const FlashPending& pending, bool read_ok,
                        std::string_view payload, std::string_view key,
                        std::vector<char>& out, bool with_cas, bool touch,
                        std::int64_t exptime_s);

  // Monotonic <-> unix-ns conversion against the service's (unix, mono)
  // anchor. The *Deadline* pair preserves the expiry sentinels (0 never,
  // negative already-expired); the *Time* pair is plain affine (a
  // FakeClock legitimately reads 0).
  [[nodiscard]] std::int64_t UnixNsOfTime(std::int64_t mono_ns) const noexcept;
  [[nodiscard]] std::int64_t MonoTimeOf(std::int64_t unix_ns) const noexcept;
  [[nodiscard]] std::int64_t UnixNsOfDeadline(
      std::int64_t mono_deadline_ns) const noexcept;
  [[nodiscard]] std::int64_t MonoDeadlineOf(
      std::int64_t unix_deadline_ns) const noexcept;

 private:
  /// One cached key's bytes, under the header a flash slot shares.
  struct Record : ItemMeta {
    std::string key;    ///< exact key string (collision verification)
    std::string value;  ///< payload bytes

    /// Becomes a copy of `from` without allocating: a string keeps its
    /// buffer if that fits the bytes, else the two trade buffers.
    void TakeFrom(Record& from) noexcept;
  };

  /// An eviction the engine listener queued for flash demotion: the
  /// victim's record and engine item, drained by DrainDemotions after the
  /// engine call that produced it returns.
  struct PendingDemote {
    Record record;
    Item item;
  };

  struct Shard {
    mutable std::mutex mu;
    std::size_t index = 0;  ///< position in shards_ (sink calls carry it)
    std::unique_ptr<CacheEngine> engine;
    /// records[h] belongs to the key the engine holds at handle h; at a
    /// free handle, the record keeps its buffers for the next store.
    std::vector<Record> records;
    /// The store being staged: filled before the engine call, moved into
    /// records[handle] once the key is seated.
    Record scratch;
    /// The records' deadlines, one entry per handle, for the reaper.
    ExpiryHeap expiry;
    std::uint64_t cas_counter = 0;
    std::uint64_t collisions = 0;
    /// Pending/active flush_all cutover (monotonic ns); 0 = none ever.
    std::int64_t flush_at_ns = 0;
    /// Count of flush_all commands applied to this shard.
    std::uint64_t flush_seq = 0;
    ServiceCounters counters;
    /// Evictions queued by the engine listener (with a flash tier): the
    /// first `demotes_queued` await demotion; slots keep their buffers.
    std::vector<PendingDemote> demotes;
    std::size_t demotes_queued = 0;
    /// Demotions lost to listener allocation failure.
    std::uint64_t demote_drops = 0;
    /// Room in the records and the expiry heap for a handle the engine
    /// may issue and the one deadline a store files, made before anything
    /// mutates.
    void ReserveRoom() {
      const std::size_t handles = engine->handle_limit() + 1;
      if (records.size() < handles) records.resize(handles);
      expiry.Reserve(handles);
    }
    /// The record of the key the engine holds under `id`, or nullptr.
    [[nodiscard]] Record* RecordOf(KeyId id) {
      const ItemHandle h = engine->HandleOf(id);
      return h < records.size() ? &records[h] : nullptr;
    }
    /// The header of a new version of a value, stored at `now`: the next
    /// cas, in the current flush epoch.
    [[nodiscard]] ItemMeta NewVersion(std::uint32_t flags,
                                      std::int64_t deadline,
                                      std::int64_t now) {
      return {flags, ++cas_counter, deadline, now, flush_seq};
    }
  };

  [[nodiscard]] Shard& ShardFor(KeyId id) {
    return *shards_[ShardIndexFor(id, shards_.size())];
  }
  [[nodiscard]] MicroSecs PenaltyOf(std::uint32_t flags) const noexcept {
    return flags != 0 ? static_cast<MicroSecs>(flags) : default_penalty_us_;
  }
  /// The lapse rule of a record and a flash slot alike: true when the
  /// header's deadline or the shard's flush epoch has passed as of now_ns.
  [[nodiscard]] bool Lapsed(const Shard& shard, const ItemMeta& meta,
                            std::int64_t now_ns) const noexcept;
  /// touch and gat on either tier: the header takes the new deadline and
  /// a stored time of now; the hit is counted and logged. A DRAM record
  /// (`in_dram`) is also promoted and its deadline filed.
  void ApplyTouch(Shard& shard, KeyId id, std::string_view key, ItemMeta& meta,
                  bool in_dram, std::int64_t exptime_s, std::int64_t now);
  /// The record of the cached key (id, key), or nullptr. An id collision
  /// drops the squatter; a record whose time has passed is expired through
  /// the engine (ghost-routed, counted as expired, not evicted).
  Record* LiveUnexpired(Shard& shard, KeyId id, std::string_view key,
                        std::int64_t now_ns);
  /// Stages a store in shard.scratch: the key, the value (head, then
  /// tail) and the header.
  Record& StageRecord(Shard& shard, std::string_view key, const ItemMeta& meta,
                      std::string_view head, std::string_view tail = {});
  /// Seats shard.scratch under `id` through the engine's Set, files its
  /// deadline and returns the seated record. A refused store returns
  /// nullptr and leaves no older copy of the key cached; when the key
  /// `was_cached` before the store, it logs the drop as a delete. The
  /// caller drains demotions.
  Record* SeatScratch(Shard& shard, KeyId id, MicroSecs penalty,
                      bool was_cached = false);
  /// Files the deadline of the record at handle `h` in the expiry heap,
  /// moving the handle's entry if it has one, unless the deadline is 0.
  void ScheduleExpiry(Shard& shard, ItemHandle h);
  /// Logs a committed store to the mutation sink, if any.
  void LogStore(const Shard& shard, std::string_view key,
                std::string_view value, const ItemMeta& meta);
  /// Runs body(shard, now) under the shard lock with one clock read and,
  /// when `commit` says so, commits the shard's log once the lock is
  /// released, before any reply leaves.
  template <typename Body>
  auto Locked(Shard& shard, bool commit, Body&& body);
  /// Locked on the shard `key` routes to: body(shard, id, now).
  template <typename Body>
  auto OnKey(std::string_view key, bool commit, Body&& body);
  // Lock-held verb bodies: the batch path runs them with one lock
  // acquisition and one clock read per shard group; the single-call
  // public wrappers run them through OnKey. A non-null `flash_pending`
  // lets a flash-resident key arm a read (the caller finishes the verb
  // once it lands) instead of missing.
  bool GetLocked(Shard& shard, KeyId id, std::string_view key,
                 std::vector<char>& out, bool with_cas, bool touch,
                 std::int64_t exptime_s, std::int64_t now,
                 FlashPending* flash_pending = nullptr);
  StoreStatus StoreLocked(Shard& shard, KeyId id, StoreVerb verb,
                          std::string_view key, std::uint32_t flags,
                          std::int64_t exptime_s, std::string_view value,
                          std::uint64_t cas_unique, std::int64_t now,
                          FlashPending* flash_pending = nullptr);
  ArithmeticResult IncrDecrLocked(Shard& shard, KeyId id, std::string_view key,
                                  std::uint64_t delta, bool increment,
                                  std::int64_t now,
                                  FlashPending* flash_pending = nullptr);
  bool TouchLocked(Shard& shard, KeyId id, std::string_view key,
                   std::int64_t exptime_s, std::int64_t now);
  bool DelLocked(Shard& shard, KeyId id, std::string_view key,
                 std::int64_t now);
  /// Runs the listed ops in order under the (already held) shard lock;
  /// returns how many finished (see ExecuteOps).
  std::size_t ExecuteOpsLocked(Shard& shard, Batch& batch,
                               const std::uint32_t* idx, std::size_t n,
                               FlashPending* park, std::int64_t now);
  /// One op; its wire reply goes into op.out. Returns whether the verb
  /// found its item (hit, stored, applied). When `park` comes back armed
  /// the op is waiting for a flash read and wrote nothing. May throw
  /// bad_alloc (see FailOp).
  bool RunOpLocked(Shard& shard, BatchOp& op, std::int64_t now,
                   FlashPending* park);
  /// bad_alloc recovery for one op: a storage op answers SERVER_ERROR
  /// in-band (it staged its allocations before mutating, so the cache is
  /// intact) and the batch goes on; any other verb fails the batch and
  /// the connection closes.
  static void FailOp(Batch& batch, BatchOp& op);

  // ---- flash internals (all under the shard lock) ----

  /// The live flash slot for `id`, or nullptr. A slot whose deadline or
  /// flush epoch has lapsed is dropped on the spot (ghost-routed so the
  /// demand stays visible; recovery's admit check makes a tombstone
  /// unnecessary for lapsed records).
  flash::Slot* FlashSlotLive(Shard& shard, KeyId id, std::int64_t now);
  /// Pushes the slot's key into the ghost list of the (class, band) it
  /// was demoted from, when that pair still exists in this geometry.
  void GhostRoute(Shard& shard, KeyId id, const flash::Slot& slot);
  /// Fills *pending with a scheduled read of the slot's record (no fd
  /// yet: TakeFlashTicket dups one only if the read leaves the lock).
  void ArmFlashRead(Shard& shard, KeyId id, const flash::Slot& slot,
                    FlashPending* pending);
  /// Gives an armed read its ticket (a dup'd segment fd) for the IO thread.
  void TakeFlashTicket(Shard& shard, FlashPending* pending);
  /// An op ExecuteOps just parked: when its frame is in the page cache,
  /// reads it here under the lock, finishes the op in place
  /// (FinishParkedLocked) and returns true. Otherwise takes the ticket
  /// and returns false — the op parks.
  bool FinishCachedLocked(Shard& shard, Batch& batch, BatchOp& op,
                          FlashPending* park, std::int64_t now);
  /// Appends (key, value, header) to the shard's flash log, charged to
  /// `cls`/`band` at `penalty`. False when the tier could not append.
  bool AppendToFlash(Shard& shard, KeyId id, std::string_view key,
                     std::string_view value, const ItemMeta& meta,
                     MicroSecs penalty, ClassId cls, SubclassId band);
  /// Demotes every queued eviction (admission-gated by the policy's
  /// incoming slab value), then runs tier GC if the shard is over its
  /// cap. Call after any engine call that can evict.
  void DrainDemotions(Shard& shard, std::int64_t now);
  /// Replays the shard's flash segments, then lets its evictions demote.
  /// A record comes back unless it expired, is flush-covered, routes to
  /// another shard (the shard count changed), is not newer than the DRAM
  /// copy, or is older than its key's entry in `dead` (key, cas): a state
  /// the restore did not seat, that died on boot or was deleted.
  /// Survivors get monotonic deadlines against the current anchor.
  void ReplayFlashLocked(Shard& shard,
                         std::vector<std::pair<KeyId, std::uint64_t>> dead);

  /// How a completion resolved the flash-resident key.
  enum class PromoteOutcome : std::uint8_t {
    kUseDram,   ///< slot gone or DRAM copy newer — run the verb normally
    kPromoted,  ///< record seated in DRAM via the set path; slot erased
    kDirect,    ///< engine refused a seat; serve/mutate against the tier
  };
  /// Revalidates the pending read against the current shard state and, on
  /// success, promotes the decoded record (in *rec, viewing `payload`)
  /// into DRAM preserving cas/stored_at/flush_seq.
  PromoteOutcome PromoteFlashLocked(Shard& shard, KeyId id,
                                    std::string_view key,
                                    const FlashPending& pending, bool read_ok,
                                    std::string_view payload,
                                    flash::Record* rec, std::int64_t now);
  /// Finishes a parked op under the shard lock, for all three callers
  /// (inline read, CompleteFlashOp, CompleteFlashGet): promote, then re-run
  /// the op (or serve it from the tier), then drain demotions. A bad_alloc
  /// fails the op in `batch` (FailOp), or propagates when there is none.
  /// Returns RunOpLocked's found-the-item result.
  bool FinishParkedLocked(Shard& shard, Batch* batch, BatchOp& op,
                          const FlashPending& pending, bool read_ok,
                          std::string_view payload, std::int64_t now);
  /// kDirect: answers a parked op from the record in `rec` with the slot
  /// left on flash (no DRAM seat). Returns whether it found the item.
  bool ServeFromFlashLocked(Shard& shard, BatchOp& op,
                            const flash::Record& rec, std::int64_t now);

  std::vector<std::unique_ptr<Shard>> shards_;
  MicroSecs default_penalty_us_;
  util::Clock* clock_;  ///< never null (defaults to the SteadyClock)
  /// Anchors for absolute-exptime conversion: unix_base_s_ is the unix
  /// time that the clock read mono_base_ns_ (both captured at
  /// construction, or pinned via config for tests). unix_base_ns_ is the
  /// same anchor at nanosecond precision — persistence timestamps cross
  /// process restarts, where a whole-second anchor would skew every
  /// recovered store/flush/TTL moment by up to a second.
  std::int64_t unix_base_s_;
  std::int64_t unix_base_ns_;
  std::int64_t mono_base_ns_;
  util::MetricsRegistry* metrics_ = nullptr;  ///< set by RegisterMetrics
  persist::MutationSink* sink_ = nullptr;     ///< set by SetPersistence
  flash::FlashTier* flash_ = nullptr;         ///< set by AttachFlash

  mutable std::mutex extra_stats_mu_;
  std::function<void(std::vector<char>&)> extra_stats_;
};

}  // namespace pamakv::net
