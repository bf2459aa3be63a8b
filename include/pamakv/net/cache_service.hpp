// CacheService: the server-side bridge from wire requests to CacheEngines.
//
// Topology mirrors ShardedCache — N independent single-threaded engines,
// keys routed by ShardedCache::ShardIndexFor over the string key's 64-bit
// hash — but adds what a real server needs on top of the simulator's
// metadata-only engines:
//
//  * a per-shard mutex (engines are single-threaded by design; the event
//    loop threads serialize per shard, different shards proceed in
//    parallel);
//  * actual payload bytes. The engine decides *whether* a key is cached;
//    the shard's entry table holds the value, flags and CAS stamp, plus
//    the exact key string for collision verification: a 64-bit id
//    collision is detected and resolved as a miss rather than served as a
//    wrong value.
//
// Entries are never erased, only marked dead, so steady-state traffic over
// a stable key population does zero heap allocation: dead entries keep
// their string capacity and are overwritten in place on the next store,
// and they remember the key's last size/penalty so a GET miss is routed to
// the ghost list of the right class/subclass — exactly what value-gated
// policies (PAMA) need to earn the key space back. Table growth is
// bounded by the number of distinct keys ever seen.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/cache/expiry.hpp"
#include "pamakv/cache/sharded_cache.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/persist/records.hpp"
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
  /// Size used to route a never-seen key's miss to a ghost list.
  Bytes default_size = 64;
  /// Clock expiry deadlines are computed and checked against. nullptr =>
  /// the process SteadyClock; tests inject a FakeClock and replay exact
  /// boundaries.
  util::Clock* clock = nullptr;
  /// Unix time (seconds) corresponding to the clock's *current* reading,
  /// used to convert absolute exptimes (> 30 days) to monotonic
  /// deadlines. 0 => time(nullptr) at construction; tests pin it.
  std::int64_t unix_now_s = 0;
  /// Timer-wheel tick. One second (memcached's clock granularity) bounds
  /// background-reap latency to ~1s past the deadline; access-path expiry
  /// is exact regardless.
  std::int64_t expiry_tick_ns = 1'000'000'000;
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

  /// Builds `shards` engines, each given capacity/shards via the factory.
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

  /// One background-reap sweep: per shard, harvests up to max_per_shard
  /// due timer-wheel nodes (under that shard's lock only) and expires the
  /// ones still live with a passed deadline. Returns items reaped.
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
  /// `stats` command: CacheStats::Snapshot() totals plus service gauges
  /// and, when registered, the extra appender's lines (the Server wires
  /// its connection/lifecycle counters in here). With detail=true (the
  /// `stats detail` command) and a registry wired via RegisterMetrics,
  /// every metrics-registry series is appended as a STAT line, rendered
  /// from the same snapshot type the Prometheus endpoint serves.
  void AppendStats(std::vector<char>& out, bool detail = false) const;

  /// Wires the service's introspection into `registry` as callback
  /// gauges, evaluated under the shard locks at snapshot time so the
  /// request hot path never touches a metric it does not already own:
  ///   pamakv_slabs{class,band}            per-subclass slab count
  ///   pamakv_subclass_items{class,band}   items per subclass
  ///   pamakv_ghost_hits{class,band}       ghost receiving-segment hits
  ///   pamakv_free_slabs / pamakv_total_slabs
  ///   pamakv_<stat> for every CacheStats counter (summed over shards)
  /// and, when the shards run PamaPolicy, the value-flow telemetry:
  ///   pamakv_pama_decisions_total{shard}, pamakv_pama_outgoing_value_sum,
  ///   pamakv_pama_incoming_value_sum, pamakv_pama_migration_benefit_sum,
  ///   pamakv_pama_last_{outgoing,incoming}_value{shard} and the
  ///   band-to-band matrix pamakv_pama_migration_flow_total{from,to}.
  /// Keeps a pointer to `registry` for `stats detail`.
  void RegisterMetrics(util::MetricsRegistry& registry);

  /// Registers (or clears, with nullptr) an extra "STAT ..." appender run
  /// inside AppendStats before the END line. Thread-safe.
  void SetExtraStats(std::function<void(std::vector<char>&)> appender);

  /// Aggregated engine stats across shards (locks each shard briefly).
  [[nodiscard]] CacheStats TotalStats() const;
  /// Aggregated service-level command counters across shards.
  [[nodiscard]] ServiceCounters TotalCounters() const;
  /// Timer-wheel nodes pending across shards (live + stale).
  [[nodiscard]] std::uint64_t ExpiryNodeCount() const;
  /// Live items across shards (= memcached curr_items).
  [[nodiscard]] std::uint64_t ItemCount() const;
  /// Hash collisions resolved across shards (expected 0 in real runs).
  [[nodiscard]] std::uint64_t CollisionsResolved() const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Shard index a key id routes to (ShardedCache::ShardIndexFor); the
  /// executor uses this to group batched ops before taking any lock.
  [[nodiscard]] std::size_t ShardIndexForId(KeyId id) const noexcept {
    return ShardedCache::ShardIndexFor(id, shards_.size());
  }

  /// Executes a shard group: takes shard `index`'s lock once, reads the
  /// clock once, runs the listed ops in request order (each writes its
  /// wire reply into its own buffer), and commits the WAL once. `idx`
  /// indexes into `batch`; every listed op must already be routed to this
  /// shard. Returns how many ops finished. Fewer than `n` means op
  /// `idx[result]` needs a flash record: `*park` is armed with its read,
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
  /// entries that died or expired since capture) under the shard lock.
  /// Returns how many keys were consumed; 0 means the list is exhausted.
  std::size_t CaptureItems(std::size_t index, const std::vector<KeyId>& keys,
                           std::size_t start, std::size_t max,
                           std::vector<persist::SnapItem>& out);

  /// Installs a recovered shard state: slab layout + ghosts first (when
  /// the engine geometry matches the snapshot's), then items coldest-
  /// first through the engine's restore path, falling back to a normal
  /// Set when the saved layout cannot seat one. Call at startup, before
  /// the server listens.
  persist::RestoreCounts RestoreShard(std::size_t index,
                                      const persist::ShardRestoreState& st);

  /// Re-captures the (unix, mono) anchor from the clock. The persister
  /// calls this after recovery replay so absolute-exptime conversion and
  /// persisted timestamps are anchored at "now", not at construction
  /// (recovery can spend real time replaying a large WAL).
  void ReanchorNow();

  // ---- flash victim tier ----

  /// Wires the flash tier and registers a per-shard eviction listener on
  /// every engine, so capacity evictions queue for demotion. The tier
  /// must be sharded exactly like the service. Wire it before serving
  /// traffic and before RegisterMetrics (the flash gauges register only
  /// when a tier is attached); there is no synchronization with in-flight
  /// requests.
  void AttachFlash(flash::FlashTier* tier);

  [[nodiscard]] bool flash_enabled() const noexcept { return flash_ != nullptr; }
  [[nodiscard]] flash::FlashTier* flash() noexcept { return flash_; }

  /// Replays the tier's segment files (call after WAL/snapshot recovery,
  /// before StartIo and before the server listens). The admit callback
  /// drops records that expired, are flush-covered, route to a different
  /// shard (shard count changed), or are older than a recovered DRAM
  /// copy; survivors get monotonic deadlines against the current anchor.
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
  struct Entry {
    std::string key;    ///< exact key string (collision verification)
    std::string value;  ///< payload bytes
    std::uint32_t flags = 0;
    std::uint64_t cas = 0;
    /// Monotonic-ns deadline; 0 = never, negative = expired on arrival.
    std::int64_t expire_at_ns = 0;
    /// When the current value was stored/touched — the flush-epoch side
    /// of the expiry check compares against this.
    std::int64_t stored_at_ns = 0;
    /// Shard flush count at store time: disambiguates stores landing on
    /// the same nanosecond as a flush_all (before vs after the command).
    std::uint64_t flush_seq = 0;
    /// Deadline currently filed in the shard's timer wheel for this key
    /// (0 = none): re-storing with the same deadline skips the duplicate
    /// node, which is what keeps a steady TTL workload allocation-free.
    std::int64_t wheel_deadline_ns = 0;
    bool live = false;  ///< engine-backed as of the last touch
  };

  /// An eviction the engine listener queued for flash demotion: the
  /// engine-side metadata captured at eviction time (the entry map still
  /// holds key/value/cas). Drained by DrainDemotions after the engine
  /// call that produced it returns.
  struct PendingDemote {
    KeyId id = 0;
    MicroSecs penalty = 0;
    ClassId cls = 0;
    SubclassId sub = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::size_t index = 0;  ///< position in shards_ (sink calls carry it)
    std::unique_ptr<CacheEngine> engine;
    std::unordered_map<KeyId, Entry> entries;
    std::unique_ptr<ExpiryWheel> wheel;
    /// Reaper scratch: harvested nodes land here (capacity reused).
    std::vector<ExpiryWheel::Node> reap_buf;
    std::uint64_t cas_counter = 0;
    std::uint64_t collisions = 0;
    /// Pending/active flush_all cutover (monotonic ns); 0 = none ever.
    std::int64_t flush_at_ns = 0;
    /// Count of flush_all commands applied to this shard.
    std::uint64_t flush_seq = 0;
    ServiceCounters counters;
    /// Evictions queued by the engine listener, awaiting demotion
    /// (capacity reused; only populated with a flash tier attached).
    std::vector<PendingDemote> pending_demotes;
    /// Demotions lost to listener allocation failure or a missing entry.
    std::uint64_t demote_drops = 0;
  };

  [[nodiscard]] Shard& ShardFor(KeyId id) {
    return *shards_[ShardedCache::ShardIndexFor(id, shards_.size())];
  }
  [[nodiscard]] MicroSecs PenaltyOf(std::uint32_t flags) const noexcept {
    return flags != 0 ? static_cast<MicroSecs>(flags) : default_penalty_us_;
  }
  /// Resolves the entry for (id, key) under the shard lock, handling the
  /// stale-entry and collision cases. Returns the entry when it is live
  /// and verified, nullptr otherwise.
  Entry* VerifiedLive(Shard& shard, KeyId id, std::string_view key);

  /// True when the entry's own deadline or the shard's flush epoch has
  /// passed as of now_ns.
  [[nodiscard]] bool EntryExpired(const Shard& shard, const Entry& entry,
                                  std::int64_t now_ns) const noexcept;
  /// The flush-epoch half of the expiry rule, shared with flash slots.
  [[nodiscard]] bool FlushCovers(const Shard& shard, std::int64_t stored_at_ns,
                                 std::uint64_t flush_seq,
                                 std::int64_t now_ns) const noexcept;
  /// VerifiedLive + lazy expiry: a verified entry whose time has passed
  /// is expired through the engine (ghost-routed, counted as expired, not
  /// evicted) and reported as absent.
  Entry* LiveUnexpired(Shard& shard, KeyId id, std::string_view key,
                       std::int64_t now_ns);
  /// Files the entry's deadline in the shard's wheel unless that exact
  /// deadline is already filed.
  void ScheduleExpiry(Shard& shard, Entry& entry, KeyId id);
  // Lock-held verb bodies: the batch path runs them with one lock
  // acquisition and one clock read per shard group; the single-call
  // public wrappers hash the key, take the lock and read the clock per
  // call. A non-null `flash_pending` lets a flash-resident key arm a read
  // (the caller finishes the verb once it lands) instead of missing.
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
                               FlashPending* park);
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
  /// Fills *pending with a scheduled read of the slot's record.
  void ArmFlashRead(Shard& shard, KeyId id, const flash::Slot& slot,
                    FlashPending* pending);
  /// Demotes every queued eviction (admission-gated by the policy's
  /// incoming slab value), then runs tier GC if the shard is over its
  /// cap. Call after any engine call that can evict.
  void DrainDemotions(Shard& shard, std::int64_t now);

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
  /// The body of CompleteFlashOp under the shard lock: promote, then
  /// re-run the op (or serve it from the tier). Returns RunOpLocked's
  /// found-the-item result.
  bool FinishParkedLocked(Shard& shard, BatchOp& op,
                          const FlashPending& pending, bool read_ok,
                          std::string_view payload, std::int64_t now);
  /// kDirect: answers a parked op from the record in `rec` with the slot
  /// left on flash (no DRAM seat). Returns whether it found the item.
  bool ServeFromFlashLocked(Shard& shard, BatchOp& op,
                            const flash::Record& rec, std::int64_t now);

  /// Per-subclass sum of a counter across shards, under each shard's lock.
  template <typename Fn>
  [[nodiscard]] double SumOverShards(Fn fn) const {
    double total = 0.0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += fn(*shard->engine);
    }
    return total;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  MicroSecs default_penalty_us_;
  Bytes default_size_;
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
