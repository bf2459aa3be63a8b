#include "pamakv/net/cache_service.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "pamakv/cache/string_keys.hpp"
#include "pamakv/net/batch.hpp"
#include "pamakv/net/protocol.hpp"
#include "pamakv/policy/pama.hpp"
#include "pamakv/util/failpoint.hpp"

namespace pamakv::net {

namespace {

constexpr std::int64_t kNsPerSecond = 1'000'000'000;
/// memcached's relative/absolute exptime pivot: 30 days.
constexpr std::int64_t kRelativeLimitS = 60LL * 60 * 24 * 30;
/// Deadlines are capped ~95 years out so second→ns math cannot overflow.
constexpr std::int64_t kMaxAheadS = 3'000'000'000;
/// Size used to route a never-seen key's miss to a ghost list.
constexpr Bytes kDefaultMissSize = 64;

/// Name ↔ member table for ServiceCounters: `stats` lines and metric
/// gauges iterate this, so a counter added to the struct and here shows
/// up on every export surface at once (memcached stat spellings).
struct CounterField {
  const char* name;
  std::uint64_t ServiceCounters::*member;
};
constexpr CounterField kCounterFields[] = {
    {"cas_hits", &ServiceCounters::cas_hits},
    {"cas_misses", &ServiceCounters::cas_misses},
    {"cas_badval", &ServiceCounters::cas_badval},
    {"incr_hits", &ServiceCounters::incr_hits},
    {"incr_misses", &ServiceCounters::incr_misses},
    {"decr_hits", &ServiceCounters::decr_hits},
    {"decr_misses", &ServiceCounters::decr_misses},
    {"touch_hits", &ServiceCounters::touch_hits},
    {"touch_misses", &ServiceCounters::touch_misses},
    {"flash_hits", &ServiceCounters::flash_hits},
    {"flash_promotes", &ServiceCounters::flash_promotes},
    {"flash_direct_serves", &ServiceCounters::flash_direct_serves},
    {"flash_read_failures", &ServiceCounters::flash_read_failures},
    {"flash_penalty_saved_us", &ServiceCounters::flash_penalty_saved_us},
};

/// incr/decr on a stored value, which must be a plain decimal uint64 (all
/// digits, fully consumed, in range). incr saturates at 2^64-1 — memcached
/// wraps, but a penalty-aware cache has no use for a counter that silently
/// jumps to 0 — and decr floors at 0. False for a non-numeric value.
bool ApplyDelta(std::string_view value, std::uint64_t delta, bool increment,
                std::uint64_t* next) {
  std::uint64_t current = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, current);
  if (value.empty() || ec != std::errc{} || ptr != end) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (increment) {
    *next = current > kMax - delta ? kMax : current + delta;
  } else {
    *next = current < delta ? 0 : current - delta;
  }
  return true;
}

/// Whether a buffer is too big to keep for `size` bytes: no record may pin
/// the buffer of a large value that once went through it.
bool Oversized(std::size_t capacity, std::size_t size) noexcept {
  return capacity > 4 * size + 1024;
}

/// `to` takes `from`'s bytes: copied if its buffer fits, else traded.
void TakeBytes(std::string& to, std::string& from) noexcept {
  if (to.capacity() >= from.size() && !Oversized(to.capacity(), from.size())) {
    to.assign(from);
  } else {
    to.swap(from);
  }
}

}  // namespace

std::string_view StoreReplyText(StoreStatus status) noexcept {
  switch (status) {
    case StoreStatus::kStored: return "STORED\r\n";
    case StoreStatus::kNotStored: return "NOT_STORED\r\n";
    case StoreStatus::kExists: return "EXISTS\r\n";
    case StoreStatus::kNotFound: return "NOT_FOUND\r\n";
  }
  return "SERVER_ERROR bad store status\r\n";
}

void AppendArithmeticReply(std::vector<char>& out, ArithmeticResult result) {
  switch (result.status) {
    case ArithmeticResult::Status::kOk:
      AppendUInt(out, result.value);
      AppendLiteral(out, "\r\n");
      break;
    case ArithmeticResult::Status::kNotFound:
      AppendLiteral(out, kNotFoundReply);
      break;
    case ArithmeticResult::Status::kNonNumeric:
      AppendLiteral(out,
                    "CLIENT_ERROR cannot increment or decrement non-numeric "
                    "value\r\n");
      break;
  }
}

StoreVerb ToStoreVerb(Verb v) noexcept {
  switch (v) {
    case Verb::kAdd: return StoreVerb::kAdd;
    case Verb::kReplace: return StoreVerb::kReplace;
    case Verb::kAppend: return StoreVerb::kAppend;
    case Verb::kPrepend: return StoreVerb::kPrepend;
    case Verb::kCas: return StoreVerb::kCas;
    default: return StoreVerb::kSet;
  }
}

CacheService::CacheService(const CacheServiceConfig& config,
                           const EngineFactory& factory)
    : default_penalty_us_(config.default_penalty_us),
      clock_(config.clock != nullptr ? config.clock
                                     : &util::SteadyClock::Instance()),
      // Wall time goes through the clock seam (not system_clock directly)
      // so FakeClock tests can pin the service's time.
      unix_offset_ns_((config.unix_now_s != 0
                           ? config.unix_now_s * kNsPerSecond
                           : clock_->WallNowNs()) -
                      clock_->NowNanos()) {
  if (config.shards == 0) throw std::invalid_argument("shards must be >= 1");
  shards_.reserve(config.shards);
  const Bytes per_shard = config.capacity_bytes / config.shards;
  for (std::size_t i = 0; i < config.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->engine = factory(per_shard);
    // Each engine sees about one in `shards` of the server's requests; its
    // clock counts them all, so every shard's windows span the same
    // server traffic.
    shard->engine->SetClockStep(config.shards);
    shards_.push_back(std::move(shard));
  }
}

void CacheService::ReanchorNow() {
  // A simultaneous (wall, monotonic) pair defines the same offset no
  // matter when it is taken; re-capturing after a long recovery replay
  // just sheds whatever drift accumulated since construction.
  unix_offset_ns_ = clock_->WallNowNs() - clock_->NowNanos();
}

std::int64_t CacheService::DeadlineFor(std::int64_t exptime_s,
                                       std::int64_t now_ns) const noexcept {
  if (exptime_s == 0) return 0;
  // Negative exptime: memcached treats it as "expired already". -1 is the
  // always-in-the-past sentinel (0 would mean "never").
  if (exptime_s < 0) return -1;
  if (exptime_s <= kRelativeLimitS) return now_ns + exptime_s * kNsPerSecond;
  // Absolute unix seconds: the service's time is unix, so the exptime is
  // the deadline itself, at its whole second.
  const std::int64_t deadline =
      std::min(exptime_s, now_ns / kNsPerSecond + kMaxAheadS) * kNsPerSecond;
  return deadline > now_ns ? deadline : -1;
}

bool CacheService::Lapsed(const Shard& shard, const ItemMeta& meta,
                          std::int64_t now_ns) const noexcept {
  if (meta.expire_at_ns != 0 && now_ns >= meta.expire_at_ns) return true;
  // flush_seq doubles as the armed flag: it is 0 only before the first
  // flush_all (flush_at_ns == 0 cannot mean "unarmed" — an immediate
  // flush under a FakeClock sitting at t=0 computes exactly 0).
  if (shard.flush_seq == 0 || now_ns < shard.flush_at_ns) return false;
  // The flush epoch covers everything stored strictly before the
  // cutover; stores landing on the cutover's exact nanosecond (routine
  // under a FakeClock) are split by the flush sequence captured at
  // store time: before the flush_all command => flushed, after => kept.
  if (meta.stored_at_ns < shard.flush_at_ns) return true;
  return meta.stored_at_ns == shard.flush_at_ns &&
         meta.flush_seq < shard.flush_seq;
}

void CacheService::ApplyTouch(Shard& shard, KeyId id, std::string_view key,
                              ItemMeta& meta, bool in_dram,
                              std::int64_t exptime_s, std::int64_t now) {
  // Room for the deadline entry before anything mutates (the records stay
  // as they are: `meta` may be one of them).
  if (in_dram) shard.expiry.Reserve(shard.records.size());
  meta.expire_at_ns = DeadlineFor(exptime_s, now);
  // Refreshing the stored time also rescues the value from a pending
  // flush epoch, as memcached's touch does. A flash slot moves in
  // metadata alone: its on-disk record keeps the old deadline until GC
  // rewrites it, so a crash loses the refresh, acceptable for a cache
  // tier.
  meta.stored_at_ns = now;
  meta.flush_seq = shard.flush_seq;
  if (in_dram) {
    shard.engine->Touch(id);
    ScheduleExpiry(shard, shard.engine->HandleOf(id));
  }
  ++shard.counters.touch_hits;
  if (sink_ != nullptr) {
    sink_->OnTouch(shard.index, key, meta.expire_at_ns, meta.stored_at_ns);
  }
}

void CacheService::Record::TakeFrom(Record& from) noexcept {
  TakeBytes(key, from.key);
  TakeBytes(value, from.value);
  header() = from;
}

CacheService::Record* CacheService::LiveUnexpired(Shard& shard, KeyId id,
                                                  std::string_view key,
                                                  std::int64_t now_ns) {
  const ItemHandle h = shard.engine->HandleOf(id);
  if (h == kInvalidHandle) return nullptr;
  if (h >= shard.records.size() || shard.records[h].key != key) {
    // The engine holds this id for a *different* string (or for a store
    // that bypassed the service). Drop the squatter so both keys see
    // consistent misses from here on.
    ++shard.collisions;
    shard.engine->Del(id);
    return nullptr;
  }
  Record& record = shard.records[h];
  if (!Lapsed(shard, record, now_ns)) return &record;
  // Lazy expiry: collect the stale item now, then report it absent. The
  // engine ghost-routes the key (demand stays visible to the policy) and
  // counts it as expired, not evicted.
  shard.engine->Expire(id, /*background=*/false);
  return nullptr;
}

CacheService::Record& CacheService::StageRecord(Shard& shard,
                                                std::string_view key,
                                                const ItemMeta& meta,
                                                std::string_view head,
                                                std::string_view tail) {
  Record& next = shard.scratch;
  next.key.assign(key.data(), key.size());
  // An oversized value buffer is released before it is reused.
  const std::size_t size = head.size() + tail.size();
  if (Oversized(next.value.capacity(), size)) std::string().swap(next.value);
  next.value.reserve(size);
  next.value.assign(head.data(), head.size()).append(tail.data(), tail.size());
  next.header() = meta;
  return next;
}

CacheService::Record* CacheService::SeatScratch(Shard& shard, KeyId id,
                                                MicroSecs penalty,
                                                bool was_cached) {
  shard.ReserveRoom();
  const SetResult result =
      shard.engine->Set(id, shard.scratch.value.size(), penalty);
  if (!result.stored) {
    // A value larger than every slot is refused with the old copy still
    // cached; drop it, as memcached unlinks the item of a failed set, so
    // the key misses instead of serving the bytes the store replaced.
    if (shard.engine->HandleOf(id) != kInvalidHandle) shard.engine->Del(id);
    // That copy, or the one the engine dropped when the store changed its
    // class or band, is gone: log the drop, or a restart would replay the
    // key's last logged store and serve the bytes this store replaced.
    if (was_cached && sink_ != nullptr) {
      sink_->OnDelete(shard.index, shard.scratch.key);
    }
    return nullptr;
  }
  Record* record = &shard.records[result.handle];
  record->TakeFrom(shard.scratch);
  ScheduleExpiry(shard, result.handle);
  return record;
}

void CacheService::ScheduleExpiry(Shard& shard, ItemHandle h) {
  // Entries carry handles, not keys: the handle's one entry covers
  // whichever key it holds when the entry comes due. Every caller made
  // room for it before mutating, so this never allocates.
  const std::int64_t deadline = shard.records[h].expire_at_ns;
  if (deadline != 0) shard.expiry.Schedule(h, deadline);
}

void CacheService::LogStore(const Shard& shard, std::string_view key,
                            std::string_view value, const ItemMeta& meta) {
  if (sink_ == nullptr) return;
  persist::WalStore rec;
  rec.header() = meta;
  rec.key = key;
  rec.value = value;
  sink_->OnStore(shard.index, rec);
}

template <typename Body>
auto CacheService::Locked(Shard& shard, bool commit, Body&& body) {
  std::unique_lock<std::mutex> lock(shard.mu);
  const auto result = body(shard, NowNs());
  lock.unlock();
  // Pre-reply durability point: with --persist-fsync=always the shard's
  // mutations are on stable storage before the client can observe them.
  if (commit && sink_ != nullptr) sink_->Commit(shard.index);
  return result;
}

template <typename Body>
auto CacheService::OnKey(std::string_view key, bool commit, Body&& body) {
  const KeyId id = HashStringKey(key);
  return Locked(ShardFor(id), commit, [&](Shard& shard, std::int64_t now) {
    return body(shard, id, now);
  });
}

bool CacheService::Get(std::string_view key, std::vector<char>& out,
                       bool with_cas) {
  return OnKey(key, /*commit=*/false,
               [&](Shard& shard, KeyId id, std::int64_t now) {
                 return GetLocked(shard, id, key, out, with_cas,
                                  /*touch=*/false, 0, now);
               });
}

bool CacheService::GetLocked(Shard& shard, KeyId id, std::string_view key,
                             std::vector<char>& out, bool with_cas, bool touch,
                             std::int64_t exptime_s, std::int64_t now,
                             FlashPending* flash_pending) {
  if (Record* record = LiveUnexpired(shard, id, key, now)) {
    // The engine holds the key (just checked under this lock): a hit.
    shard.engine->Get(id, record->value.size(), PenaltyOf(record->flags));
    if (touch) {
      ApplyTouch(shard, id, key, *record, /*in_dram=*/true, exptime_s, now);
    }
    AppendValueBlock(out, key, record->flags, record->value, record->cas,
                     with_cas);
    return true;
  }
  // A DRAM miss may still be a flash hit: schedule the async read instead
  // of answering. The engine is charged the miss now, at schedule time,
  // so the demand (and its ghost routing) is visible to the policy
  // immediately; the promote (set) and serve (hit) halves follow at
  // completion, which is what keeps PAMA's accounting exact across the
  // tier boundary.
  if (flash::Slot* slot = FlashSlotLive(shard, id, now)) {
    shard.engine->Get(id, slot->value_size, slot->penalty);
    if (flash_pending != nullptr) {
      ArmFlashRead(shard, id, *slot, flash_pending);
      return false;
    }
    // No read may be scheduled (Get, or the re-run after a completion
    // whose slot was re-demoted mid-read): an ordinary miss, already
    // charged with the slot's exact size and penalty.
  } else {
    // Miss: charge the engine so stats, ghost lists and PAMA's demand
    // attribution see it. An evicted or expired key's ghost knows the
    // (class, band) it left and its penalty, so the engine routes the
    // miss to the list that ranks it; a key without one gets the
    // configured defaults.
    shard.engine->Get(id, kDefaultMissSize, default_penalty_us_,
                      /*by_ghost=*/true);
  }
  if (touch) ++shard.counters.touch_misses;
  return false;
}

StoreStatus CacheService::Store(StoreVerb verb, std::string_view key,
                                std::uint32_t flags, std::int64_t exptime_s,
                                std::string_view value,
                                std::uint64_t cas_unique) {
  return OnKey(key, /*commit=*/true,
               [&](Shard& shard, KeyId id, std::int64_t now) {
                 return StoreLocked(shard, id, verb, key, flags, exptime_s,
                                    value, cas_unique, now);
               });
}

StoreStatus CacheService::StoreLocked(Shard& shard, KeyId id, StoreVerb verb,
                                      std::string_view key,
                                      std::uint32_t flags,
                                      std::int64_t exptime_s,
                                      std::string_view value,
                                      std::uint64_t cas_unique,
                                      std::int64_t now,
                                      FlashPending* flash_pending) {
  // Resolves collisions (the engine's overwrite path must never mix two
  // strings' metadata under one id) and lazily expires a stale copy — an
  // `add` of an expired key succeeds, a `replace`/`append` of one fails,
  // exactly as if the reaper had already collected it.
  Record* existing = LiveUnexpired(shard, id, key, now);
  // A key absent from DRAM may still be flash-resident. The record, else
  // the live slot, answers every presence precondition from its header,
  // without a disk read. Only append/prepend need the stored bytes, so
  // only they defer.
  flash::Slot* fslot =
      existing == nullptr ? FlashSlotLive(shard, id, now) : nullptr;
  const ItemMeta* held = existing;
  if (held == nullptr) held = fslot;
  const bool concat =
      verb == StoreVerb::kAppend || verb == StoreVerb::kPrepend;
  switch (verb) {
    case StoreVerb::kSet:
      break;
    case StoreVerb::kAdd:
      if (held != nullptr) return StoreStatus::kNotStored;
      break;
    case StoreVerb::kReplace:
      if (held == nullptr) return StoreStatus::kNotStored;
      break;
    case StoreVerb::kAppend:
    case StoreVerb::kPrepend:
      if (existing == nullptr) {
        if (fslot != nullptr && flash_pending != nullptr) {
          // The old value is on flash: defer; CompleteFlashOp promotes and
          // re-runs the concat once the read lands. The return value is a
          // placeholder the deferring caller never reports.
          ArmFlashRead(shard, id, *fslot, flash_pending);
        }
        return StoreStatus::kNotStored;
      }
      break;
    case StoreVerb::kCas:
      if (held == nullptr) {
        ++shard.counters.cas_misses;
        return StoreStatus::kNotFound;
      }
      // The demote/promote cycle never bumps cas, so a client's
      // gets -> cas round trip spanning a demotion still matches here.
      if (held->cas != cas_unique) {
        ++shard.counters.cas_badval;
        return StoreStatus::kExists;
      }
      break;
  }
  // Stage the bytes before the engine mutates: a bad_alloc from here (real,
  // or injected via the svc.store_bytes failpoint) aborts the request with
  // the engine and the records as they were. A refused store leaves only
  // the engine's ghost of the key, which routes its misses.
  PAMAKV_FAILPOINT_OOM("svc.store_bytes");
  // append/prepend keep the stored flags and deadline (their wire
  // arguments are ignored, as memcached does); everything else takes the
  // caller's.
  const std::string_view old = concat ? existing->value : std::string_view();
  const bool old_first = verb == StoreVerb::kAppend;
  const Record& next = StageRecord(
      shard, key,
      shard.NewVersion(concat ? existing->flags : flags,
                       concat ? existing->expire_at_ns
                              : DeadlineFor(exptime_s, now),
                       now),
      old_first ? old : value, old_first ? value : old);
  Record* record = SeatScratch(shard, id, PenaltyOf(next.flags),
                               /*was_cached=*/existing != nullptr);
  DrainDemotions(shard, now);
  if (record == nullptr) return StoreStatus::kNotStored;
  // The DRAM copy now supersedes any flash-resident one; the tombstone
  // keeps recovery replay honest (no-op when no slot exists).
  if (flash_ != nullptr) flash_->EraseWithTombstone(shard.index, id, key);
  if (verb == StoreVerb::kCas) ++shard.counters.cas_hits;
  // The record holds the committed state (concat verbs included); log
  // that, not the wire arguments.
  LogStore(shard, record->key, record->value, *record);
  return StoreStatus::kStored;
}

bool CacheService::Set(std::string_view key, std::uint32_t flags,
                       std::string_view value) {
  return Store(StoreVerb::kSet, key, flags, /*exptime_s=*/0, value) ==
         StoreStatus::kStored;
}

ArithmeticResult CacheService::IncrDecr(std::string_view key,
                                        std::uint64_t delta, bool increment) {
  return OnKey(key, /*commit=*/true,
               [&](Shard& shard, KeyId id, std::int64_t now) {
                 return IncrDecrLocked(shard, id, key, delta, increment, now);
               });
}

ArithmeticResult CacheService::IncrDecrLocked(Shard& shard, KeyId id,
                                              std::string_view key,
                                              std::uint64_t delta,
                                              bool increment,
                                              std::int64_t now,
                                              FlashPending* flash_pending) {
  std::uint64_t& hits =
      increment ? shard.counters.incr_hits : shard.counters.decr_hits;
  std::uint64_t& misses =
      increment ? shard.counters.incr_misses : shard.counters.decr_misses;
  Record* record = LiveUnexpired(shard, id, key, now);
  if (record == nullptr) {
    // Flash-resident: defer so the mutation can promote-then-mutate
    // atomically under this lock once the value arrives — never a bare
    // NOT_FOUND while the value sits on flash.
    if (flash::Slot* slot = FlashSlotLive(shard, id, now);
        slot != nullptr && flash_pending != nullptr) {
      ArmFlashRead(shard, id, *slot, flash_pending);
      return ArithmeticResult{ArithmeticResult::Status::kNotFound, 0};
    }
    ++misses;
    return ArithmeticResult{ArithmeticResult::Status::kNotFound, 0};
  }
  // A value that is not a plain decimal uint64 gets memcached's
  // CLIENT_ERROR.
  std::uint64_t next = 0;
  if (!ApplyDelta(record->value, delta, increment, &next)) {
    return ArithmeticResult{ArithmeticResult::Status::kNonNumeric, 0};
  }
  char buf[20];
  const auto conv = std::to_chars(buf, buf + sizeof buf, next);
  // Stored as plain decimal — the value may shrink, unlike memcached's
  // blank-padding of shorter results. TTL and flags carry over.
  const Record& staged = StageRecord(
      shard, key, shard.NewVersion(record->flags, record->expire_at_ns, now),
      std::string_view(buf, static_cast<std::size_t>(conv.ptr - buf)));
  record = SeatScratch(shard, id, PenaltyOf(staged.flags),
                       /*was_cached=*/true);
  DrainDemotions(shard, now);
  if (record == nullptr) {
    // The re-store lost its slot (class change under pressure): the item
    // is gone, which the client sees as NOT_FOUND — the same outcome as
    // racing an eviction.
    ++misses;
    return ArithmeticResult{ArithmeticResult::Status::kNotFound, 0};
  }
  ++hits;
  // A stale flash copy from an earlier demotion must not outlive the
  // mutation (no-op when no slot exists).
  if (flash_ != nullptr) flash_->EraseWithTombstone(shard.index, id, key);
  LogStore(shard, record->key, record->value, *record);
  return ArithmeticResult{ArithmeticResult::Status::kOk, next};
}

bool CacheService::Touch(std::string_view key, std::int64_t exptime_s) {
  return OnKey(key, /*commit=*/true,
               [&](Shard& shard, KeyId id, std::int64_t now) {
                 return TouchLocked(shard, id, key, exptime_s, now);
               });
}

bool CacheService::TouchLocked(Shard& shard, KeyId id, std::string_view key,
                               std::int64_t exptime_s, std::int64_t now) {
  // The record, else the live slot: a flash-resident key touches in
  // metadata alone, with no disk read.
  Record* record = LiveUnexpired(shard, id, key, now);
  ItemMeta* meta = record;
  if (meta == nullptr) meta = FlashSlotLive(shard, id, now);
  if (meta == nullptr) {
    ++shard.counters.touch_misses;
    return false;
  }
  ApplyTouch(shard, id, key, *meta, /*in_dram=*/record != nullptr, exptime_s,
             now);
  return true;
}

bool CacheService::Del(std::string_view key) {
  return OnKey(key, /*commit=*/true,
               [&](Shard& shard, KeyId id, std::int64_t now) {
                 return DelLocked(shard, id, key, now);
               });
}

bool CacheService::DelLocked(Shard& shard, KeyId id, std::string_view key,
                             std::int64_t now) {
  const bool cached = LiveUnexpired(shard, id, key, now) != nullptr;
  // A flash-resident key is deleted in metadata.
  const bool on_flash = !cached && FlashSlotLive(shard, id, now) != nullptr;
  // Counts the attempt engine-side whether or not DRAM holds the key.
  const bool deleted = shard.engine->Del(id) || on_flash;
  // Absent, stale, collided, or just lazily expired: a DELETE of this
  // name must not remove someone else's entry.
  if (!cached && !on_flash) return false;
  // The tombstone keeps recovery replay from resurrecting a flash copy,
  // the key's own or a stale one from an earlier demotion.
  if (flash_ != nullptr) flash_->EraseWithTombstone(shard.index, id, key);
  if (deleted && sink_ != nullptr) sink_->OnDelete(shard.index, key);
  return deleted;
}

std::size_t CacheService::ExecuteOps(std::size_t index, Batch& batch,
                                     const std::uint32_t* idx, std::size_t n,
                                     FlashPending* park) {
  park->armed = false;
  // One clock read and one durability point cover the group: its ops
  // share one "now", exactly as if they had run back-to-back (under a
  // paused test clock that is the value every op would have read anyway),
  // and the replies have not been sequenced to any client yet.
  return Locked(*shards_[index], /*commit=*/true,
                [&](Shard& shard, std::int64_t now) {
                  return ExecuteOpsLocked(shard, batch, idx, n, park, now);
                });
}

std::size_t CacheService::ExecuteOpsLocked(Shard& shard, Batch& batch,
                                           const std::uint32_t* idx,
                                           std::size_t n, FlashPending* park,
                                           std::int64_t now) {
  for (std::size_t i = 0; i < n; ++i) {
    // Once any op fails the connection is doomed; stop executing so the
    // engine (and the verb metrics) see only the ops that ran.
    if (batch.failed) return n;
    BatchOp& op = batch.op(idx[i]);
    try {
      // Mid-batch injection seam: `oom` starves one op, `sleep` skews this
      // group's latency (the ordering suite uses it to force adversarial
      // completion orders).
      PAMAKV_FAILPOINT_INJECT("svc.batch");
      RunOpLocked(shard, op, now, park);
      if (park->armed && !FinishCachedLocked(shard, batch, op, park, now)) {
        return i;
      }
    } catch (const std::bad_alloc&) {
      FailOp(batch, op);
    }
  }
  return n;
}

bool CacheService::RunOpLocked(Shard& shard, BatchOp& op, std::int64_t now,
                               FlashPending* park) {
  const auto parked = [park] { return park != nullptr && park->armed; };
  bool found = false;
  switch (op.verb) {
    case Verb::kGet:
    case Verb::kGets:
    case Verb::kGat:
    case Verb::kGats:
      found = GetLocked(shard, op.id, op.key, op.out, op.with_cas, op.touch,
                        op.exptime, now, park);
      if (parked()) return false;
      if (op.append_end) AppendLiteral(op.out, "END\r\n");
      break;
    case Verb::kSet:
    case Verb::kAdd:
    case Verb::kReplace:
    case Verb::kAppend:
    case Verb::kPrepend:
    case Verb::kCas: {
      const StoreStatus status =
          StoreLocked(shard, op.id, ToStoreVerb(op.verb), op.key, op.flags,
                      op.exptime, op.value, op.cas, now, park);
      if (parked()) return false;
      found = status == StoreStatus::kStored;
      if (!op.noreply) AppendLiteral(op.out, StoreReplyText(status));
      break;
    }
    case Verb::kIncr:
    case Verb::kDecr: {
      const ArithmeticResult result = IncrDecrLocked(
          shard, op.id, op.key, op.delta, op.verb == Verb::kIncr, now, park);
      if (parked()) return false;
      found = result.status == ArithmeticResult::Status::kOk;
      if (!op.noreply) AppendArithmeticReply(op.out, result);
      break;
    }
    case Verb::kTouch:
      found = TouchLocked(shard, op.id, op.key, op.exptime, now);
      if (!op.noreply) {
        AppendLiteral(op.out, found ? kTouchedReply : kNotFoundReply);
      }
      break;
    case Verb::kDelete:
      found = DelLocked(shard, op.id, op.key, now);
      if (!op.noreply) {
        AppendLiteral(op.out, found ? kDeletedReply : kNotFoundReply);
      }
      break;
    default:
      // Barrier verbs (stats/flush_all/version/bgsave/quit) end the batch
      // and run on the connection after it; they never reach a shard.
      break;
  }
  op.executed = true;
  return found;
}

void CacheService::FailOp(Batch& batch, BatchOp& op) {
  op.out.clear();
  if (IsStorageVerb(op.verb)) {
    if (!op.noreply) AppendLiteral(op.out, kStoreOomReply);
    op.executed = true;
  } else {
    batch.failed = true;
  }
}

void CacheService::FlushAll(std::int64_t delay_s) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const std::int64_t now = NowNs();
    const std::int64_t delay = std::clamp<std::int64_t>(delay_s, 0, kMaxAheadS);
    // Epoch flip only: items stored before the cutover become invalid the
    // moment it arrives and fall out lazily (on access, or under eviction
    // pressure), never via a synchronous wipe. A newer flush_all
    // supersedes a pending one — including, as in memcached, pushing the
    // cutover later and thereby un-condemning items the earlier epoch
    // covered but nothing collected yet.
    shard->flush_at_ns = now + delay * kNsPerSecond;
    ++shard->flush_seq;
    if (sink_ != nullptr) {
      sink_->OnFlush(shard->index, shard->flush_at_ns);
    }
  }
  if (sink_ != nullptr) {
    for (const auto& shard : shards_) sink_->Commit(shard->index);
  }
}

std::size_t CacheService::ReapExpired(std::size_t max_per_shard) {
  std::size_t reaped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    // Injection point for the reap path: a bad_alloc here must leave the
    // shard untouched and surface to the caller (the server's reap timer
    // counts it and re-arms).
    PAMAKV_FAILPOINT_OOM("svc.reap");
    const std::int64_t now = NowNs();
    ExpiryHeap::Entry due;
    for (std::size_t n = 0;
         n < max_per_shard && shard.expiry.PopDue(now, due); ++n) {
      // The entry stands for whatever key its handle holds now.
      const KeyId id = shard.engine->ItemAt(due.handle).key;
      if (shard.engine->HandleOf(id) != due.handle ||
          shard.records[due.handle].expire_at_ns != due.deadline_ns) {
        continue;  // the handle is free, or its key has no such deadline
      }
      // The record still carries this exact deadline and it has passed,
      // so the item is genuinely due.
      if (shard.engine->Expire(id, /*background=*/true)) ++reaped;
    }
  }
  return reaped;
}

persist::ShardCaptureMeta CacheService::CapturePersistMeta(
    std::size_t index, const std::function<void()>& under_lock) {
  Shard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (under_lock) under_lock();
  persist::ShardCaptureMeta meta;
  meta.cas_counter = shard.cas_counter;
  meta.flush_seq = shard.flush_seq;
  meta.flush_at_unix_ns = shard.flush_at_ns;
  const CacheEngine& engine = *shard.engine;
  const std::uint32_t num_classes = engine.classes().num_classes();
  const std::uint32_t num_bands = engine.num_subclasses();
  meta.num_classes = num_classes;
  meta.num_bands = num_bands;
  meta.slab_counts.reserve(static_cast<std::size_t>(num_classes) * num_bands);
  meta.ghosts.reserve(static_cast<std::size_t>(num_classes) * num_bands);
  for (ClassId c = 0; c < num_classes; ++c) {
    for (SubclassId s = 0; s < num_bands; ++s) {
      meta.slab_counts.push_back(engine.pool().SlabCount(c, s));
      std::vector<persist::GhostEntry> entries;
      for (const GhostLists::Evicted& g :
           engine.ghosts().SnapshotOldestFirst(engine.SubclassIndex(c, s))) {
        entries.push_back(persist::GhostEntry{g.key, g.penalty});
      }
      meta.ghosts.push_back(std::move(entries));
    }
  }
  // Coldest-to-hottest key order across the whole shard: last_access is
  // the engine's global LRU time, so one sort covers every subclass.
  std::vector<std::pair<AccessClock, KeyId>> ordered;
  ordered.reserve(engine.item_count());
  engine.ForEachItem([&ordered](const Item& item) {
    ordered.emplace_back(item.last_access, item.key);
  });
  std::sort(ordered.begin(), ordered.end());
  meta.keys.reserve(ordered.size());
  for (const auto& [access, id] : ordered) {
    (void)access;
    meta.keys.push_back(id);
  }
  return meta;
}

std::size_t CacheService::CaptureItems(std::size_t index,
                                       const std::vector<KeyId>& keys,
                                       std::size_t start, std::size_t max,
                                       std::vector<persist::SnapItem>& out) {
  Shard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  const std::int64_t now = NowNs();
  const std::size_t end = std::min(keys.size(), start + max);
  for (std::size_t i = start; i < end; ++i) {
    // A key that left or expired since capture simply drops out of the
    // snapshot; the WAL (rolled at capture) carries the mutation that
    // killed it, so replay converges either way.
    const Record* record = shard.RecordOf(keys[i]);
    if (record == nullptr || Lapsed(shard, *record, now)) continue;
    persist::SnapItem snap;
    snap.header() = *record;
    snap.key = record->key;
    snap.value = record->value;
    snap.order = shard.engine->ItemAt(shard.engine->HandleOf(keys[i]))
                     .last_access;
    out.push_back(std::move(snap));
  }
  return end - start;
}

void CacheService::RestoreShard(std::size_t index,
                                persist::ShardRestoreState st) {
  Shard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.cas_counter = std::max(shard.cas_counter, st.cas_counter);
  if (st.flush_seq != 0) {
    shard.flush_seq = st.flush_seq;
    shard.flush_at_ns = st.flush_at_unix_ns;
  }
  CacheEngine& engine = *shard.engine;
  const std::uint32_t num_classes = engine.classes().num_classes();
  const std::uint32_t num_bands = engine.num_subclasses();
  // The learned layout and ghost lists only transfer onto identical
  // geometry (same class table, same band bounds). On a mismatch the
  // items still restore below — through the normal Set path, which
  // re-learns a layout — so changing the config costs warmth, not data.
  const bool same_geometry = st.have_snapshot &&
                             st.num_classes == num_classes &&
                             st.num_bands == num_bands;
  if (same_geometry) {
    for (ClassId c = 0; c < num_classes; ++c) {
      for (SubclassId s = 0; s < num_bands; ++s) {
        const std::size_t i =
            static_cast<std::size_t>(c) * num_bands + s;
        const std::uint64_t want =
            i < st.slab_counts.size() ? st.slab_counts[i] : 0;
        for (std::uint64_t n = 0; n < want; ++n) {
          // A smaller capacity than the snapshot's stops early; items
          // that no longer fit fall back to Set (and its evictions).
          if (!engine.GrantSlab(c, s)) break;
        }
        if (i < st.ghosts.size()) {
          for (const persist::GhostEntry& g : st.ghosts[i]) {
            engine.PushGhost(c, s, g.key, g.penalty);
          }
        }
      }
    }
  }
  const std::int64_t now = NowNs();
  for (const persist::RestoredItem& item : st.items) {
    const KeyId id = item.id;
    ItemMeta meta = item.header();
    meta.flush_seq = shard.flush_seq;
    if (Lapsed(shard, meta, now)) continue;
    Record& next = StageRecord(shard, item.key, meta, item.value);
    const MicroSecs penalty = PenaltyOf(item.flags);
    shard.ReserveRoom();
    if (engine.RestoreItem(id, item.value.size(), penalty)) {
      const ItemHandle h = engine.HandleOf(id);
      shard.records[h].TakeFrom(next);
      ScheduleExpiry(shard, h);
    } else {
      SeatScratch(shard, id, penalty);  // may refuse it too
    }
  }
  // A newer state of a key that DRAM did not take — dead on arrival,
  // refused, or evicted by a hotter item — or a replayed delete must not
  // let an older flash copy of the key back in.
  auto dead = std::move(st.dropped);
  for (const persist::RestoredItem& item : st.items) {
    if (!engine.Contains(item.id)) dead.emplace_back(item.id, item.cas);
  }
  // The items view into the mapped files: release both before the
  // segments are mapped. The evictions of fallback Sets above never
  // demote: the shard gets its eviction listener only after its replay.
  st = {};
  if (flash_ != nullptr) ReplayFlashLocked(shard, std::move(dead));
}

// ---- flash victim tier ----

void CacheService::AttachFlash(flash::FlashTier* tier) {
  if (tier->shard_count() != shards_.size()) {
    throw std::invalid_argument("flash tier shard count mismatch");
  }
  flash_ = tier;
}

void CacheService::RecoverFlash() {
  if (flash_ == nullptr) return;
  for (auto& shard : shards_) {
    // Startup is single-threaded; the lock just keeps the "index
    // mutations hold the shard lock" invariant unconditional.
    std::lock_guard<std::mutex> lock(shard->mu);
    if (!flash_->recovered(shard->index)) ReplayFlashLocked(*shard, {});
  }
}

void CacheService::ReplayFlashLocked(
    Shard& shard, std::vector<std::pair<KeyId, std::uint64_t>> dead) {
  // Sorted, so a key's last entry carries its highest cas.
  std::sort(dead.begin(), dead.end());
  const std::int64_t now = NowNs();
  flash_->Recover(shard.index, [&](KeyId id, const flash::Record& rec,
                                   flash::Slot* slot) {
    // Routing lives here, not in the tier: a record written under a
    // different shard count lands in the wrong file and is dropped.
    if (ShardIndexForId(id) != shard.index) return false;
    // The slot's header is the record's: the lapse rule judges it as it
    // judges a record.
    if (Lapsed(shard, *slot, now)) return false;
    // A DRAM copy recovered from snapshot/WAL with an equal-or-newer cas
    // supersedes the record, as does a newer state replay could not seat
    // or a replayed delete — the case of a flash copy whose tombstone
    // append was lost to the crash.
    const Record* dram = shard.RecordOf(id);
    if (dram != nullptr && dram->cas >= rec.cas) return false;
    const auto next = std::upper_bound(
        dead.begin(), dead.end(),
        std::make_pair(id, std::numeric_limits<std::uint64_t>::max()));
    if (next != dead.begin() && std::prev(next)->first == id &&
        std::prev(next)->second > rec.cas) {
      return false;
    }
    slot->flush_seq = shard.flush_seq;
    shard.cas_counter = std::max(shard.cas_counter, rec.cas);
    return true;
  });
  // Only now may the shard demote: an append before the replay would have
  // opened its first segment with O_TRUNC, over the one on disk.
  Shard* s = &shard;
  shard.engine->SetEvictionListener([s](ItemHandle h) {
    // Fires inside the engine mid-eviction: only queue, never reenter.
    // The victim's record moves to the slot before the engine can reuse
    // its handle. A slot that cannot be allocated drops the demotion,
    // not the request.
    if (s->demotes_queued == s->demotes.size()) {
      try {
        s->demotes.emplace_back();
      } catch (const std::bad_alloc&) {
        ++s->demote_drops;
        return;
      }
    }
    PendingDemote& d = s->demotes[s->demotes_queued++];
    d.record.TakeFrom(s->records[h]);
    d.item = s->engine->ItemAt(h);
  });
}

flash::Slot* CacheService::FlashSlotLive(Shard& shard, KeyId id,
                                         std::int64_t now) {
  if (flash_ == nullptr) return nullptr;
  flash::Slot* slot = flash_->FindMutable(shard.index, id);
  if (slot == nullptr) return nullptr;
  if (Lapsed(shard, *slot, now)) {
    // Lazy lapse, mirroring LiveUnexpired: ghost-route so the demand
    // stays visible, then forget the slot. No tombstone needed —
    // recovery's admit callback re-checks expiry and flush itself.
    GhostRoute(shard, id, *slot);
    flash_->Erase(shard.index, id);
    return nullptr;
  }
  return slot;
}

void CacheService::GhostRoute(Shard& shard, KeyId id,
                              const flash::Slot& slot) {
  CacheEngine& engine = *shard.engine;
  // Guard against geometry changes across a restart: a recovered slot's
  // (class, band) may not exist in this configuration.
  if (slot.cls < engine.classes().num_classes() &&
      slot.band < engine.num_subclasses()) {
    engine.PushGhost(slot.cls, slot.band, id, slot.penalty);
  }
}

void CacheService::ArmFlashRead(Shard& shard, KeyId id,
                                const flash::Slot& slot,
                                FlashPending* pending) {
  pending->armed = true;
  pending->shard = shard.index;
  pending->id = id;
  pending->cas = slot.cas;
  pending->ticket = flash::ReadTicket{};  // see TakeFlashTicket
}

void CacheService::TakeFlashTicket(Shard& shard, FlashPending* pending) {
  // A failed dup (or a vanished slot) leaves fd = -1; the read then fails
  // cleanly at completion and the slot is dropped there.
  if (const flash::Slot* slot = flash_->Find(shard.index, pending->id)) {
    pending->ticket = flash_->MakeTicket(shard.index, *slot);
  }
}

bool CacheService::FinishCachedLocked(Shard& shard, Batch& batch, BatchOp& op,
                                      FlashPending* park, std::int64_t now) {
  const flash::Slot* slot = flash_->Find(shard.index, park->id);
  std::string_view payload;
  if (slot == nullptr || !flash_->ReadCached(shard.index, *slot, &payload)) {
    // Not in the page cache, or anything else went wrong: the IO thread
    // reads the frame and judges the outcome.
    TakeFlashTicket(shard, park);
    return false;
  }
  // Read within the lock hold that armed it, so nothing raced it; the
  // completion still revalidates, exactly as on the IO-thread path.
  park->armed = false;
  FinishParkedLocked(shard, &batch, op, *park, /*read_ok=*/true, payload, now);
  return true;
}

bool CacheService::AppendToFlash(Shard& shard, KeyId id, std::string_view key,
                                 std::string_view value, const ItemMeta& meta,
                                 MicroSecs penalty, ClassId cls,
                                 SubclassId band) {
  flash::FlashTier::DemoteMeta demote;
  demote.header() = meta;
  demote.key = key;
  demote.value = value;
  demote.penalty = penalty;
  demote.cls = cls;
  demote.band = band;
  return flash_->AppendItem(shard.index, id, demote);
}

void CacheService::DrainDemotions(Shard& shard, std::int64_t now) {
  if (flash_ == nullptr) return;
  for (std::size_t i = 0; i < shard.demotes_queued; ++i) {
    const PendingDemote& d = shard.demotes[i];
    const Record& record = d.record;
    if (Lapsed(shard, record, now)) continue;  // lapsed en route
    // Admission: the same incoming-value math the DRAM migration rule
    // uses, gated by --flash-admit-min-value. The eviction already
    // ghost-routed the key, so its demand stays visible either way;
    // high-penalty bands clear the bar first because their ghost pressure
    // is what raises IncomingValue.
    if (shard.engine->policy().IncomingSlabValue(d.item.cls, d.item.sub) <
        flash_->admit_min_value()) {
      continue;
    }
    // An append failure is counted by the tier; the ghost entry from the
    // eviction already covers the loss.
    AppendToFlash(shard, d.item.key, record.key, record.value, record,
                  d.item.penalty, d.item.cls, d.item.sub);
  }
  shard.demotes_queued = 0;
  flash_->MaybeGc(
      shard.index, now,
      [&shard](ClassId c, SubclassId s) {
        return shard.engine->policy().IncomingSlabValue(c, s);
      },
      [this, &shard](KeyId id, const flash::Slot& slot) {
        GhostRoute(shard, id, slot);
      });
}

CacheService::PromoteOutcome CacheService::PromoteFlashLocked(
    Shard& shard, KeyId id, std::string_view key, const FlashPending& pending,
    bool read_ok, std::string_view payload, flash::Record* rec,
    std::int64_t now) {
  if (flash_ == nullptr) return PromoteOutcome::kUseDram;
  // A store that landed while the read was in flight is newer than the
  // flash record by construction (every store bumps the shard cas).
  if (LiveUnexpired(shard, id, key, now) != nullptr) {
    return PromoteOutcome::kUseDram;
  }
  flash::Slot* slot = FlashSlotLive(shard, id, now);
  if (slot == nullptr || slot->cas != pending.cas) {
    // Deleted, flushed, GC-dropped or re-demoted at a different version
    // mid-read: the scheduled read answers nothing; rerun the verb.
    return PromoteOutcome::kUseDram;
  }
  if (!read_ok || !flash::FlashTier::DecodeRecord(payload, rec) ||
      rec->tombstone) {
    ++shard.counters.flash_read_failures;
    // Unreadable: stop scheduling it, keep the demand visible.
    GhostRoute(shard, id, *slot);
    flash_->Erase(shard.index, id);
    return PromoteOutcome::kUseDram;
  }
  if (rec->key != key) {
    // 64-bit id collision squatting on flash; drop the squatter, as
    // LiveUnexpired does in DRAM, so both keys see consistent misses.
    ++shard.collisions;
    flash_->EraseWithTombstone(shard.index, id, rec->key);
    return PromoteOutcome::kUseDram;
  }
  // Promote through the normal set path (staged like StoreLocked) so the
  // engine sees an ordinary insert: class/band placement, MakeRoom,
  // PAMA's incoming-value accounting — all exact. The slot's header moves
  // over whole: the value is unchanged, so its cas is too.
  StageRecord(shard, key, *slot, rec->value);
  shard.cas_counter = std::max(shard.cas_counter, slot->cas);
  Record* record = SeatScratch(shard, id, slot->penalty);
  if (record == nullptr) {
    // No seat even after MakeRoom: serve directly against the tier. The
    // slot stays put — the next access tries the promote again.
    return PromoteOutcome::kDirect;
  }
  ++shard.counters.flash_promotes;
  LogStore(shard, record->key, record->value, *record);
  // The DRAM copy is authoritative and byte-identical; replay-order cas
  // comparison at recovery makes a tombstone unnecessary.
  flash_->Erase(shard.index, id);
  return PromoteOutcome::kPromoted;
}

void CacheService::SubmitFlashRead(FlashPending& pending,
                                   flash::FlashTier::Poster poster,
                                   flash::FlashTier::ReadCallback cb) {
  flash_->SubmitRead(pending.shard, pending.ticket, std::move(poster),
                     std::move(cb));
  pending.ticket.fd = -1;  // ownership moved to the tier
}

bool CacheService::ReadFlashNow(FlashPending& pending, std::string* payload) {
  const bool ok = flash_->ReadNow(pending.shard, pending.ticket, payload);
  pending.ticket.fd = -1;  // ReadNow closed it
  return ok;
}

void CacheService::CompleteFlashOp(Batch& batch, BatchOp& op,
                                   const FlashPending& pending, bool read_ok,
                                   std::string_view payload) {
  Locked(*shards_[pending.shard], /*commit=*/true,
         [&](Shard& shard, std::int64_t now) {
           return FinishParkedLocked(shard, &batch, op, pending, read_ok,
                                     payload, now);
         });
}

bool CacheService::FinishParkedLocked(Shard& shard, Batch* batch, BatchOp& op,
                                      const FlashPending& pending,
                                      bool read_ok, std::string_view payload,
                                      std::int64_t now) {
  bool found = false;
  try {
    flash::Record rec;
    const PromoteOutcome outcome = PromoteFlashLocked(
        shard, pending.id, op.key, pending, read_ok, payload, &rec, now);
    // kPromoted: the re-run's engine access is the "hit" half of the
    // miss + set + hit accounting. kUseDram: the op re-runs against
    // whatever the race left behind — a newer DRAM copy serves, anything
    // else is an honest miss — and no read may be scheduled again.
    found = outcome == PromoteOutcome::kDirect
                ? ServeFromFlashLocked(shard, op, rec, now)
                : RunOpLocked(shard, op, now, /*park=*/nullptr);
    if (found && outcome != PromoteOutcome::kUseDram) {
      ++shard.counters.flash_hits;
      shard.counters.flash_penalty_saved_us +=
          static_cast<std::uint64_t>(rec.penalty_us);
    }
    op.executed = true;
  } catch (const std::bad_alloc&) {
    if (batch == nullptr) throw;
    FailOp(*batch, op);
  }
  DrainDemotions(shard, now);
  return found;
}

bool CacheService::ServeFromFlashLocked(Shard& shard, BatchOp& op,
                                        const flash::Record& rec,
                                        std::int64_t now) {
  flash::Slot* slot = flash_->FindMutable(shard.index, op.id);
  bool found = false;
  switch (op.verb) {
    case Verb::kGet:
    case Verb::kGets:
    case Verb::kGat:
    case Verb::kGats:
      if (slot != nullptr) {
        if (op.touch) {
          ApplyTouch(shard, op.id, op.key, *slot, /*in_dram=*/false,
                     op.exptime, now);
        }
        AppendValueBlock(op.out, op.key, slot->flags, rec.value, slot->cas,
                         op.with_cas);
        ++shard.counters.flash_direct_serves;
        found = true;
      }
      if (op.append_end) AppendLiteral(op.out, "END\r\n");
      break;
    case Verb::kIncr:
    case Verb::kDecr: {
      const bool increment = op.verb == Verb::kIncr;
      std::uint64_t& hits =
          increment ? shard.counters.incr_hits : shard.counters.decr_hits;
      std::uint64_t& misses =
          increment ? shard.counters.incr_misses : shard.counters.decr_misses;
      ArithmeticResult result{ArithmeticResult::Status::kNotFound, 0};
      std::uint64_t next = 0;
      if (slot == nullptr) {
        ++misses;
      } else if (!ApplyDelta(rec.value, op.delta, increment, &next)) {
        result.status = ArithmeticResult::Status::kNonNumeric;
      } else {
        // Promote-then-mutate with no DRAM seat: mutate the flash copy in
        // place — a fresh record under a fresh cas — atomically under this
        // lock. The client never sees NOT_FOUND for a value that exists.
        char buf[20];
        const auto conv = std::to_chars(buf, buf + sizeof buf, next);
        const std::string_view value(
            buf, static_cast<std::size_t>(conv.ptr - buf));
        const ItemMeta meta =
            shard.NewVersion(slot->flags, slot->expire_at_ns, now);
        if (AppendToFlash(shard, op.id, op.key, value, meta, slot->penalty,
                          slot->cls, slot->band)) {
          ++hits;
          ++shard.counters.flash_direct_serves;
          LogStore(shard, op.key, value, meta);
          result = ArithmeticResult{ArithmeticResult::Status::kOk, next};
          found = true;
        } else {
          // The mutated record could not be appended. Keeping the old
          // record would hand every retry the same stale value, so drop
          // it: the client sees NOT_FOUND, same as racing an eviction.
          GhostRoute(shard, op.id, *slot);
          flash_->EraseWithTombstone(shard.index, op.id, op.key);
          ++misses;
        }
      }
      if (!op.noreply) AppendArithmeticReply(op.out, result);
      break;
    }
    default:
      // append/prepend: no DRAM seat to concatenate in. Refuse, as
      // memcached refuses a concat on a missing item; the flash copy
      // stands unchanged. (No other verb parks.)
      if (!op.noreply) {
        AppendLiteral(op.out, StoreReplyText(StoreStatus::kNotStored));
      }
      break;
  }
  return found;
}

CacheService::FlashOutcome CacheService::GetFlashAware(
    std::string_view key, std::vector<char>& out, bool with_cas, bool touch,
    std::int64_t exptime_s, bool* hit, FlashPending* pending) {
  pending->armed = false;
  // Only a touch mutates; a deferred one has logged nothing yet.
  *hit = OnKey(key, /*commit=*/touch,
               [&](Shard& shard, KeyId id, std::int64_t now) {
                 const bool found = GetLocked(shard, id, key, out, with_cas,
                                              touch, exptime_s, now, pending);
                 if (pending->armed) TakeFlashTicket(shard, pending);
                 return found;
               });
  return pending->armed ? FlashOutcome::kDeferred : FlashOutcome::kDone;
}

CacheService::FlashOutcome CacheService::StoreFlashAware(
    StoreVerb verb, std::string_view key, std::uint32_t flags,
    std::int64_t exptime_s, std::string_view value, std::uint64_t cas_unique,
    StoreStatus* status, FlashPending* pending) {
  pending->armed = false;
  *status = Store(verb, key, flags, exptime_s, value, cas_unique);
  return FlashOutcome::kDone;
}

bool CacheService::CompleteFlashGet(const FlashPending& pending, bool read_ok,
                                    std::string_view payload,
                                    std::string_view key,
                                    std::vector<char>& out, bool with_cas,
                                    bool touch, std::int64_t exptime_s) {
  BatchOp op;
  op.verb = touch ? (with_cas ? Verb::kGats : Verb::kGat)
                  : (with_cas ? Verb::kGets : Verb::kGet);
  op.id = pending.id;
  op.shard = static_cast<std::uint32_t>(pending.shard);
  op.key.assign(key.data(), key.size());
  op.with_cas = with_cas;
  op.touch = touch;
  op.exptime = exptime_s;
  op.out.swap(out);
  const bool hit = Locked(*shards_[pending.shard], /*commit=*/true,
                          [&](Shard& shard, std::int64_t now) {
                            return FinishParkedLocked(shard, /*batch=*/nullptr,
                                                      op, pending, read_ok,
                                                      payload, now);
                          });
  op.out.swap(out);
  return hit;
}

ServiceTotals CacheService::Totals(bool series) const {
  // All shards share one factory, so shard 0's geometry is everyone's.
  const CacheEngine& proto = *shards_.front()->engine;
  const std::uint32_t bands = proto.num_subclasses();
  const bool pama = dynamic_cast<const PamaPolicy*>(&proto.policy()) != nullptr;
  ServiceTotals t;
  if (series) {
    t.slabs.assign(std::size_t{proto.classes().num_classes()} * bands, 0);
    t.subclass_items.assign(t.slabs.size(), 0);
    t.ghost_hits.assign(t.slabs.size(), 0);
    if (pama) {
      t.pama_flow.resize(shards_.size());
      t.pama_decisions.resize(shards_.size());
      t.pama_rotations.resize(shards_.size());
      t.migration_flow.assign(std::size_t{bands} * bands, 0);
    }
    if (flash_ != nullptr) t.flash_demotes.assign(bands, 0);
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const CacheEngine& e = *shard->engine;
    t.stats += e.stats();
    t.counters += shard->counters;
    t.items += e.item_count();
    t.collisions += shard->collisions;
    t.wheel_nodes += shard->expiry.size();
    t.free_slabs += e.pool().free_slabs();
    t.total_slabs += e.pool().total_slabs();
    for (std::size_t i = 0; i < t.slabs.size(); ++i) {
      const auto c = static_cast<ClassId>(i / bands);
      const auto b = static_cast<SubclassId>(i % bands);
      t.slabs[i] += e.pool().SlabCount(c, b);
      t.subclass_items[i] += e.SubclassItemCount(c, b);
      t.ghost_hits[i] += e.GhostHitCount(c, b);
    }
    const auto* policy = dynamic_cast<const PamaPolicy*>(&e.policy());
    if (!t.pama_flow.empty() && policy != nullptr) {
      t.pama_flow[shard->index] = policy->value_flow();
      t.pama_decisions[shard->index] = policy->decisions();
      t.pama_rotations[shard->index] = policy->rotations();
      for (std::size_t i = 0; i < t.migration_flow.size(); ++i) {
        t.migration_flow[i] +=
            policy->MigrationFlow(static_cast<SubclassId>(i / bands),
                                  static_cast<SubclassId>(i % bands));
      }
    }
    if (flash_ != nullptr) {
      const std::size_t s = shard->index;
      t.flash += flash_->shard_stats(s);
      t.flash_items += flash_->ItemCount(s);
      t.flash_bytes += flash_->TotalBytes(s);
      t.flash_live_bytes += flash_->LiveBytes(s);
      t.flash_segments += flash_->SegmentCount(s);
      t.demote_drops += shard->demote_drops;
      for (std::size_t b = 0; b < t.flash_demotes.size(); ++b) {
        t.flash_demotes[b] +=
            flash_->DemotesForBand(s, static_cast<SubclassId>(b));
      }
    }
  }
  return t;
}

namespace {

/// Every CacheStats and ServiceCounters counter under its memcached name,
/// in the order both `stats` and the pamakv_* series list them.
template <typename Emit>
void ForEachCounter(const ServiceTotals& t, Emit emit) {
  for (const StatEntry& stat : t.stats.Snapshot()) emit(stat.name, stat.value);
  for (const CounterField& field : kCounterFields) {
    emit(field.name, t.counters.*field.member);
  }
}

/// `{a="i"}` for each i < na or, with `b`, `{a="i",b="j"}` row-major
/// over i < na, j < nb.
std::vector<std::string> LabelGrid(const char* a, std::size_t na,
                                   const char* b = nullptr,
                                   std::size_t nb = 1) {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < na; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      std::string l = std::string("{") + a + "=\"" + std::to_string(i);
      if (b != nullptr) l += std::string("\",") + b + "=\"" + std::to_string(j);
      labels.push_back(l + "\"}");
    }
  }
  return labels;
}

/// The label sets of the service's series, fixed by its geometry.
struct SeriesLabels {
  std::vector<std::string> class_band;  ///< per (class, band)
  std::vector<std::string> band;
  std::vector<std::string> shard;
  std::vector<std::string> flow;        ///< per (from band, to band)
};

/// The service's pamakv_* series, rendered from one Totals(true).
void AppendSeries(const ServiceTotals& t, const SeriesLabels& labels,
                  util::MetricsSnapshot& snap) {
  const auto gauge = [&snap](const char* name, const std::string& l,
                             double value) { snap.AddGauge(name, l, value); };
  const std::string none;
  for (std::size_t i = 0; i < t.slabs.size(); ++i) {
    const std::string& l = labels.class_band[i];
    gauge("pamakv_slabs", l, static_cast<double>(t.slabs[i]));
    gauge("pamakv_subclass_items", l, static_cast<double>(t.subclass_items[i]));
    gauge("pamakv_ghost_hits", l, static_cast<double>(t.ghost_hits[i]));
  }
  gauge("pamakv_free_slabs", none, static_cast<double>(t.free_slabs));
  gauge("pamakv_total_slabs", none, static_cast<double>(t.total_slabs));
  gauge("pamakv_curr_items", none, static_cast<double>(t.items));
  ForEachCounter(t, [&snap](const char* name, std::uint64_t value) {
    snap.AddGauge(std::string("pamakv_") + name, "",
                  static_cast<double>(value));
  });
  gauge("pamakv_expiry_wheel_nodes", none, static_cast<double>(t.wheel_nodes));
  // Flash victim tier (flash_demotes has one entry per band when a tier is
  // attached): per-band demote counters, where the band-selectivity of
  // admission shows, plus occupancy gauges.
  for (std::size_t b = 0; b < t.flash_demotes.size(); ++b) {
    gauge("pamakv_flash_demotes", labels.band[b],
          static_cast<double>(t.flash_demotes[b]));
  }
  if (!t.flash_demotes.empty()) {
    gauge("pamakv_flash_items", none, static_cast<double>(t.flash_items));
    gauge("pamakv_flash_bytes", none, static_cast<double>(t.flash_bytes));
    gauge("pamakv_flash_live_bytes", none,
          static_cast<double>(t.flash_live_bytes));
    gauge("pamakv_flash_reads", none, static_cast<double>(t.flash.reads));
    gauge("pamakv_flash_cached_reads", none,
          static_cast<double>(t.flash.cached_reads));
    gauge("pamakv_flash_segments", none,
          static_cast<double>(t.flash_segments));
  }
  // PAMA value flow, decisions and window rotations. Per-shard series: the
  // sums are per-shard monotone and the last-comparison pair is only
  // meaningful per decision stream.
  for (std::size_t i = 0; i < t.pama_flow.size(); ++i) {
    const PamaPolicy::ValueFlow& f = t.pama_flow[i];
    const PamaPolicy::Decisions& d = t.pama_decisions[i];
    const std::string& l = labels.shard[i];
    gauge("pamakv_pama_decisions_total", l, static_cast<double>(f.decisions));
    gauge("pamakv_pama_outgoing_value_sum", l, f.outgoing_sum);
    gauge("pamakv_pama_incoming_value_sum", l, f.incoming_sum);
    gauge("pamakv_pama_migration_benefit_sum", l, f.migration_benefit_sum);
    gauge("pamakv_pama_last_outgoing_value", l, f.last_outgoing);
    gauge("pamakv_pama_last_incoming_value", l, f.last_incoming);
    gauge("pamakv_pama_migrations_total", l, static_cast<double>(d.migrations));
    gauge("pamakv_pama_intra_class_total", l,
          static_cast<double>(d.intra_class));
    gauge("pamakv_pama_self_evictions_total", l,
          static_cast<double>(d.self_evictions));
    gauge("pamakv_pama_suppressed_total", l, static_cast<double>(d.suppressed));
    gauge("pamakv_pama_refusals_total", l, static_cast<double>(d.refusals));
    gauge("pamakv_pama_window_rotations_total", l,
          static_cast<double>(t.pama_rotations[i]));
  }
  for (std::size_t i = 0; i < t.migration_flow.size(); ++i) {
    gauge("pamakv_pama_migration_flow_total", labels.flow[i],
          static_cast<double>(t.migration_flow[i]));
  }
}

}  // namespace

void CacheService::AppendStats(std::vector<char>& out, bool detail) const {
  const ServiceTotals t = Totals();
  ForEachCounter(t, [&out](const char* name, std::uint64_t value) {
    AppendStat(out, name, value);
  });
  AppendStat(out, "curr_items", t.items);
  AppendStat(out, "shards", shards_.size());
  AppendStat(out, "hash_collisions_resolved", t.collisions);
  AppendStat(out, "expiry_wheel_nodes", t.wheel_nodes);
  if (flash_ != nullptr) {
    AppendStat(out, "flash_items", t.flash_items);
    AppendStat(out, "flash_bytes", t.flash_bytes);
    AppendStat(out, "flash_live_bytes", t.flash_live_bytes);
    AppendStat(out, "flash_segments", t.flash_segments);
    AppendStat(out, "flash_demotes", t.flash.demotes);
    AppendStat(out, "flash_demote_drops", t.demote_drops);
    AppendStat(out, "flash_append_failures", t.flash.append_failures);
    AppendStat(out, "flash_reads", t.flash.reads);
    AppendStat(out, "flash_cached_reads", t.flash.cached_reads);
    AppendStat(out, "flash_sync_read_failures", t.flash.read_failures);
    AppendStat(out, "flash_gc_runs", t.flash.gc_runs);
    AppendStat(out, "flash_gc_rewrites", t.flash.gc_rewrites);
    AppendStat(out, "flash_gc_drops", t.flash.gc_drops);
    AppendStat(out, "flash_segments_created", t.flash.segments_created);
    AppendStat(out, "flash_segments_deleted", t.flash.segments_deleted);
    AppendStat(out, "flash_recovered_items", t.flash.recovered_items);
    AppendStat(out, "flash_corrupt_segments_dropped",
               t.flash.corrupt_segments_dropped);
  }
  if (sink_ != nullptr) sink_->AppendStats(out);
  {
    std::lock_guard<std::mutex> lock(extra_stats_mu_);
    if (extra_stats_) extra_stats_(out);
  }
  if (detail && metrics_ != nullptr) {
    // Same snapshot type the Prometheus endpoint renders — the two
    // surfaces cannot disagree on a value (net_server_test asserts it).
    metrics_->Snapshot().AppendStatLines(out);
  }
#if PAMAKV_FAILPOINTS
  // Injection-build only: how often each armed failpoint actually fired,
  // so a chaos run can check its storm happened (and operators can see
  // leftover armed points at a glance).
  for (const auto& [name, trips] : util::FailPoints::TripCounts()) {
    AppendStat(out, "failpoint." + name, trips);
  }
#endif
  AppendLiteral(out, "END\r\n");
}

void CacheService::SetExtraStats(
    std::function<void(std::vector<char>&)> appender) {
  std::lock_guard<std::mutex> lock(extra_stats_mu_);
  extra_stats_ = std::move(appender);
}

void CacheService::RegisterMetrics(util::MetricsRegistry& registry) {
  metrics_ = &registry;
  const CacheEngine& proto = *shards_.front()->engine;
  const std::size_t bands = proto.num_subclasses();
  SeriesLabels labels{
      LabelGrid("class", proto.classes().num_classes(), "band", bands),
      LabelGrid("band", bands), LabelGrid("shard", shards_.size()),
      LabelGrid("from_band", bands, "to_band", bands)};
  registry.SetCollector(
      "pamakv_service",
      [this, labels = std::move(labels)](util::MetricsSnapshot& snap) {
        AppendSeries(Totals(/*series=*/true), labels, snap);
      });
}

}  // namespace pamakv::net
