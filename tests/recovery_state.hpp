// Recovered-state pin: three crash directories, written by a seeded
// workload under a FakeClock, recovered into a fresh service the way the
// server starts (the flash tier attached, then Persister::Recover, whose
// restore of each shard replays that shard's segments), rendered as text
// and checked in as tests/golden/recovery_state.golden. Any change to what
// recovery keeps — an item's bytes, flags, CAS or times, LRU order within
// a (class, band), the slab layout, a ghost list, the flash index or a
// RecoveryReport counter — moves some line of it.
//
// Parts:
//   wal-flash      WAL only (no snapshot), more data than DRAM, with a
//                  flash tier: 2 shards, 1 MiB, 6,000 keys of 64-2,111 B,
//                  log-uniform penalties, overwrites and deletes, dropped
//                  without a snapshot (durable-flash's crash shape). At
//                  this size half the first stores find no slot and are
//                  refused, so the refusal path is pinned too.
//   snapshot-tail  a snapshot plus a WAL tail with overwrites, deletes,
//                  touches, a flush_all that elapsed before the snapshot,
//                  one still pending at restart, and TTLs that lapse
//                  during the downtime.
//   torn-tail      every shard's newest WAL ends in half a frame.
//
// Each part renders, in order: the RecoveryReport counters; per shard the
// EngineSnapshot, each (class, band) stack's key ids bottom to top and its
// ghost list oldest first, and the flash tier's counters; then per written
// key its flash slot and what `gets` returns (value as length + FNV-1a).
// The engine is dumped before any GET, because a GET reorders the LRU.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine_snapshot.hpp"
#include "pamakv/cache/string_keys.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/persist/format.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv::test {

inline constexpr std::int64_t kRecoveryNsPerS = 1'000'000'000;
inline constexpr std::int64_t kRecoveryUnixBase = 1'700'000'000;

/// Golden part names, in file order.
inline std::vector<std::string> RecoveryStateParts() {
  return {"wal-flash", "snapshot-tail", "torn-tail"};
}

class RecoveryDir {
 public:
  RecoveryDir() {
    char tmpl[] = "/tmp/pamakv-recstate-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = made;
  }
  ~RecoveryDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  RecoveryDir(const RecoveryDir&) = delete;
  RecoveryDir& operator=(const RecoveryDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// One server process's worth of state over `data` (and `flash` when not
/// empty), started the way server/main.cpp starts: the flash tier
/// attached, then persistence recovery. Members are declared tier ->
/// service -> persister, so each is destroyed before what it references;
/// destroying a node without SnapshotNow is a crash that lost nothing
/// acknowledged (the persister's destructor commits).
struct RecoveryNode {
  std::unique_ptr<flash::FlashTier> tier;
  std::unique_ptr<net::CacheService> service;
  std::unique_ptr<persist::Persister> persister;
  persist::RecoveryReport report;

  RecoveryNode(util::FakeClock& clock, const std::string& data,
               const std::string& flash_dir, std::size_t shards,
               Bytes capacity) {
    net::CacheServiceConfig cfg;
    cfg.shards = shards;
    cfg.capacity_bytes = capacity;
    cfg.clock = &clock;
    cfg.unix_now_s = clock.WallNowNs() / kRecoveryNsPerS;
    service = std::make_unique<net::CacheService>(cfg, [](Bytes bytes) {
      return MakeEngine("pama", bytes, SizeClassConfig{});
    });
    if (!flash_dir.empty()) {
      flash::FlashConfig fcfg;
      fcfg.dir = flash_dir;
      fcfg.shards = shards;
      fcfg.segment_bytes = 256 * 1024;
      fcfg.cap_bytes = 64 * 1024 * 1024;
      fcfg.io_thread = false;
      tier = std::make_unique<flash::FlashTier>(fcfg);
      service->AttachFlash(tier.get());
    }
    persist::PersistConfig pcfg;
    pcfg.data_dir = data;
    pcfg.fsync_mode = persist::FsyncMode::kNever;
    persister = std::make_unique<persist::Persister>(*service, pcfg);
    report = persister->Recover();
    service->SetPersistence(persister.get());
    service->RecoverFlash();
  }
};

inline std::string RecoveryKey(char prefix, std::uint64_t i) {
  return std::string(1, prefix) + ":" + std::to_string(i);
}

/// durable-flash's value lengths (64-2,111 B) and log-uniform penalties
/// (500 µs..4.6 s, every band).
inline std::size_t RecoveryValueLen(std::uint64_t i) {
  return 64 + static_cast<std::size_t>(Mix64(i) & 2047);
}

inline std::uint32_t RecoveryPenalty(std::uint64_t i) {
  const double unit =
      static_cast<double>(Mix64(i ^ 0x9e3779b97f4a7c15ULL) >> 11) /
      9007199254740992.0;
  return static_cast<std::uint32_t>(500.0 * std::pow(9210.0, unit));
}

/// Version `version` of key i's value: distinct bytes per version.
inline std::string RecoveryValue(std::uint64_t i, std::uint64_t version,
                                 std::size_t len) {
  std::string v(len, '\0');
  std::uint64_t s = Mix64(i * 131 + version);
  for (char& c : v) c = static_cast<char>('a' + SplitMix64(s) % 26);
  return v;
}

inline std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline void AppendF(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

inline void AppendF(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out.append(buf, static_cast<std::size_t>(std::min<int>(n, sizeof buf - 1)));
}

/// Everything recovery decided, before any request touches the service.
inline std::string RenderRecovered(const RecoveryNode& node) {
  std::string out;
  const persist::RecoveryReport& r = node.report;
  AppendF(out,
          "report snapshots_loaded=%zu snapshots_skipped=%zu "
          "wal_records_replayed=%" PRIu64 " wal_tails_truncated=%" PRIu64
          " items_recovered=%" PRIu64 " items_expired_on_boot=%" PRIu64 "\n",
          r.snapshots_loaded, r.snapshots_skipped, r.wal_records_replayed,
          r.wal_tails_truncated, r.items_recovered, r.items_expired_on_boot);
  const net::CacheService& service = *node.service;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const CacheEngine& engine = service.shard_engine(s);
    const EngineSnapshot snap = EngineSnapshot::Of(engine);
    AppendF(out, "shard %zu clock=%" PRIu64 " items=%zu\n", s,
            static_cast<std::uint64_t>(snap.clock), snap.item_count);
    for (const StatEntry& e : snap.stats.Snapshot()) {
      AppendF(out, " %s=%" PRIu64, e.name, e.value);
    }
    out += "\n";
    std::size_t i = 0;
    for (ClassId c = 0; c < engine.classes().num_classes(); ++c) {
      for (SubclassId b = 0; b < engine.num_subclasses(); ++b, ++i) {
        if (snap.slab_counts[i] == 0 && snap.stack_sizes[i] == 0 &&
            snap.ghost_sizes[i] == 0 && snap.ghost_hit_counts[i] == 0) {
          continue;
        }
        AppendF(out,
                "c%u b%u slabs=%zu slots=%zu items=%zu ghosts=%zu "
                "ghost_hits=%" PRIu64 "\n",
                static_cast<unsigned>(c), static_cast<unsigned>(b),
                snap.slab_counts[i], snap.slots_in_use[i], snap.stack_sizes[i],
                snap.ghost_sizes[i], snap.ghost_hit_counts[i]);
        out += " lru";
        for (LruStack::Node* n = engine.StackOf(c, b).Bottom(); n != nullptr;
             n = LruStack::TowardTop(n)) {
          AppendF(out, " %016" PRIx64, engine.ItemAt(n->value).key);
        }
        out += "\n ghosts";
        for (const GhostLists::Evicted& g :
             engine.ghosts().SnapshotOldestFirst(i)) {
          AppendF(out, " %016" PRIx64 ":%" PRId64, g.key,
                  static_cast<std::int64_t>(g.penalty));
        }
        out += "\n";
      }
    }
    if (node.tier != nullptr) {
      const flash::ShardStats& fs = node.tier->shard_stats(s);
      AppendF(out,
              "flash items=%zu recovered=%" PRIu64 " corrupt=%" PRIu64
              " segments=%zu bytes=%" PRIu64 " live=%" PRIu64 "\n",
              node.tier->ItemCount(s), fs.recovered_items,
              fs.corrupt_segments_dropped, node.tier->SegmentCount(s),
              node.tier->TotalBytes(s), node.tier->LiveBytes(s));
    }
  }
  return out;
}

/// One line per key: its flash slot, then what `gets` answers. Call after
/// RenderRecovered: the GETs reorder the LRU.
inline std::string RenderKeys(RecoveryNode& node,
                              const std::vector<std::string>& keys) {
  std::string out;
  std::vector<char> reply;
  for (const std::string& key : keys) {
    out += key;
    const KeyId id = HashStringKey(key);
    const std::size_t shard = node.service->ShardIndexForId(id);
    const flash::Slot* slot =
        node.tier != nullptr ? node.tier->Find(shard, id) : nullptr;
    if (slot != nullptr) {
      AppendF(out,
              " flash=%" PRIu64 "+%" PRIu64 "/%u cas=%" PRIu64
              " flags=%u len=%u exp=%" PRId64 " stored=%" PRId64
              " fseq=%" PRIu64 " c%u b%u",
              slot->seg, slot->offset, slot->frame_len, slot->cas, slot->flags,
              slot->value_size, slot->expire_at_ns, slot->stored_at_ns,
              slot->flush_seq, static_cast<unsigned>(slot->cls),
              static_cast<unsigned>(slot->band));
    }
    reply.clear();
    if (!node.service->Get(key, reply, /*with_cas=*/true)) {
      out += " miss\n";
      continue;
    }
    // "VALUE <key> <flags> <bytes> <cas>\r\n<data>\r\n"
    const std::string_view wire(reply.data(), reply.size());
    const std::size_t eol = wire.find("\r\n");
    const std::size_t fields = 6 + key.size() + 1;
    const std::string_view header = wire.substr(fields, eol - fields);
    const std::string_view data =
        wire.substr(eol + 2, wire.size() - eol - 2 - 2);
    AppendF(out, " gets=%.*s fnv=%016" PRIx64 "\n",
            static_cast<int>(header.size()), header.data(), Fnv1a(data));
  }
  return out;
}

/// Newest WAL generation of `shard` in `dir`.
inline std::string NewestWalPath(const std::string& dir, std::size_t shard) {
  std::string best;
  std::uint64_t best_gen = 0;
  for (const auto& ent : std::filesystem::directory_iterator(dir)) {
    persist::DataFileName parsed;
    if (!persist::ParseDataFileName(ent.path().filename().string(), &parsed) ||
        parsed.kind != persist::DataFileName::Kind::kWal ||
        parsed.shard != shard) {
      continue;
    }
    if (best.empty() || parsed.number > best_gen) {
      best = ent.path().string();
      best_gen = parsed.number;
    }
  }
  return best;
}

inline std::string RecordWalFlash() {
  const RecoveryDir data;
  const RecoveryDir flash_dir;
  util::FakeClock clock;
  clock.SetWallBase(kRecoveryUnixBase * kRecoveryNsPerS);
  constexpr std::uint64_t kKeys = 6'000;
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < kKeys; ++i) keys.push_back(RecoveryKey('f', i));
  {
    RecoveryNode node(clock, data.path(), flash_dir.path(), 2, 1 << 20);
    net::CacheService& svc = *node.service;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      svc.Store(net::StoreVerb::kSet, keys[i], RecoveryPenalty(i), 0,
                RecoveryValue(i, 0, RecoveryValueLen(i)));
      clock.Advance(std::chrono::milliseconds(1));
    }
    // Overwrites (some now on flash, some still in DRAM) and deletes,
    // including deletes of overwritten keys and re-stores of deleted ones.
    for (std::uint64_t i = 0; i < kKeys; i += 7) {
      svc.Store(net::StoreVerb::kSet, keys[i], RecoveryPenalty(i), 0,
                RecoveryValue(i, 1, RecoveryValueLen(i + 1)));
      clock.Advance(std::chrono::milliseconds(1));
    }
    for (std::uint64_t i = 0; i < kKeys; i += 13) {
      svc.Del(keys[i]);
      clock.Advance(std::chrono::milliseconds(1));
    }
    for (std::uint64_t i = 0; i < kKeys; i += 91) {
      svc.Store(net::StoreVerb::kSet, keys[i], RecoveryPenalty(i), 0,
                RecoveryValue(i, 2, RecoveryValueLen(i + 2)));
      clock.Advance(std::chrono::milliseconds(1));
    }
  }
  clock.Advance(std::chrono::seconds(30));
  RecoveryNode warm(clock, data.path(), flash_dir.path(), 2, 1 << 20);
  std::string out = RenderRecovered(warm);
  out += RenderKeys(warm, keys);
  return out;
}

inline std::string RecordSnapshotTail() {
  const RecoveryDir data;
  util::FakeClock clock;
  clock.SetWallBase(kRecoveryUnixBase * kRecoveryNsPerS);
  constexpr std::uint64_t kKeys = 3'000;
  constexpr Bytes kCapacity = 2 << 20;
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < kKeys; ++i) keys.push_back(RecoveryKey('s', i));
  // TTLs: 60 s lapses in the 120 s downtime, 3,600 s does not.
  const auto exptime = [](std::uint64_t i) -> std::int64_t {
    return i % 5 == 0 ? 60 : i % 5 == 1 ? 3'600 : 0;
  };
  {
    RecoveryNode node(clock, data.path(), "", 2, kCapacity);
    net::CacheService& svc = *node.service;
    const auto store = [&](std::uint64_t i, std::uint64_t version) {
      svc.Store(net::StoreVerb::kSet, keys[i], RecoveryPenalty(i), exptime(i),
                RecoveryValue(i, version, RecoveryValueLen(i + version)));
      clock.Advance(std::chrono::milliseconds(1));
    };
    // Keys 0..299 die in a flush that elapses before the snapshot.
    for (std::uint64_t i = 0; i < 300; ++i) store(i, 0);
    svc.FlushAll(0);
    clock.Advance(std::chrono::seconds(1));
    // 1.7x DRAM: evictions fill the ghost lists the snapshot carries.
    for (std::uint64_t i = 300; i < 2'000; ++i) store(i, 0);
    for (std::uint64_t i = 300; i < 2'000; i += 3) {
      std::vector<char> reply;
      (void)svc.Get(keys[i], reply, false);
    }
    if (!node.persister->SnapshotNow()) {
      throw std::runtime_error("snapshot failed");
    }
    // The WAL tail.
    for (std::uint64_t i = 300; i < 2'000; i += 4) store(i, 1);
    for (std::uint64_t i = 301; i < 2'000; i += 11) svc.Del(keys[i]);
    for (std::uint64_t i = 302; i < 2'000; i += 17) {
      (void)svc.Touch(keys[i], i % 2 == 0 ? 30 : 7'200);
      clock.Advance(std::chrono::milliseconds(1));
    }
    for (std::uint64_t i = 2'000; i < kKeys; ++i) store(i, 0);
    for (std::uint64_t i = 301; i < kKeys; i += 23) store(i, 2);
    // Pending at restart: a day away.
    svc.FlushAll(86'400);
    clock.Advance(std::chrono::seconds(1));
    for (std::uint64_t i = 2'500; i < kKeys; i += 5) store(i, 3);
  }
  clock.Advance(std::chrono::seconds(120));
  RecoveryNode warm(clock, data.path(), "", 2, kCapacity);
  std::string out = RenderRecovered(warm);
  out += RenderKeys(warm, keys);
  return out;
}

inline std::string RecordTornTail() {
  const RecoveryDir data;
  util::FakeClock clock;
  clock.SetWallBase(kRecoveryUnixBase * kRecoveryNsPerS);
  constexpr std::uint64_t kKeys = 800;
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < kKeys; ++i) keys.push_back(RecoveryKey('t', i));
  {
    RecoveryNode node(clock, data.path(), "", 2, 1 << 20);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      node.service->Store(net::StoreVerb::kSet, keys[i], RecoveryPenalty(i),
                          0, RecoveryValue(i, 0, RecoveryValueLen(i)));
      clock.Advance(std::chrono::milliseconds(1));
    }
  }
  // A crash mid-append: half a frame at the end of each newest log.
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const std::string wal = NewestWalPath(data.path(), shard);
    if (wal.empty()) throw std::runtime_error("no WAL for shard");
    std::vector<char> torn;
    persist::AppendFrame(torn, "half of this frame never reached the disk");
    std::ofstream f(wal, std::ios::binary | std::ios::app);
    f.write(torn.data(), static_cast<std::streamsize>(torn.size() / 2));
  }
  clock.Advance(std::chrono::seconds(5));
  RecoveryNode warm(clock, data.path(), "", 2, 1 << 20);
  std::string out = RenderRecovered(warm);
  out += RenderKeys(warm, keys);
  return out;
}

/// Runs the crash and recovery named by `part` and renders the result.
inline std::string RecordRecoveryState(const std::string& part) {
  if (part == "wal-flash") return RecordWalFlash();
  if (part == "snapshot-tail") return RecordSnapshotTail();
  if (part == "torn-tail") return RecordTornTail();
  throw std::invalid_argument("unknown recovery part " + part);
}

}  // namespace pamakv::test
