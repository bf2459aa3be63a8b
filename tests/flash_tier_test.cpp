// Tier-level tests for flash/: record codec, segment lifecycle, value-based
// GC, recovery replay, and the seeded corruption corpus over segment files.
//
// Everything here drives FlashTier directly (no CacheService); the
// service-level integration lives in flash_service_test.cpp.

#include "pamakv/flash/flash_tier.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "flash_pages.hpp"
#include "pamakv/cache/string_keys.hpp"
#include "pamakv/persist/format.hpp"

namespace pamakv::flash {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pamakv-flash-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp/pamakv-flash-fallback";
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string Key(int i) { return "flash-key-" + std::to_string(i); }

std::string Value(int i) {
  std::string v = "value-" + std::to_string(i) + "-";
  v.append(static_cast<std::size_t>(40 + (i % 5) * 17), 'x');
  return v;
}

FlashConfig SyncConfig(const std::string& dir) {
  FlashConfig cfg;
  cfg.dir = dir;
  cfg.shards = 1;
  cfg.io_thread = false;
  return cfg;
}

FlashTier::DemoteMeta Meta(const std::string& key, const std::string& value,
                           int i, SubclassId band = 0) {
  FlashTier::DemoteMeta meta;
  meta.key = key;
  meta.value = value;
  meta.flags = static_cast<std::uint32_t>(0xF000 + i);
  meta.cas = static_cast<std::uint64_t>(100 + i);
  meta.penalty = 500 + (i % 7) * 1500;
  meta.cls = static_cast<ClassId>(i % 3);
  meta.band = band;
  meta.expire_at_ns = 0;
  meta.stored_at_ns = 1'000 + i;
  meta.flush_seq = 0;
  return meta;
}

/// Appends via the tier and returns the id it was indexed under.
KeyId Put(FlashTier& tier, const std::string& key, const std::string& value,
          int i, SubclassId band = 0) {
  const KeyId id = HashStringKey(key);
  EXPECT_TRUE(tier.AppendItem(0, id, Meta(key, value, i, band)));
  return id;
}

/// Reads the live record for `id` back through ticket + ReadNow.
bool ReadBack(FlashTier& tier, KeyId id, Record* rec, std::string* payload) {
  const Slot* slot = tier.Find(0, id);
  if (slot == nullptr) return false;
  ReadTicket ticket = tier.MakeTicket(0, *slot);
  if (!tier.ReadNow(0, ticket, payload)) return false;
  return FlashTier::DecodeRecord(*payload, rec);
}

bool AdmitAll(KeyId, const Record&, Slot*) { return true; }

// ---- record codec ----

TEST(FlashCodec, ItemRoundTrip) {
  Record in;
  in.key = "the-key";
  in.value = "the-value-bytes";
  in.flags = 0xDEADBEEF;
  in.cas = 42;
  in.penalty_us = 12'345;
  in.expire_at_ns = 1'700'000'000'000'000'000;
  in.stored_at_ns = 1'600'000'000'000'000'000;
  in.flush_seq = 9;
  in.cls = 5;
  in.band = 3;

  std::vector<char> payload;
  FlashTier::EncodeItemRecord(payload, in);
  Record out;
  ASSERT_TRUE(
      FlashTier::DecodeRecord({payload.data(), payload.size()}, &out));
  EXPECT_FALSE(out.tombstone);
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.value, in.value);
  EXPECT_EQ(out.flags, in.flags);
  EXPECT_EQ(out.cas, in.cas);
  EXPECT_EQ(out.penalty_us, in.penalty_us);
  EXPECT_EQ(out.expire_at_ns, in.expire_at_ns);
  EXPECT_EQ(out.stored_at_ns, in.stored_at_ns);
  EXPECT_EQ(out.flush_seq, in.flush_seq);
  EXPECT_EQ(out.cls, in.cls);
  EXPECT_EQ(out.band, in.band);
}

TEST(FlashCodec, TombstoneRoundTrip) {
  std::vector<char> payload;
  FlashTier::EncodeTombRecord(payload, "gone-key", 77);
  Record out;
  ASSERT_TRUE(
      FlashTier::DecodeRecord({payload.data(), payload.size()}, &out));
  EXPECT_TRUE(out.tombstone);
  EXPECT_EQ(out.key, "gone-key");
  EXPECT_EQ(out.cas, 77u);
}

TEST(FlashCodec, RejectsGarbage) {
  Record out;
  EXPECT_FALSE(FlashTier::DecodeRecord("", &out));
  EXPECT_FALSE(FlashTier::DecodeRecord("\xFFnot-a-record", &out));
  // Truncated item record: valid tag, missing fields.
  std::vector<char> payload;
  Record in;
  in.key = "k";
  in.value = "v";
  FlashTier::EncodeItemRecord(payload, in);
  EXPECT_FALSE(FlashTier::DecodeRecord(
      {payload.data(), payload.size() - 3}, &out));
  // Trailing junk after a complete record must also fail (AtEnd check).
  payload.push_back('!');
  EXPECT_FALSE(
      FlashTier::DecodeRecord({payload.data(), payload.size()}, &out));
}

TEST(FlashCodec, SegmentFileNames) {
  EXPECT_EQ(FlashTier::SegmentFileName(3, 7), "shard03-seg000007.flog");
  std::size_t shard = 99;
  std::uint64_t seg = 99;
  ASSERT_TRUE(
      FlashTier::ParseSegmentFileName("shard03-seg000007.flog", &shard, &seg));
  EXPECT_EQ(shard, 3u);
  EXPECT_EQ(seg, 7u);
  EXPECT_FALSE(FlashTier::ParseSegmentFileName("shard0-1.snap", &shard, &seg));
  EXPECT_FALSE(
      FlashTier::ParseSegmentFileName("shard03-seg000007.flog~", &shard, &seg));
  EXPECT_FALSE(FlashTier::ParseSegmentFileName("random.txt", &shard, &seg));
  EXPECT_FALSE(FlashTier::ParseSegmentFileName("", &shard, &seg));
}

// ---- append / find / read ----

TEST(FlashTierTest, AppendFindReadBack) {
  TempDir dir;
  FlashTier tier(SyncConfig(dir.path()));
  const KeyId id = Put(tier, Key(1), Value(1), 1, /*band=*/2);

  const Slot* slot = tier.Find(0, id);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->value_size, Value(1).size());
  EXPECT_EQ(slot->flags, 0xF000u + 1);
  EXPECT_EQ(slot->cas, 101u);
  EXPECT_EQ(slot->band, 2u);

  Record rec;
  std::string payload;
  ASSERT_TRUE(ReadBack(tier, id, &rec, &payload));
  EXPECT_EQ(rec.key, Key(1));
  EXPECT_EQ(rec.value, Value(1));
  EXPECT_EQ(rec.cas, 101u);

  EXPECT_EQ(tier.ItemCount(0), 1u);
  EXPECT_EQ(tier.shard_stats(0).demotes, 1u);
  EXPECT_EQ(tier.shard_stats(0).reads, 1u);
  EXPECT_EQ(tier.DemotesForBand(0, 2), 1u);
  EXPECT_EQ(tier.DemotesForBand(0, 0), 0u);
  EXPECT_GE(tier.MaxBandSeen(0), 3u);
}

// ---- inline reads ----

TEST(FlashTierTest, ReadCachedServesResidentFrames) {
  TempDir dir;
  KeyId id = 0;
  {
    FlashTier tier(SyncConfig(dir.path()));
    id = Put(tier, Key(1), Value(1), 1);
    std::string_view payload;
    ASSERT_TRUE(tier.ReadCached(0, *tier.Find(0, id), &payload));
    Record rec;
    ASSERT_TRUE(FlashTier::DecodeRecord(payload, &rec));
    EXPECT_EQ(rec.value, Value(1));
    EXPECT_EQ(tier.shard_stats(0).cached_reads, 1u);
  }
  // A recovered segment is read inline too: recovery read its pages.
  FlashTier warm(SyncConfig(dir.path()));
  warm.Recover(0, AdmitAll);
  std::string_view payload;
  ASSERT_TRUE(warm.ReadCached(0, *warm.Find(0, id), &payload));
  Record rec;
  ASSERT_TRUE(FlashTier::DecodeRecord(payload, &rec));
  EXPECT_EQ(rec.value, Value(1));
}

TEST(FlashTierTest, ReadCachedNeverStartsDeviceIo) {
  TempDir dir;
  FlashTier tier(SyncConfig(dir.path()));
  const KeyId id = Put(tier, Key(1), Value(1), 1);
  if (!test::DropSegmentPages(dir.path())) {
    GTEST_SKIP() << "dropped segment pages stayed cached on "
                 << test::FilesystemOf(dir.path());
  }
  std::string_view payload;
  EXPECT_FALSE(tier.ReadCached(0, *tier.Find(0, id), &payload));
  EXPECT_EQ(tier.shard_stats(0).reads, 0u);
  // A read the call had started would have landed in the page cache by
  // now.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::string segment =
      dir.path() + "/" + FlashTier::SegmentFileName(0, 0);
  const int fd = ::open(segment.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(test::NoPagesCached(fd));
  ::close(fd);
}

TEST(FlashTierTest, SegmentsSealAndRoll) {
  TempDir dir;
  FlashConfig cfg = SyncConfig(dir.path());
  cfg.segment_bytes = 256;  // a handful of records per file
  FlashTier tier(cfg);
  for (int i = 0; i < 16; ++i) Put(tier, Key(i), Value(i), i);
  EXPECT_GT(tier.SegmentCount(0), 2u);
  EXPECT_EQ(tier.shard_stats(0).segments_created, tier.SegmentCount(0));
  EXPECT_EQ(tier.ItemCount(0), 16u);
  // Every record is still reachable after its segment sealed.
  for (int i = 0; i < 16; ++i) {
    Record rec;
    std::string payload;
    ASSERT_TRUE(ReadBack(tier, HashStringKey(Key(i)), &rec, &payload)) << i;
    EXPECT_EQ(rec.value, Value(i));
  }
}

TEST(FlashTierTest, OversizedRecordRefused) {
  TempDir dir;
  FlashConfig cfg = SyncConfig(dir.path());
  cfg.segment_bytes = 128;
  FlashTier tier(cfg);
  const std::string big(4096, 'z');
  const std::string key = Key(0);
  FlashTier::DemoteMeta meta = Meta(key, big, 0);
  EXPECT_FALSE(tier.AppendItem(0, HashStringKey(Key(0)), meta));
  EXPECT_EQ(tier.ItemCount(0), 0u);
  EXPECT_EQ(tier.shard_stats(0).append_failures, 1u);
}

// ---- recovery replay ----

TEST(FlashTierTest, RecoverReplaysLogOrderNewestWins) {
  TempDir dir;
  {
    FlashTier tier(SyncConfig(dir.path()));
    Put(tier, Key(1), "old-value", 1);
    Put(tier, Key(2), Value(2), 2);
    // Same key appended again: replay must keep the later record.
    const std::string rewrite_key = Key(1);
    const std::string rewrite_value = "new-value";
    FlashTier::DemoteMeta meta = Meta(rewrite_key, rewrite_value, 1);
    meta.cas = 999;
    ASSERT_TRUE(tier.AppendItem(0, HashStringKey(Key(1)), meta));
  }
  FlashTier tier(SyncConfig(dir.path()));
  tier.Recover(0, AdmitAll);
  EXPECT_EQ(tier.shard_stats(0).recovered_items, 3u);
  EXPECT_EQ(tier.ItemCount(0), 2u);
  const Slot* slot = tier.Find(0, HashStringKey(Key(1)));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->cas, 999u);
  Record rec;
  std::string payload;
  ASSERT_TRUE(ReadBack(tier, HashStringKey(Key(1)), &rec, &payload));
  EXPECT_EQ(rec.value, "new-value");
}

TEST(FlashTierTest, TombstoneBlocksResurrectionPlainEraseDoesNot) {
  TempDir dir;
  {
    FlashTier tier(SyncConfig(dir.path()));
    const KeyId promoted = Put(tier, Key(1), Value(1), 1);
    const KeyId deleted = Put(tier, Key(2), Value(2), 2);
    // Promotion back to DRAM: no tombstone — the service's admit callback
    // (cas comparison) is what keeps the DRAM copy authoritative.
    tier.Erase(0, promoted);
    // Delete: tombstone, so replay can never resurrect.
    tier.EraseWithTombstone(0, deleted, Key(2));
    EXPECT_EQ(tier.ItemCount(0), 0u);
  }
  FlashTier tier(SyncConfig(dir.path()));
  tier.Recover(0, AdmitAll);
  EXPECT_NE(tier.Find(0, HashStringKey(Key(1))), nullptr);
  EXPECT_EQ(tier.Find(0, HashStringKey(Key(2))), nullptr);
}

TEST(FlashTierTest, RecoverAdmitCallbackFilters) {
  TempDir dir;
  {
    FlashTier tier(SyncConfig(dir.path()));
    for (int i = 0; i < 6; ++i) Put(tier, Key(i), Value(i), i);
  }
  FlashTier tier(SyncConfig(dir.path()));
  const KeyId reject = HashStringKey(Key(3));
  tier.Recover(0, [reject](KeyId id, const Record&, Slot* slot) {
    slot->stored_at_ns = 42;  // admit may still edit the slot
    return id != reject;
  });
  EXPECT_EQ(tier.ItemCount(0), 5u);
  EXPECT_EQ(tier.Find(0, reject), nullptr);
  const Slot* slot = tier.Find(0, HashStringKey(Key(0)));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->stored_at_ns, 42);
}

TEST(FlashTierTest, RecoverFillsEachSlotsHeaderFromItsRecord) {
  TempDir dir;
  std::vector<ItemMeta> headers;
  {
    FlashTier tier(SyncConfig(dir.path()));
    for (int i = 0; i < 4; ++i) {
      const std::string key = Key(i);
      const std::string value = Value(i);
      FlashTier::DemoteMeta meta = Meta(key, value, i);
      meta.expire_at_ns = i == 0 ? 0 : 1'700'000'000'000'000'000 + i;
      meta.flush_seq = 3 + i;
      ASSERT_TRUE(tier.AppendItem(0, HashStringKey(key), meta));
      headers.push_back(meta.header());
    }
  }
  FlashTier tier(SyncConfig(dir.path()));
  tier.Recover(0, AdmitAll);
  for (int i = 0; i < 4; ++i) {
    const Slot* slot = tier.Find(0, HashStringKey(Key(i)));
    ASSERT_NE(slot, nullptr);
    const ItemMeta& want = headers[i];
    EXPECT_EQ(slot->flags, want.flags);
    EXPECT_EQ(slot->cas, want.cas);
    EXPECT_EQ(slot->expire_at_ns, want.expire_at_ns);
    EXPECT_EQ(slot->stored_at_ns, want.stored_at_ns);
    EXPECT_EQ(slot->flush_seq, want.flush_seq);
  }
}

// ---- GC ----

// Two admission floors: 1.0 sits between the bands, so the low band is
// below it; 0 (the server default) admits both, so an all-live victim frees
// space only by dropping the records that no longer fit under the cap.
void GcPicksLowValueSegments(double admit_min_value) {
  TempDir dir;
  FlashConfig cfg = SyncConfig(dir.path());
  cfg.segment_bytes = 512;
  cfg.cap_bytes = 1536;
  cfg.admit_min_value = admit_min_value;
  FlashTier tier(cfg);

  // Low-value band 0 first (fills the oldest segments), then high-value
  // band 1: GC must collect the band-0 segments and keep band 1.
  std::vector<KeyId> low, high;
  int n = 0;
  while (tier.TotalBytes(0) < cfg.cap_bytes / 2) {
    low.push_back(Put(tier, Key(n), Value(n), n, /*band=*/0));
    ++n;
  }
  while (tier.TotalBytes(0) <= cfg.cap_bytes + cfg.segment_bytes) {
    high.push_back(Put(tier, Key(n), Value(n), n, /*band=*/1));
    ++n;
  }
  ASSERT_GT(tier.TotalBytes(0), tier.shard_cap_bytes());

  std::vector<KeyId> dropped;
  tier.MaybeGc(
      0, /*now_ns=*/0,
      [](ClassId, SubclassId band) { return band == 0 ? 0.1 : 5.0; },
      [&dropped](KeyId id, const Slot&) { dropped.push_back(id); });

  EXPECT_LE(tier.TotalBytes(0), tier.shard_cap_bytes());
  EXPECT_GT(tier.shard_stats(0).gc_runs, 0u);
  EXPECT_GT(tier.shard_stats(0).gc_drops, 0u);
  EXPECT_GT(tier.shard_stats(0).segments_deleted, 0u);
  // Every drop was ghost-routed, and drops came from the low-value band.
  EXPECT_EQ(dropped.size(), tier.shard_stats(0).gc_drops);
  for (const KeyId id : dropped) {
    EXPECT_NE(std::find(low.begin(), low.end(), id), low.end());
  }
  // High-value records survived (rewritten forward where needed) and are
  // still served with their original bytes.
  std::size_t high_alive = 0;
  for (std::size_t i = 0; i < high.size(); ++i) {
    Record rec;
    std::string payload;
    if (ReadBack(tier, high[i], &rec, &payload)) {
      ++high_alive;
      EXPECT_EQ(rec.value,
                Value(static_cast<int>(low.size() + i)));
    }
  }
  EXPECT_EQ(high_alive, high.size());
}

TEST(FlashTierTest, GcPicksLowValueSegmentsAndGhostsDrops) {
  for (const double admit_min_value : {1.0, 0.0}) {
    SCOPED_TRACE("admit_min_value " + std::to_string(admit_min_value));
    GcPicksLowValueSegments(admit_min_value);
  }
}

TEST(FlashTierTest, GcDropsExpiredRecords) {
  TempDir dir;
  FlashConfig cfg = SyncConfig(dir.path());
  cfg.segment_bytes = 512;
  // Over cap with both records, with room for the survivor: one GC pass
  // collects the shared segment.
  cfg.cap_bytes = 256;
  FlashTier tier(cfg);

  const std::string exp_key = Key(1);
  const std::string exp_value = Value(1);
  FlashTier::DemoteMeta expired = Meta(exp_key, exp_value, 1);
  expired.expire_at_ns = 500;
  ASSERT_TRUE(tier.AppendItem(0, HashStringKey(Key(1)), expired));
  Put(tier, Key(2), Value(2), 2);

  std::vector<KeyId> dropped;
  tier.MaybeGc(
      0, /*now_ns=*/1'000, [](ClassId, SubclassId) { return 10.0; },
      [&dropped](KeyId id, const Slot&) { dropped.push_back(id); });

  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], HashStringKey(Key(1)));
  EXPECT_EQ(tier.Find(0, HashStringKey(Key(1))), nullptr);
  // The live record survived the rewrite and still reads back.
  Record rec;
  std::string payload;
  ASSERT_TRUE(ReadBack(tier, HashStringKey(Key(2)), &rec, &payload));
  EXPECT_EQ(rec.value, Value(2));
}

TEST(FlashTierTest, GcTombstonesDropsAgainstReplay) {
  TempDir dir;
  FlashConfig cfg = SyncConfig(dir.path());
  cfg.segment_bytes = 4096;
  cfg.cap_bytes = 1;
  cfg.admit_min_value = 1.0;
  FlashTier tier(cfg);
  const KeyId id = Put(tier, Key(1), Value(1), 1);
  // Below the admission floor: GC drops it and must tombstone the drop so
  // a restart cannot resurrect it from the (not yet deleted) open segment.
  tier.MaybeGc(0, 0, [](ClassId, SubclassId) { return 0.0; }, nullptr);
  EXPECT_EQ(tier.Find(0, id), nullptr);

  FlashTier fresh(SyncConfig(dir.path()));
  fresh.Recover(0, AdmitAll);
  EXPECT_EQ(fresh.Find(0, id), nullptr);
}

// ---- async IO ----

TEST(FlashTierTest, AsyncReadCompletesOnIoThreadAndAfterStop) {
  TempDir dir;
  FlashConfig cfg;
  cfg.dir = dir.path();
  cfg.shards = 1;
  cfg.io_thread = true;
  FlashTier tier(cfg);
  const KeyId id = Put(tier, Key(1), Value(1), 1);
  tier.StartIo();

  std::mutex mu;
  std::condition_variable cv;
  bool done = false, ok = false;
  std::string payload;
  {
    const Slot* slot = tier.Find(0, id);
    ASSERT_NE(slot, nullptr);
    tier.SubmitRead(0, tier.MakeTicket(0, *slot), nullptr,
                    [&](bool read_ok, std::string p) {
                      std::lock_guard<std::mutex> lock(mu);
                      ok = read_ok;
                      payload = std::move(p);
                      done = true;
                      cv.notify_one();
                    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return done; }));
  }
  ASSERT_TRUE(ok);
  Record rec;
  ASSERT_TRUE(FlashTier::DecodeRecord(payload, &rec));
  EXPECT_EQ(rec.value, Value(1));

  // Poster wraps the callback: completion runs only when the poster runs
  // the thunk (models the owner event loop).
  std::function<void()> posted;
  std::mutex post_mu;
  std::condition_variable post_cv;
  bool fired = false;
  {
    const Slot* slot = tier.Find(0, id);
    ASSERT_NE(slot, nullptr);
    tier.SubmitRead(
        0, tier.MakeTicket(0, *slot),
        [&](std::function<void()> fn) {
          std::lock_guard<std::mutex> lock(post_mu);
          posted = std::move(fn);
          post_cv.notify_one();
        },
        [&](bool read_ok, std::string) { fired = read_ok; });
  }
  {
    std::unique_lock<std::mutex> lock(post_mu);
    ASSERT_TRUE(post_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return posted != nullptr; }));
  }
  EXPECT_FALSE(fired);
  posted();
  EXPECT_TRUE(fired);

  // After StopIo, reads complete synchronously on the caller thread.
  tier.StopIo();
  bool sync_done = false;
  const Slot* slot = tier.Find(0, id);
  ASSERT_NE(slot, nullptr);
  tier.SubmitRead(0, tier.MakeTicket(0, *slot), nullptr,
                  [&](bool read_ok, std::string) { sync_done = read_ok; });
  EXPECT_TRUE(sync_done);
}

// ---- corruption ----

TEST(FlashTierTest, CorruptSegmentDroppedWholesaleOthersServed) {
  TempDir dir;
  FlashConfig cfg = SyncConfig(dir.path());
  cfg.segment_bytes = 256;
  std::size_t n_segments = 0;
  {
    FlashTier tier(cfg);
    for (int i = 0; i < 16; ++i) Put(tier, Key(i), Value(i), i);
    n_segments = tier.SegmentCount(0);
    ASSERT_GT(n_segments, 2u);
  }
  // Flip one byte in the middle of the first segment file.
  const std::string victim =
      dir.path() + "/" + FlashTier::SegmentFileName(0, 0);
  {
    std::fstream f(victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    ASSERT_GT(size, 8);
    f.seekg(size / 2);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  FlashTier tier(cfg);
  tier.Recover(0, AdmitAll);
  EXPECT_EQ(tier.shard_stats(0).corrupt_segments_dropped, 1u);
  EXPECT_EQ(tier.SegmentCount(0), n_segments - 1);
  EXPECT_FALSE(fs::exists(victim));  // never served, unlinked on sight
  // Every key the index still holds serves its exact original bytes.
  std::size_t alive = 0;
  for (int i = 0; i < 16; ++i) {
    Record rec;
    std::string payload;
    if (ReadBack(tier, HashStringKey(Key(i)), &rec, &payload)) {
      EXPECT_EQ(rec.value, Value(i)) << i;
      ++alive;
    }
  }
  EXPECT_GT(alive, 0u);
  EXPECT_LT(alive, 16u);  // the dropped segment's keys are gone
}

/// Seeded corruption corpus over segment files (mirrors the persist
/// corpus; PAMAKV_CORPUS_SEED overrides the seed for CI sweeps). The
/// invariant is the tentpole's: a corrupt segment is dropped, never
/// served — every key a recovered tier answers must carry its exact
/// original bytes, whatever the mutation did.
TEST(FlashTierTest, SeededCorruptionCorpus) {
  std::uint64_t seed = 0xC0FFEE;
  if (const char* env = std::getenv("PAMAKV_CORPUS_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  }
  std::mt19937_64 rng(seed);
  constexpr int kTrials = 24;
  constexpr int kKeys = 12;
  int dropped_segments = 0;

  for (int trial = 0; trial < kTrials; ++trial) {
    TempDir dir;
    FlashConfig cfg = SyncConfig(dir.path());
    cfg.segment_bytes = 256;
    {
      FlashTier tier(cfg);
      for (int i = 0; i < kKeys; ++i) Put(tier, Key(i), Value(i), i);
    }
    // Pick one segment file and mutate it.
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      files.push_back(entry.path().string());
    }
    ASSERT_FALSE(files.empty());
    std::sort(files.begin(), files.end());
    const std::string& target =
        files[rng() % files.size()];
    std::string data;
    {
      std::ifstream in(target, std::ios::binary);
      data.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(data.empty());
    switch (trial % 3) {
      case 0: {  // single bit flip
        const std::size_t pos = rng() % data.size();
        data[pos] = static_cast<char>(data[pos] ^ (1u << (rng() % 8)));
        break;
      }
      case 1: {  // truncate
        data.resize(rng() % data.size());
        break;
      }
      default: {  // zero-fill a range
        const std::size_t from = rng() % data.size();
        const std::size_t len = 1 + rng() % (data.size() - from);
        std::fill_n(data.begin() + static_cast<std::ptrdiff_t>(from), len,
                    '\0');
        break;
      }
    }
    {
      std::ofstream out(target, std::ios::binary | std::ios::trunc);
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
    }

    FlashTier tier(cfg);
    tier.Recover(0, AdmitAll);
    dropped_segments +=
        static_cast<int>(tier.shard_stats(0).corrupt_segments_dropped);
    for (int i = 0; i < kKeys; ++i) {
      const KeyId id = HashStringKey(Key(i));
      if (tier.Find(0, id) == nullptr) continue;  // lost with its segment
      Record rec;
      std::string payload;
      ASSERT_TRUE(ReadBack(tier, id, &rec, &payload))
          << "trial " << trial << " key " << i;
      ASSERT_EQ(rec.key, Key(i)) << "trial " << trial;
      ASSERT_EQ(rec.value, Value(i))
          << "trial " << trial << ": corrupt data served";
    }
  }
  // The corpus must actually exercise the drop path.
  EXPECT_GT(dropped_segments, 0);
}

}  // namespace
}  // namespace pamakv::flash
