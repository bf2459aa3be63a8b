// Service-level flash integration: CacheService + PAMA engine + FlashTier
// in one process, FakeClock-driven. Covers penalty-aware demotion on
// eviction, the deferred read/promote round trip (cas/flags/value
// preserved exactly), the verb matrix on flash-resident keys, in-flight
// read races (delete / overwrite / flush_all / incr-vs-delete), TTL and
// flush lapses, and tier recovery into a fresh service. Verbs that need
// the record (append/prepend, incr/decr) go through a Connection, the way
// the server runs them: served inline when the frame is in the page
// cache, parked on the read otherwise (the race tests force that). Runs
// under the `flash` ctest label.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "flash_pages.hpp"
#include "pamakv/cache/string_keys.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/connection.hpp"
#include "pamakv/net/event_loop.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/failpoint.hpp"

namespace pamakv::net {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kUnixBase = 1'700'000'000;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pamakv-flashsvc-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// One DRAM+flash node, optionally durable. Members declare clock → tier →
/// service → persister, so each is destroyed before what it references.
struct Node {
  util::FakeClock clock;
  std::unique_ptr<flash::FlashTier> tier;
  std::unique_ptr<CacheService> service;
  std::unique_ptr<persist::Persister> persister;

  void Advance(std::int64_t ns) { clock.Advance(std::chrono::nanoseconds(ns)); }
};

/// With a `data_dir` the node starts the way the server does: WAL replay
/// first, then the flash tier's recovery.
std::unique_ptr<Node> MakeNode(const std::string& dir,
                               Bytes capacity = 256 * 1024,
                               double admit_min_value = 0.0,
                               bool io_thread = false,
                               const std::string& data_dir = "") {
  auto node = std::make_unique<Node>();
  node->clock.SetWallBase(kUnixBase * 1'000'000'000);
  CacheServiceConfig cfg;
  cfg.shards = 1;
  cfg.capacity_bytes = capacity;
  cfg.clock = &node->clock;
  cfg.unix_now_s = kUnixBase;
  node->service = std::make_unique<CacheService>(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  persist::Superseded superseded;
  if (!data_dir.empty()) {
    persist::PersistConfig pcfg;
    pcfg.data_dir = data_dir;
    pcfg.fsync_mode = persist::FsyncMode::kNever;
    node->persister =
        std::make_unique<persist::Persister>(*node->service, pcfg);
    superseded = node->persister->Recover().superseded;
    node->service->SetPersistence(node->persister.get());
  }
  flash::FlashConfig fcfg;
  fcfg.dir = dir;
  fcfg.shards = 1;
  fcfg.segment_bytes = 64 * 1024;
  fcfg.cap_bytes = 8 * 1024 * 1024;
  fcfg.admit_min_value = admit_min_value;
  fcfg.io_thread = io_thread;
  node->tier = std::make_unique<flash::FlashTier>(fcfg);
  node->service->AttachFlash(node->tier.get());
  node->service->RecoverFlash(std::move(superseded));
  return node;
}

/// ~100-byte payload (single size class) with recognizable content.
std::string Payload(const std::string& tag) {
  std::string v = "payload-" + tag + "-";
  v.append(v.size() < 100 ? 100 - v.size() : 1, 'p');
  return v;
}

/// Stores same-class fillers until `key` demotes to flash. Matching flags
/// AND value size keep everything in one (class, band), so LRU order
/// makes the oldest key — `key` — the eviction victim deterministically.
/// Pass a filler value the same size as the victim's value.
::testing::AssertionResult EvictToFlash(Node& node, const std::string& key,
                                        std::uint32_t flags,
                                        const std::string& filler_value) {
  const KeyId id = HashStringKey(key);
  for (int i = 0; i < 40000; ++i) {
    if (node.tier->Find(0, id) != nullptr) {
      return ::testing::AssertionSuccess();
    }
    node.service->Store(StoreVerb::kSet, "filler:" + std::to_string(i), flags,
                        0, filler_value);
  }
  if (node.tier->Find(0, id) != nullptr) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << key << " never demoted to flash";
}

::testing::AssertionResult EvictToFlash(Node& node, const std::string& key,
                                        std::uint32_t flags) {
  return EvictToFlash(node, key, flags, Payload("filler"));
}

/// The newest segment file under `dir`: the one appends go to.
fs::path NewestSegment(const std::string& dir) {
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (newest.empty() || entry.path().filename() > newest.filename()) {
      newest = entry.path();
    }
  }
  return newest;
}

std::uint64_t ParseCas(const std::string& block) {
  const auto eol = block.find("\r\n");
  if (eol == std::string::npos) return 0;
  const auto sp = block.rfind(' ', eol);
  if (sp == std::string::npos) return 0;
  return std::strtoull(block.c_str() + sp + 1, nullptr, 10);
}

std::string GetsBlock(CacheService& service, const std::string& key) {
  std::vector<char> out;
  if (!service.Get(key, out, /*with_cas=*/true)) return "";
  return std::string(out.data(), out.size());
}

/// The connection's deferred-get round trip, compressed: schedule, read
/// synchronously, optionally mutate in the in-flight window, complete.
bool FlashAwareGet(Node& node, const std::string& key, std::string* block,
                   const std::function<void()>& between = nullptr) {
  std::vector<char> out;
  CacheService::FlashPending pending;
  bool hit = false;
  const auto outcome = node.service->GetFlashAware(
      key, out, /*with_cas=*/true, /*touch=*/false, 0, &hit, &pending);
  if (outcome == CacheService::FlashOutcome::kDeferred) {
    bool ok = false;
    std::string payload;
    node.service->SubmitFlashRead(pending, nullptr,
                                  [&](bool read_ok, std::string p) {
                                    ok = read_ok;
                                    payload = std::move(p);
                                  });
    if (between) between();
    hit = node.service->CompleteFlashGet(pending, ok, payload, key, out,
                                         /*with_cas=*/true, /*touch=*/false, 0);
  }
  block->assign(out.data(), out.size());
  return hit;
}

/// Sends `request` through a fresh Connection. The tier has no IO thread
/// and the connection no home loop, so a parked op's read runs inline and
/// the reply is complete on return.
std::string Exchange(Node& node, const std::string& request) {
  Connection conn(*node.service);
  conn.Ingest(request.data(), request.size());
  return std::string(conn.pending_output());
}

/// Exchange with a window between the read landing and its completion:
/// the segment pages under `dir` are made cold so the op parks on a read,
/// and the connection's home loop is not running yet, so the landed read
/// waits in its queue while `between` runs. nullopt when the pages could
/// not be dropped, or the read was served from the page cache all the
/// same (no window to test; see flash_pages.hpp).
std::optional<std::string> ExchangeWithWindow(
    Node& node, const std::string& dir, const std::string& request,
    const std::function<void()>& between) {
  if (!test::ForceColdFlashReads(dir)) return std::nullopt;
  EventLoop home;
  Connection conn(*node.service);
  conn.set_executor(nullptr, kDefaultBatchDepth, &home, [&] {
    if (!conn.batch_in_flight()) home.Stop();
  });
  conn.Ingest(request.data(), request.size());
  if (!conn.batch_in_flight()) return std::nullopt;
  between();
  if (conn.batch_in_flight()) home.Run();
  return std::string(conn.pending_output());
}

class FlashServiceTest : public ::testing::Test {
 protected:
  void TearDown() override {
#if PAMAKV_FAILPOINTS
    util::FailPoints::DisableAll();
#endif
  }
};

// ---- demotion ----

TEST_F(FlashServiceTest, EvictionsDemoteWithPerBandCounters) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  // Mixed penalties so several (class, band) pairs populate; enough
  // volume that the engine must evict.
  for (int i = 0; i < 4000; ++i) {
    const auto flags = static_cast<std::uint32_t>(500 + (i % 7) * 1'500);
    node->service->Store(StoreVerb::kSet, "key:" + std::to_string(i), flags, 0,
                         Payload(std::to_string(i)));
  }
  const auto& stats = node->tier->shard_stats(0);
  EXPECT_GT(stats.demotes, 0u);
  EXPECT_GT(node->tier->ItemCount(0), 0u);
  // Band attribution is complete: per-band counters account for every
  // demote (the bench reads these to show demotion is band-selective).
  std::uint64_t by_band = 0;
  for (SubclassId b = 0; b < node->tier->MaxBandSeen(0); ++b) {
    by_band += node->tier->DemotesForBand(0, b);
  }
  EXPECT_EQ(by_band, stats.demotes);
}

TEST_F(FlashServiceTest, AdmissionFloorRefusesLowValueDemotions) {
  TempDir accept_dir, refuse_dir;
  auto accept = MakeNode(accept_dir.path(), 256 * 1024, /*admit=*/0.0);
  // An impossibly high floor: no (class, band)'s incoming value clears it,
  // so the same eviction stream demotes nothing.
  auto refuse = MakeNode(refuse_dir.path(), 256 * 1024, /*admit=*/1e18);
  for (int i = 0; i < 4000; ++i) {
    const auto flags = static_cast<std::uint32_t>(500 + (i % 7) * 1'500);
    const std::string key = "key:" + std::to_string(i);
    const std::string value = Payload(std::to_string(i));
    accept->service->Store(StoreVerb::kSet, key, flags, 0, value);
    refuse->service->Store(StoreVerb::kSet, key, flags, 0, value);
  }
  EXPECT_GT(accept->tier->shard_stats(0).demotes, 0u);
  EXPECT_EQ(refuse->tier->shard_stats(0).demotes, 0u);
  EXPECT_EQ(refuse->tier->ItemCount(0), 0u);
}

// ---- the deferred hit path ----

TEST_F(FlashServiceTest, FlashHitServesExactValueFlagsAndCas) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "the-key";
  const std::string value = Payload("original");
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 4321, 0, value),
            StoreStatus::kStored);
  const std::string before = GetsBlock(*node->service, key);
  ASSERT_FALSE(before.empty());
  ASSERT_TRUE(EvictToFlash(*node, key, 4321));

  std::string block;
  ASSERT_TRUE(FlashAwareGet(*node, key, &block));
  // Demote/promote is invisible to the client: byte-identical gets block,
  // cas included (a gets → cas round trip spanning the demotion works).
  EXPECT_EQ(block, before);
  EXPECT_NE(block.find(value), std::string::npos);
  EXPECT_EQ(ParseCas(block), ParseCas(before));

  const ServiceCounters counters = node->service->Totals().counters;
  EXPECT_EQ(counters.flash_hits, 1u);
  EXPECT_EQ(counters.flash_promotes + counters.flash_direct_serves, 1u);
  EXPECT_EQ(counters.flash_penalty_saved_us, 4321u);
  if (counters.flash_promotes == 1) {
    // Promoted: the slot is gone and the next get is a plain DRAM hit.
    EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
    std::vector<char> out;
    CacheService::FlashPending pending;
    bool hit = false;
    EXPECT_EQ(node->service->GetFlashAware(key, out, true, false, 0, &hit,
                                           &pending),
              CacheService::FlashOutcome::kDone);
    EXPECT_TRUE(hit);
  }
}

TEST_F(FlashServiceTest, CasStoreRoundTripAcrossDemotion) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "cas-key";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, 0,
                                 Payload("v1")),
            StoreStatus::kStored);
  const std::uint64_t cas = ParseCas(GetsBlock(*node->service, key));
  ASSERT_NE(cas, 0u);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));

  // cas against slot metadata resolves synchronously — no disk read.
  CacheService::FlashPending pending;
  StoreStatus status;
  EXPECT_EQ(node->service->StoreFlashAware(StoreVerb::kCas, key, 2000, 0,
                                           Payload("v2"), cas + 7, &status,
                                           &pending),
            CacheService::FlashOutcome::kDone);
  EXPECT_EQ(status, StoreStatus::kExists);
  EXPECT_EQ(node->service->StoreFlashAware(StoreVerb::kCas, key, 2000, 0,
                                           Payload("v2"), cas, &status,
                                           &pending),
            CacheService::FlashOutcome::kDone);
  EXPECT_EQ(status, StoreStatus::kStored);
  // The DRAM copy superseded the flash one.
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
  std::string block;
  EXPECT_TRUE(FlashAwareGet(*node, key, &block));
  EXPECT_NE(block.find(Payload("v2")), std::string::npos);
}

TEST_F(FlashServiceTest, StoreVerbMatrixOnFlashResidentKey) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "verb-key";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, 0, "hello"),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000, "fillr"));

  CacheService::FlashPending pending;
  StoreStatus status;
  // add: the key exists (on flash), so it must refuse — synchronously.
  EXPECT_EQ(node->service->StoreFlashAware(StoreVerb::kAdd, key, 1, 0, "x",
                                           0, &status, &pending),
            CacheService::FlashOutcome::kDone);
  EXPECT_EQ(status, StoreStatus::kNotStored);
  // append: needs the stored bytes, so it parks on the read and
  // concatenates after the promote.
  EXPECT_EQ(Exchange(*node, "append verb-key 1 0 6\r\n-world\r\n"),
            "STORED\r\n");
  EXPECT_EQ(node->service->Totals().counters.flash_promotes, 1u);
  std::string block;
  ASSERT_TRUE(FlashAwareGet(*node, key, &block));
  EXPECT_NE(block.find("hello-world"), std::string::npos);

  // replace on a flash-resident key succeeds without a disk read.
  const std::string other = "verb-key-2";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, other, 2000, 0, "old"),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, other, 2000, "old"));
  EXPECT_EQ(node->service->StoreFlashAware(StoreVerb::kReplace, other, 2000,
                                           0, "new", 0, &status, &pending),
            CacheService::FlashOutcome::kDone);
  EXPECT_EQ(status, StoreStatus::kStored);
  ASSERT_TRUE(FlashAwareGet(*node, other, &block));
  EXPECT_NE(block.find("\r\nnew\r\n"), std::string::npos);
}

TEST_F(FlashServiceTest, IncrDecrPromotesThenMutates) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "counter";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, 0, "41"),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000, "41"));

  EXPECT_EQ(Exchange(*node, "incr counter 1\r\n"), "42\r\n");
  std::string block;
  ASSERT_TRUE(FlashAwareGet(*node, key, &block));
  EXPECT_NE(block.find("\r\n42\r\n"), std::string::npos);
  EXPECT_GE(node->service->Totals().counters.incr_hits, 1u);
}

// ---- lapses ----

TEST_F(FlashServiceTest, DeleteAndFlushKillFlashResidents) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "dead-key";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, 0,
                                 Payload("doomed")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  EXPECT_TRUE(node->service->Del(key));
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
  std::string block;
  EXPECT_FALSE(FlashAwareGet(*node, key, &block));

  const std::string key2 = "flushed-key";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key2, 2000, 0,
                                 Payload("doomed2")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key2, 2000));
  node->service->FlushAll();
  node->Advance(1'000'000'000);
  EXPECT_FALSE(FlashAwareGet(*node, key2, &block));
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key2)), nullptr);
}

TEST_F(FlashServiceTest, TtlLapsesOnFlashSlot) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "ttl-key";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, /*exptime_s=*/30,
                                 Payload("short-lived")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  ASSERT_NE(node->tier->Find(0, HashStringKey(key)), nullptr);
  // Before the deadline: still a flash hit.
  node->Advance(10LL * 1'000'000'000);
  std::string block;
  EXPECT_TRUE(FlashAwareGet(*node, key, &block));
  // Re-evict, then cross the deadline: the slot lapses like a DRAM entry.
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  node->Advance(60LL * 1'000'000'000);
  EXPECT_FALSE(FlashAwareGet(*node, key, &block));
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
}

// ---- in-flight read races ----

TEST_F(FlashServiceTest, DeleteWhileReadInFlightIsNotResurrected) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "race-del";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, 0,
                                 Payload("stale")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  std::string block;
  const bool hit = FlashAwareGet(*node, key, &block, [&] {
    EXPECT_TRUE(node->service->Del(key));
  });
  EXPECT_FALSE(hit);
  EXPECT_TRUE(block.empty());
  // And it stays dead: the completed read must not have re-seated it.
  EXPECT_FALSE(FlashAwareGet(*node, key, &block));
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
}

TEST_F(FlashServiceTest, OverwriteWhileReadInFlightServesNewValue) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "race-set";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, 0,
                                 Payload("stale")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  std::string block;
  const bool hit = FlashAwareGet(*node, key, &block, [&] {
    ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, 0,
                                   Payload("fresh")),
              StoreStatus::kStored);
  });
  EXPECT_TRUE(hit);
  EXPECT_NE(block.find(Payload("fresh")), std::string::npos);
  EXPECT_EQ(block.find(Payload("stale")), std::string::npos);
  // The race was detected, not served from flash.
  EXPECT_EQ(node->service->Totals().counters.flash_hits, 0u);
}

TEST_F(FlashServiceTest, FlushWhileReadInFlightMisses) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "race-flush";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, 0,
                                 Payload("flushed")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  std::string block;
  const bool hit = FlashAwareGet(*node, key, &block, [&] {
    node->service->FlushAll();
    node->Advance(1'000'000'000);
  });
  EXPECT_FALSE(hit);
}

TEST_F(FlashServiceTest, IncrVsDeleteRaceAnswersNotFound) {
  // An attempt whose read was served inline leaves no window (and has
  // applied the incr), so it starts over on a fresh node.
  std::string fs_name;
  for (int attempt = 0; attempt < test::kColdAttempts; ++attempt) {
    TempDir dir;
    fs_name = test::FilesystemOf(dir.path());
    auto node = MakeNode(dir.path());
    const std::string key = "race-incr";
    ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, 0, "100"),
              StoreStatus::kStored);
    ASSERT_TRUE(EvictToFlash(*node, key, 2000, "100"));
    const std::optional<std::string> reply = ExchangeWithWindow(
        *node, dir.path(), "incr race-incr 5\r\n",
        [&] { EXPECT_TRUE(node->service->Del(key)); });
    if (!reply) continue;
    EXPECT_EQ(*reply, "NOT_FOUND\r\n");
    std::string block;
    EXPECT_FALSE(FlashAwareGet(*node, key, &block));
    return;
  }
  GTEST_SKIP() << "dropped segment pages stayed readable from the page "
                  "cache on "
               << fs_name;
}

#if PAMAKV_FAILPOINTS
// The same incr-vs-delete race, but genuinely concurrent: the flash.read
// sleep failpoint holds the IO-thread read in flight while the main
// thread deletes the key underneath it.
TEST_F(FlashServiceTest, ThreadedIncrVsDeleteRaceWithSleepFailpoint) {
  TempDir dir;
  auto node = MakeNode(dir.path(), 256 * 1024, 0.0, /*io_thread=*/true);
  node->tier->StartIo();
  const std::string key = "race-threaded";
  ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 2000, 0, "7"),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000, "7"));

  ASSERT_TRUE(util::FailPoints::Arm("flash.read_cached", "EAGAIN"));
  ASSERT_TRUE(util::FailPoints::Arm("flash.read", "sleep:100"));
  // The page-cache read fails, so the incr parks on the IO thread's read
  // on the connection's own loop thread.
  EventLoop home;
  std::thread loop_thread([&] { home.Run(); });
  Connection conn(*node->service);
  std::promise<std::string> reply;
  auto reply_done = reply.get_future();
  conn.set_executor(nullptr, kDefaultBatchDepth, &home, [&] {
    if (!conn.batch_in_flight()) {
      reply.set_value(std::string(conn.pending_output()));
    }
  });
  home.Post([&] {
    const std::string request = "incr race-threaded 1\r\n";
    conn.Ingest(request.data(), request.size());
    EXPECT_TRUE(conn.batch_in_flight());
  });
  // Delete while the read sleeps on the IO thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(node->service->Del(key));
  ASSERT_EQ(reply_done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  util::FailPoints::DisableAll();
  EXPECT_EQ(reply_done.get(), "NOT_FOUND\r\n");
  home.Stop();
  loop_thread.join();
  node->tier->StopIo();
}
#endif  // PAMAKV_FAILPOINTS

// ---- recovery ----

TEST_F(FlashServiceTest, RecoveryServesFlashResidentsAndHonorsTombstones) {
  TempDir dir;
  std::uint64_t original_cas = 0;
  const std::string keep = "recover-keep";
  const std::string gone = "recover-gone";
  {
    auto node = MakeNode(dir.path());
    ASSERT_EQ(node->service->Store(StoreVerb::kSet, keep, 3333, 0,
                                   Payload("survivor")),
              StoreStatus::kStored);
    original_cas = ParseCas(GetsBlock(*node->service, keep));
    ASSERT_NE(original_cas, 0u);
    ASSERT_EQ(node->service->Store(StoreVerb::kSet, gone, 3333, 0,
                                   Payload("deleted")),
              StoreStatus::kStored);
    ASSERT_TRUE(EvictToFlash(*node, keep, 3333));
    ASSERT_TRUE(EvictToFlash(*node, gone, 3333));
    EXPECT_TRUE(node->service->Del(gone));  // tombstoned on flash
  }
  auto warm = MakeNode(dir.path());
  EXPECT_GT(warm->tier->shard_stats(0).recovered_items, 0u);
  ASSERT_NE(warm->tier->Find(0, HashStringKey(keep)), nullptr);
  EXPECT_EQ(warm->tier->Find(0, HashStringKey(gone)), nullptr);

  std::string block;
  ASSERT_TRUE(FlashAwareGet(*warm, keep, &block));
  EXPECT_NE(block.find(Payload("survivor")), std::string::npos);
  EXPECT_EQ(ParseCas(block), original_cas);
  EXPECT_FALSE(FlashAwareGet(*warm, gone, &block));

  // cas_counter was bumped past every recovered record: a fresh store's
  // stamp is strictly newer than the flash-resident survivor's.
  ASSERT_EQ(warm->service->Store(StoreVerb::kSet, "fresh-key", 1, 0, "x"),
            StoreStatus::kStored);
  EXPECT_GT(ParseCas(GetsBlock(*warm->service, "fresh-key")), original_cas);
}

// ---- restart with persistence ----
//
// The server's start-up order: WAL replay seats what DRAM can hold, then
// the flash tier's recovery admits every record that no newer state of
// its key supersedes. A lost flash tombstone (cut off the segment, as a
// crash before the append landed would) must not resurrect older bytes.

TEST_F(FlashServiceTest, RestartServesFromFlashWhatReplayCouldNotSeat) {
  TempDir flash_dir;
  TempDir data_dir;
  constexpr int kKeys = 4000;  // about 4x what 256 KiB of DRAM holds
  const auto key = [](int i) { return "durable:" + std::to_string(i); };
  {
    auto node = MakeNode(flash_dir.path(), 256 * 1024, 0.0, false,
                         data_dir.path());
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_EQ(node->service->Store(StoreVerb::kSet, key(i), 3333, 0,
                                     Payload(std::to_string(i))),
                StoreStatus::kStored);
    }
    ASSERT_GT(node->tier->ItemCount(0), 0u);
  }
  auto warm =
      MakeNode(flash_dir.path(), 256 * 1024, 0.0, false, data_dir.path());
  EXPECT_EQ(warm->persister->recovery_report().items_recovered,
            static_cast<std::uint64_t>(kKeys));
  std::vector<int> unseated;
  for (int i = 0; i < kKeys; ++i) {
    if (!warm->service->shard_engine(0).Contains(HashStringKey(key(i)))) {
      unseated.push_back(i);
    }
  }
  ASSERT_FALSE(unseated.empty());
  EXPECT_EQ(warm->tier->shard_stats(0).recovered_items, unseated.size());
  for (const int i : unseated) {
    std::string block;
    ASSERT_TRUE(FlashAwareGet(*warm, key(i), &block)) << key(i);
    const std::string payload = Payload(std::to_string(i));
    EXPECT_EQ(block.rfind("VALUE " + key(i) + " 3333 " +
                              std::to_string(payload.size()) + " ",
                          0),
              0u)
        << block;
    EXPECT_NE(block.find("\r\n" + payload + "\r\n"), std::string::npos)
        << key(i);
  }
}

TEST_F(FlashServiceTest, RestartNeverServesBytesANewerStoreSuperseded) {
  TempDir flash_dir;
  TempDir data_dir;
  const std::string key = "superseded";
  {
    auto node = MakeNode(flash_dir.path(), 256 * 1024, 0.0, false,
                         data_dir.path());
    ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 3333, 0,
                                   Payload("old")),
              StoreStatus::kStored);
    int fillers = 0;
    while (node->tier->Find(0, HashStringKey(key)) == nullptr) {
      ASSERT_LT(fillers, 40000);
      node->service->Store(StoreVerb::kSet,
                           "filler:" + std::to_string(fillers++), 3333, 0,
                           Payload("filler"));
    }
    // Free one slot, so the re-store evicts nothing and its tombstone is
    // the only frame it appends.
    ASSERT_TRUE(
        node->service->Del("filler:" + std::to_string(fillers - 1)));
    const fs::path segment = NewestSegment(flash_dir.path());
    const std::uintmax_t before = fs::file_size(segment);
    ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 3333, 0,
                                   Payload("new")),
              StoreStatus::kStored);
    ASSERT_GT(fs::file_size(segment), before);
    fs::resize_file(segment, before);  // the tombstone never landed
    // Make every other resident hotter than the re-stored key in the log,
    // so a half-size DRAM cannot seat it at replay.
    for (int i = 0; i < fillers - 1; ++i) {
      node->service->Touch("filler:" + std::to_string(i), 0);
    }
  }
  auto warm =
      MakeNode(flash_dir.path(), 128 * 1024, 0.0, false, data_dir.path());
  ASSERT_FALSE(warm->service->shard_engine(0).Contains(HashStringKey(key)));
  EXPECT_EQ(warm->tier->Find(0, HashStringKey(key)), nullptr);
  std::string block;
  EXPECT_FALSE(FlashAwareGet(*warm, key, &block));
  EXPECT_EQ(block.find(Payload("old")), std::string::npos) << block;
}

TEST_F(FlashServiceTest, RestartKeepsADeleteWhoseFlashTombstoneWasLost) {
  TempDir flash_dir;
  TempDir data_dir;
  const std::string key = "deleted";
  {
    auto node = MakeNode(flash_dir.path(), 256 * 1024, 0.0, false,
                         data_dir.path());
    ASSERT_EQ(node->service->Store(StoreVerb::kSet, key, 3333, 0,
                                   Payload("doomed")),
              StoreStatus::kStored);
    ASSERT_TRUE(EvictToFlash(*node, key, 3333));
    const fs::path segment = NewestSegment(flash_dir.path());
    const std::uintmax_t before = fs::file_size(segment);
    ASSERT_TRUE(node->service->Del(key));
    ASSERT_GT(fs::file_size(segment), before);
    fs::resize_file(segment, before);  // the tombstone never landed
  }
  auto warm =
      MakeNode(flash_dir.path(), 256 * 1024, 0.0, false, data_dir.path());
  EXPECT_EQ(warm->tier->Find(0, HashStringKey(key)), nullptr);
  std::string block;
  EXPECT_FALSE(FlashAwareGet(*warm, key, &block)) << block;
}

}  // namespace
}  // namespace pamakv::net
