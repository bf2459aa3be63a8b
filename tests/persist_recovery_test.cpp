// Persistence integration: a real CacheService + Persister over a temp
// data directory, stopped and recovered into a fresh service. Covers the
// WAL-only and snapshot+tail paths, penalty-aware warm-restart fidelity
// (per-(class,band) slab layout, ghost lists, CAS, TTL and flush epochs),
// torn-tail truncation, mid-file-corruption refusal, bad --data-dir
// errors, unreadable files, shard-topology guards, and a seeded corruption
// corpus (bit-flip / truncate / zero-fill) pinning the three-outcome
// contract.
// Runs under the `persist` ctest label; the ASan job runs it for UB
// coverage of every decode path.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/persist/format.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/failpoint.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv::persist {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pamakv-persist-XXXXXX";
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

struct Node {
  std::unique_ptr<net::CacheService> service;
  std::unique_ptr<Persister> persister;
  RecoveryReport report;
};

/// Builds a service + persister over `dir` and recovers. The PAMA scheme
/// is the interesting one: its layout + ghost lists are what the warm
/// restart must reproduce. Pass a FakeClock to model downtime: the
/// service anchors unix time at the clock's WallNowNs(), so TTLs lapse
/// across a simulated outage exactly as across a real one.
Node MakeNode(const std::string& dir, std::size_t shards = 2,
              Bytes capacity = 2ULL * 1024 * 1024,
              FsyncMode mode = FsyncMode::kNever,
              util::Clock* clock = nullptr) {
  Node node;
  net::CacheServiceConfig cfg;
  cfg.shards = shards;
  cfg.capacity_bytes = capacity;
  cfg.clock = clock;
  node.service = std::make_unique<net::CacheService>(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  PersistConfig pcfg;
  pcfg.data_dir = dir;
  pcfg.fsync_mode = mode;
  node.persister = std::make_unique<Persister>(*node.service, pcfg);
  node.report = node.persister->Recover();
  node.service->SetPersistence(node.persister.get());
  return node;
}

std::string Key(std::size_t i) { return "key:" + std::to_string(i); }

std::string Value(std::size_t i) {
  // Size varies with the key so multiple size classes fill up.
  return "value-" + std::to_string(i) + std::string(40 + (i * 37) % 400, 'x');
}

/// Penalty (µs) carried in the flags field; several distinct values so
/// multiple penalty bands populate.
std::uint32_t Penalty(std::size_t i) {
  return static_cast<std::uint32_t>(500 + (i % 7) * 1'500);
}

/// gets-style wire block for a key, or "" on miss. Includes flags, value
/// bytes and the CAS stamp — one string captures everything a client can
/// observe about the key.
std::string GetsBlock(net::CacheService& service, const std::string& key) {
  std::vector<char> out;
  if (!service.Get(key, out, /*with_cas=*/true)) return "";
  return std::string(out.data(), out.size());
}

/// Per-(class,band) slab counts, item counts, and ghost contents of one
/// engine — the warm-restart fidelity tuple.
struct EngineShape {
  std::vector<std::size_t> slabs;
  std::vector<std::size_t> items;
  std::vector<std::vector<GhostLists::Evicted>> ghosts;

  bool operator==(const EngineShape& o) const {
    if (slabs != o.slabs || items != o.items) return false;
    if (ghosts.size() != o.ghosts.size()) return false;
    for (std::size_t i = 0; i < ghosts.size(); ++i) {
      if (ghosts[i].size() != o.ghosts[i].size()) return false;
      for (std::size_t j = 0; j < ghosts[i].size(); ++j) {
        if (ghosts[i][j].key != o.ghosts[i][j].key ||
            ghosts[i][j].penalty != o.ghosts[i][j].penalty) {
          return false;
        }
      }
    }
    return true;
  }
};

EngineShape ShapeOf(const CacheEngine& engine) {
  EngineShape shape;
  const auto classes = engine.classes().num_classes();
  const auto bands = engine.num_subclasses();
  for (ClassId c = 0; c < classes; ++c) {
    for (SubclassId s = 0; s < bands; ++s) {
      shape.slabs.push_back(engine.pool().SlabCount(c, s));
      shape.items.push_back(engine.SubclassItemCount(c, s));
      shape.ghosts.push_back(
          engine.ghosts().SnapshotOldestFirst(engine.SubclassIndex(c, s)));
    }
  }
  return shape;
}

void StoreN(net::CacheService& service, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    service.Store(net::StoreVerb::kSet, Key(i), Penalty(i), 0, Value(i));
  }
}

class PersistRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override {
#if PAMAKV_FAILPOINTS
    util::FailPoints::DisableAll();
#endif
  }
};

// ---- WAL-only round trip ----

TEST_F(PersistRecoveryTest, WalOnlyRoundTripRestoresEveryMutation) {
  TempDir dir;
  std::vector<std::string> expected(60);
  {
    Node node = MakeNode(dir.path());
    StoreN(*node.service, 0, 50);
    // Overwrites, deletes, arithmetic, a concatenation — every WAL verb.
    node.service->Store(net::StoreVerb::kSet, Key(3), Penalty(3), 0, "v2");
    node.service->Store(net::StoreVerb::kAppend, Key(4), 0, 0, "-tail");
    EXPECT_TRUE(node.service->Del(Key(5)));
    node.service->Store(net::StoreVerb::kSet, "ctr", 100, 0, "41");
    const auto arith = node.service->IncrDecr("ctr", 1, /*increment=*/true);
    ASSERT_EQ(arith.status, net::ArithmeticResult::Status::kOk);
    EXPECT_EQ(arith.value, 42u);
    EXPECT_TRUE(node.service->Touch(Key(6), 3'600));
    for (std::size_t i = 0; i < 50; ++i) {
      expected[i] = GetsBlock(*node.service, Key(i));
    }
    expected[50] = GetsBlock(*node.service, "ctr");
    node.persister->Stop();
  }

  Node warm = MakeNode(dir.path());
  EXPECT_EQ(warm.report.snapshots_loaded, 0u);
  EXPECT_GT(warm.report.wal_records_replayed, 50u);
  EXPECT_EQ(warm.report.wal_tails_truncated, 0u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(GetsBlock(*warm.service, Key(i)), expected[i]) << Key(i);
  }
  EXPECT_EQ(GetsBlock(*warm.service, "ctr"), expected[50]);
  EXPECT_EQ(GetsBlock(*warm.service, Key(5)), "");  // deleted stays deleted
}

// ---- snapshot fidelity: layout + ghosts + items ----

TEST_F(PersistRecoveryTest, SnapshotRestoresLayoutGhostsAndItems) {
  TempDir dir;
  std::vector<EngineShape> shapes;
  std::vector<std::string> expected;
  std::size_t live_before = 0;
  constexpr std::size_t kKeys = 4'000;  // >> capacity => evictions + ghosts
  {
    Node node = MakeNode(dir.path());
    StoreN(*node.service, 0, kKeys);
    // Misses on evicted keys register ghost hits and drive PAMA's value
    // flow, so the learned layout is genuinely non-uniform by now.
    std::vector<char> scratch;
    for (std::size_t i = 0; i < kKeys; i += 3) {
      scratch.clear();
      node.service->Get(Key(i), scratch, false);
    }
    ASSERT_TRUE(node.persister->SnapshotNow());
    live_before = node.service->Totals().items;
    for (std::size_t s = 0; s < node.service->shard_count(); ++s) {
      shapes.push_back(ShapeOf(node.service->shard_engine(s)));
    }
    node.persister->Stop();
  }
  ASSERT_GT(live_before, 0u);

  Node warm = MakeNode(dir.path());
  EXPECT_EQ(warm.report.snapshots_loaded, 2u);
  EXPECT_EQ(warm.report.items_recovered, live_before);
  EXPECT_EQ(warm.service->Totals().items, live_before);
  // The penalty-aware state round-trips exactly: slab layout, per-
  // subclass item counts, and ghost lists (keys, penalties, order).
  for (std::size_t s = 0; s < warm.service->shard_count(); ++s) {
    EXPECT_TRUE(ShapeOf(warm.service->shard_engine(s)) == shapes[s])
        << "shard " << s;
  }
  // Ghost memory works across the restart: storing a key the ghost list
  // remembers must hit its receiving segment.
  std::vector<char> stats;
  warm.service->AppendStats(stats);
  const std::string text(stats.data(), stats.size());
  EXPECT_NE(text.find("persist_enabled 1"), std::string::npos);
  EXPECT_NE(text.find("persist_recovered_items"), std::string::npos);
}

// ---- snapshot + tail replay ----

TEST_F(PersistRecoveryTest, WalTailReplaysOverSnapshot) {
  TempDir dir;
  {
    Node node = MakeNode(dir.path());
    node.service->Store(net::StoreVerb::kSet, "stable", 0, 0, "same");
    node.service->Store(net::StoreVerb::kSet, "mut", 0, 0, "old");
    node.service->Store(net::StoreVerb::kSet, "doomed", 0, 0, "bye");
    ASSERT_TRUE(node.persister->SnapshotNow());
    // Post-snapshot mutations land in the next WAL generation and must
    // win over the snapshot's versions on replay.
    node.service->Store(net::StoreVerb::kSet, "mut", 0, 0, "new");
    EXPECT_TRUE(node.service->Del("doomed"));
    node.service->Store(net::StoreVerb::kSet, "late", 0, 0, "tail");
    node.persister->Stop();
  }

  Node warm = MakeNode(dir.path());
  EXPECT_EQ(warm.report.snapshots_loaded, 2u);
  EXPECT_GT(warm.report.wal_records_replayed, 0u);
  EXPECT_NE(GetsBlock(*warm.service, "stable").find("same"),
            std::string::npos);
  EXPECT_NE(GetsBlock(*warm.service, "mut").find("new"), std::string::npos);
  EXPECT_EQ(GetsBlock(*warm.service, "doomed"), "");
  EXPECT_NE(GetsBlock(*warm.service, "late").find("tail"), std::string::npos);
}

// ---- epochs and TTLs across downtime ----

TEST_F(PersistRecoveryTest, FlushAllEpochSurvivesRestart) {
  TempDir dir;
  {
    Node node = MakeNode(dir.path());
    node.service->Store(net::StoreVerb::kSet, "before", 0, 0, "flushed");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    node.service->FlushAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    node.service->Store(net::StoreVerb::kSet, "after", 0, 0, "survives");
    node.persister->Stop();
  }

  Node warm = MakeNode(dir.path());
  EXPECT_EQ(GetsBlock(*warm.service, "before"), "");
  EXPECT_NE(GetsBlock(*warm.service, "after").find("survives"),
            std::string::npos);
}

TEST_F(PersistRecoveryTest, TtlThatLapsedDuringDowntimeExpiresOnBoot) {
  TempDir dir;
  {
    Node node = MakeNode(dir.path());
    node.service->Store(net::StoreVerb::kSet, "shortlived", 0, 1, "gone");
    node.service->Store(net::StoreVerb::kSet, "forever", 0, 0, "kept");
    node.persister->Stop();
  }
  // The 1s TTL lapses while the server is "down".
  std::this_thread::sleep_for(std::chrono::milliseconds(1'200));

  Node warm = MakeNode(dir.path());
  EXPECT_GE(warm.report.items_expired_on_boot, 1u);
  EXPECT_EQ(GetsBlock(*warm.service, "shortlived"), "");
  EXPECT_NE(GetsBlock(*warm.service, "forever").find("kept"),
            std::string::npos);
}

/// Pins the ordering of WAL `touch`-record replay against downtime-lapsed
/// TTLs, with a FakeClock modelling the outage (no real sleeps). Replay
/// must apply the touch's deadline over the store's — in both directions
/// (extend and shorten) — and then judge expiry against the *post*-
/// downtime wall clock the recovered service re-anchors to.
TEST_F(PersistRecoveryTest, TouchReplayOrdersAgainstDowntimeLapsedTtl) {
  constexpr std::int64_t kNsPerS = 1'000'000'000LL;
  TempDir dir;
  util::FakeClock clock;
  clock.SetWallBase(1'700'000'000LL * kNsPerS);
  {
    Node node = MakeNode(dir.path(), 2, 2ULL * 1024 * 1024, FsyncMode::kNever,
                         &clock);
    node.service->Store(net::StoreVerb::kSet, "touched", 0, 60, "extended");
    node.service->Store(net::StoreVerb::kSet, "lapsed", 0, 60, "stale");
    node.service->Store(net::StoreVerb::kSet, "shortened", 0, 3'600, "cut");
    clock.Advance(std::chrono::seconds(30));
    // Extend past the coming outage; shorten into it. Both land as WAL
    // touch records after the stores.
    ASSERT_TRUE(node.service->Touch("touched", 3'600));
    ASSERT_TRUE(node.service->Touch("shortened", 40));
    node.persister->Stop();
  }
  // 120s of downtime: the untouched 60s TTL and the shortened one lapse;
  // the extended one (30 + 3600) does not.
  clock.Advance(std::chrono::seconds(120));

  Node warm = MakeNode(dir.path(), 2, 2ULL * 1024 * 1024, FsyncMode::kNever,
                       &clock);
  EXPECT_NE(GetsBlock(*warm.service, "touched").find("extended"),
            std::string::npos);
  EXPECT_EQ(GetsBlock(*warm.service, "lapsed"), "");
  EXPECT_EQ(GetsBlock(*warm.service, "shortened"), "");
  // The replayed deadline is absolute, not re-relative to boot: the
  // touched key still dies at its original (extended) wall deadline.
  clock.Advance(std::chrono::seconds(3'600));
  EXPECT_EQ(GetsBlock(*warm.service, "touched"), "");
}

// ---- torn tails and corruption ----

/// Newest WAL file for shard 0 (highest generation number).
fs::path NewestWal(const std::string& dir, std::size_t shard = 0) {
  fs::path best;
  std::uint64_t best_gen = 0;
  for (const auto& ent : fs::directory_iterator(dir)) {
    DataFileName parsed;
    if (!ParseDataFileName(ent.path().filename().string(), &parsed)) continue;
    if (parsed.kind != DataFileName::Kind::kWal || parsed.shard != shard) {
      continue;
    }
    if (best.empty() || parsed.number > best_gen) {
      best = ent.path();
      best_gen = parsed.number;
    }
  }
  return best;
}

TEST_F(PersistRecoveryTest, TornWalTailIsTruncatedNotFatal) {
  TempDir dir;
  std::size_t live = 0;
  {
    Node node = MakeNode(dir.path());
    StoreN(*node.service, 0, 40);
    live = node.service->Totals().items;
    node.persister->Stop();
  }
  // Simulate a crash mid-append: a frame whose payload never fully made
  // it to disk, on every shard's newest log.
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const fs::path wal = NewestWal(dir.path(), shard);
    ASSERT_FALSE(wal.empty());
    std::vector<char> torn;
    AppendFrame(torn, "half of this frame is missing....");
    std::ofstream f(wal, std::ios::binary | std::ios::app);
    f.write(torn.data(), static_cast<std::streamsize>(torn.size() / 2));
  }

  Node warm = MakeNode(dir.path());
  EXPECT_EQ(warm.report.wal_tails_truncated, 2u);
  EXPECT_EQ(warm.service->Totals().items, live);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_NE(GetsBlock(*warm.service, Key(i)), "") << Key(i);
  }
}

TEST_F(PersistRecoveryTest, MidWalCorruptionIsCleanlyRefused) {
  TempDir dir;
  {
    Node node = MakeNode(dir.path());
    StoreN(*node.service, 0, 40);
    node.persister->Stop();
  }
  const fs::path wal = NewestWal(dir.path());
  ASSERT_FALSE(wal.empty());
  std::ifstream in(wal, std::ios::binary);
  std::vector<char> data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  // Find the second frame (first mutation after the header) and rot one
  // byte inside it, leaving everything after intact.
  FrameScanner scan(std::string_view(data.data(), data.size()));
  std::string_view payload;
  ASSERT_EQ(scan.Next(&payload), FrameScanner::Status::kFrame);
  const std::size_t victim = scan.offset() + 8;
  ASSERT_LT(victim, data.size());
  data[victim] = static_cast<char>(data[victim] ^ 0x20);
  std::ofstream out(wal, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  net::CacheServiceConfig cfg;
  cfg.shards = 2;
  cfg.capacity_bytes = 2ULL * 1024 * 1024;
  net::CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  PersistConfig pcfg;
  pcfg.data_dir = dir.path();
  Persister persister(service, pcfg);
  EXPECT_THROW((void)persister.Recover(), CorruptionError);
}

TEST_F(PersistRecoveryTest, TornSnapshotIsSkippedWalStillRecovers) {
  TempDir dir;
  {
    Node node = MakeNode(dir.path());
    // Snapshot first (empty), then mutate: the data lives only in the
    // post-snapshot WAL generation, so a torn snapshot must not lose it.
    ASSERT_TRUE(node.persister->SnapshotNow());
    StoreN(*node.service, 0, 30);
    node.persister->Stop();
  }
  for (const auto& ent : fs::directory_iterator(dir.path())) {
    DataFileName parsed;
    if (!ParseDataFileName(ent.path().filename().string(), &parsed)) continue;
    if (parsed.kind != DataFileName::Kind::kSnapshot) continue;
    const auto size = fs::file_size(ent.path());
    ASSERT_GT(size, 10u);
    fs::resize_file(ent.path(), size - 10);  // tear off the footer
  }

  Node warm = MakeNode(dir.path());
  EXPECT_EQ(warm.report.snapshots_loaded, 0u);
  EXPECT_EQ(warm.report.snapshots_skipped, 2u);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_NE(GetsBlock(*warm.service, Key(i)), "") << Key(i);
  }
}

// ---- bad --data-dir / topology guards ----

TEST_F(PersistRecoveryTest, BadDataDirIsOneCleanError) {
  net::CacheServiceConfig cfg;
  cfg.shards = 1;
  cfg.capacity_bytes = 1ULL * 1024 * 1024;
  net::CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });

  const auto recover_with = [&](const std::string& dir) {
    PersistConfig pcfg;
    pcfg.data_dir = dir;
    Persister persister(service, pcfg);
    (void)persister.Recover();
  };

  // Missing directory.
  try {
    recover_with("/nonexistent/pamakv-data");
    FAIL() << "expected a runtime_error for a missing --data-dir";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--data-dir"), std::string::npos);
  }

  // Path is a file, not a directory.
  TempDir dir;
  const std::string file_path = dir.path() + "/not-a-dir";
  { std::ofstream(file_path) << "x"; }
  try {
    recover_with(file_path);
    FAIL() << "expected a runtime_error for a non-directory --data-dir";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a directory"),
              std::string::npos);
  }

  // Unwritable directory (meaningless under root, which bypasses modes).
  if (::geteuid() != 0) {
    const std::string ro = dir.path() + "/ro";
    fs::create_directory(ro);
    ::chmod(ro.c_str(), 0500);
    EXPECT_THROW(recover_with(ro), std::runtime_error);
    ::chmod(ro.c_str(), 0700);
  }
}

// A log that cannot be read is a plain I/O error naming the file, not a
// corruption refusal: here shard 0's generation 1 is a directory.
TEST_F(PersistRecoveryTest, UnreadableLogIsOneCleanIoError) {
  TempDir dir;
  fs::create_directory(dir.path() + "/" + WalFileName(0, 1));
  net::CacheServiceConfig cfg;
  cfg.shards = 1;
  cfg.capacity_bytes = 1ULL * 1024 * 1024;
  net::CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  PersistConfig pcfg;
  pcfg.data_dir = dir.path();
  Persister persister(service, pcfg);
  try {
    (void)persister.Recover();
    FAIL() << "expected a runtime_error for an unreadable log";
  } catch (const CorruptionError& e) {
    FAIL() << "an I/O failure is not corruption: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              dir.path() + "/shard0-1.wal: read error during recovery");
  }
}

TEST_F(PersistRecoveryTest, ShardCountChangeIsRefused) {
  TempDir dir;
  {
    Node node = MakeNode(dir.path(), /*shards=*/2);
    StoreN(*node.service, 0, 20);
    ASSERT_TRUE(node.persister->SnapshotNow());
    node.persister->Stop();
  }
  // Fewer shards than the data names: refused (key routing would change).
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    net::CacheServiceConfig cfg;
    cfg.shards = shards;
    cfg.capacity_bytes = 2ULL * 1024 * 1024;
    net::CacheService service(cfg, [](Bytes bytes) {
      return MakeEngine("pama", bytes, SizeClassConfig{});
    });
    PersistConfig pcfg;
    pcfg.data_dir = dir.path();
    Persister persister(service, pcfg);
    EXPECT_THROW((void)persister.Recover(), CorruptionError)
        << shards << " shards";
  }
}

// ---- the corruption corpus ----

enum class Outcome { kRecovered, kRefused };

/// One recovery attempt over (a copy of) `dir`. Throws only for bugs:
/// the contract says every damaged input ends in recovery (possibly
/// tail-truncated) or CorruptionError.
Outcome TryRecover(const std::string& dir) {
  net::CacheServiceConfig cfg;
  cfg.shards = 2;
  cfg.capacity_bytes = 2ULL * 1024 * 1024;
  net::CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  PersistConfig pcfg;
  pcfg.data_dir = dir;
  Persister persister(service, pcfg);
  try {
    (void)persister.Recover();
  } catch (const CorruptionError&) {
    return Outcome::kRefused;
  }
  // Whatever was recovered, the cache must serve.
  std::vector<char> out;
  (void)service.Get("probe", out, false);
  EXPECT_TRUE(service.Set("probe", 0, "post-recovery store works"));
  return Outcome::kRecovered;
}

TEST_F(PersistRecoveryTest, CorruptionCorpusEndsInExactlyTheThreeOutcomes) {
  TempDir pristine;
  {
    Node node = MakeNode(pristine.path());
    StoreN(*node.service, 0, 120);
    for (std::size_t i = 0; i < 30; ++i) node.service->Del(Key(i * 4));
    ASSERT_TRUE(node.persister->SnapshotNow());
    StoreN(*node.service, 120, 200);
    node.service->FlushAll();
    StoreN(*node.service, 200, 260);
    node.persister->Stop();
  }
  std::vector<fs::path> files;
  for (const auto& ent : fs::directory_iterator(pristine.path())) {
    files.push_back(ent.path());
  }
  std::sort(files.begin(), files.end());  // deterministic order
  ASSERT_FALSE(files.empty());

  // Seeded + replayable: PAMAKV_CORPUS_SEED selects the stream; the
  // failure message names seed and trial.
  std::uint64_t seed = 0xC0FFEE;
  if (const char* env = std::getenv("PAMAKV_CORPUS_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  }
  Rng rng(seed);
  constexpr int kTrials = 48;
  int recovered = 0;
  int refused = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial));
    TempDir work;
    for (const auto& f : files) {
      fs::copy_file(f, fs::path(work.path()) / f.filename());
    }
    const fs::path victim =
        fs::path(work.path()) / files[rng.NextU64() % files.size()].filename();
    std::fstream file(victim,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(file.tellg());
    ASSERT_GT(size, 0u);
    switch (trial % 3) {
      case 0: {  // bit flip
        const std::uint64_t off = rng.NextU64() % size;
        file.seekg(static_cast<std::streamoff>(off));
        char byte = 0;
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ (1u << (rng.NextU64() % 8)));
        file.seekp(static_cast<std::streamoff>(off));
        file.write(&byte, 1);
        file.close();
        break;
      }
      case 1: {  // truncate to a random prefix
        file.close();
        fs::resize_file(victim, rng.NextU64() % size);
        break;
      }
      default: {  // zero-fill a random range
        const std::uint64_t off = rng.NextU64() % size;
        const std::uint64_t len =
            std::min<std::uint64_t>(1 + rng.NextU64() % 64, size - off);
        const std::vector<char> zeros(len, '\0');
        file.seekp(static_cast<std::streamoff>(off));
        file.write(zeros.data(), static_cast<std::streamsize>(len));
        file.close();
        break;
      }
    }
    switch (TryRecover(work.path())) {
      case Outcome::kRecovered: ++recovered; break;
      case Outcome::kRefused: ++refused; break;
    }
  }
  // The corpus must actually exercise both terminal outcomes.
  EXPECT_GT(recovered, 0);
  EXPECT_GT(refused, 0);
}

// ---- degradation (failpoints build only) ----

#if PAMAKV_FAILPOINTS
TEST_F(PersistRecoveryTest, WalErrorDisablesPersistenceCacheKeepsServing) {
  TempDir dir;
  Node node = MakeNode(dir.path());
  ASSERT_TRUE(node.persister->enabled());
  ASSERT_TRUE(node.service->Set("pre", 0, "ok"));

  // The next WAL write fails like a full disk would.
  util::FailPoints::Arm("persist.write", "ENOSPC@once");
  EXPECT_TRUE(node.service->Set("during", 0, "still acked"));
  EXPECT_FALSE(node.persister->enabled());

  // The cache serves on, read and write, with persistence off.
  EXPECT_TRUE(node.service->Set("post", 0, "served without durability"));
  EXPECT_NE(GetsBlock(*node.service, "post").find("served"),
            std::string::npos);
  std::vector<char> stats;
  node.service->AppendStats(stats);
  const std::string text(stats.data(), stats.size());
  EXPECT_NE(text.find("persist_enabled 0"), std::string::npos);
  EXPECT_NE(text.find("persist_errors 1"), std::string::npos);
  // bgsave now reports failure instead of pretending.
  EXPECT_FALSE(node.service->TriggerSnapshot());
  node.persister->Stop();
}
#endif  // PAMAKV_FAILPOINTS

// ---- bgsave / background snapshot path ----

TEST_F(PersistRecoveryTest, TriggerSnapshotWritesASnapshotInBackground) {
  TempDir dir;
  std::size_t live = 0;
  {
    Node node = MakeNode(dir.path());
    node.persister->Start();
    StoreN(*node.service, 0, 25);
    live = node.service->Totals().items;
    ASSERT_TRUE(node.service->TriggerSnapshot());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool seen = false;
    while (std::chrono::steady_clock::now() < deadline && !seen) {
      for (const auto& ent : fs::directory_iterator(dir.path())) {
        DataFileName parsed;
        if (ParseDataFileName(ent.path().filename().string(), &parsed) &&
            parsed.kind == DataFileName::Kind::kSnapshot) {
          seen = true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(seen) << "bgsave never produced a snapshot file";
    node.persister->Stop();
  }

  Node warm = MakeNode(dir.path());
  EXPECT_GT(warm.report.snapshots_loaded, 0u);
  EXPECT_EQ(warm.service->Totals().items, live);
}

}  // namespace
}  // namespace pamakv::persist
