// Background reaping against the deadline a key holds now. A sweep
// (CacheService::ReapExpired) reaps a key once its current deadline has
// passed, and never before, whatever touch, gat and re-stores did to that
// deadline in between. One shard under a FakeClock, so every deadline is
// exact and only Advance() moves time.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv::net {
namespace {

using namespace std::chrono_literals;

class ServiceExpiryTest : public ::testing::Test {
 protected:
  ServiceExpiryTest() {
    CacheServiceConfig cfg;
    cfg.shards = 1;
    cfg.capacity_bytes = 16ULL * 1024 * 1024;
    cfg.clock = &clock_;
    service_ = std::make_unique<CacheService>(cfg, [](Bytes bytes) {
      return MakeEngine("memcached", bytes, SizeClassConfig{});
    });
  }

  void Set(const std::string& key, std::int64_t exptime_s) {
    ASSERT_EQ(service_->Store(StoreVerb::kSet, key, 1, exptime_s, "v"),
              StoreStatus::kStored);
  }

  /// gat: the value, and the deadline moved to `exptime_s`.
  bool Gat(const std::string& key, std::int64_t exptime_s) {
    std::vector<char> out;
    bool hit = false;
    CacheService::FlashPending pending;
    service_->GetFlashAware(key, out, /*with_cas=*/false, /*touch=*/true,
                            exptime_s, &hit, &pending);
    return hit;
  }

  bool Get(const std::string& key) {
    std::vector<char> out;
    return service_->Get(key, out, /*with_cas=*/false);
  }

  std::size_t Sweep() { return service_->ReapExpired(1'000); }

  util::FakeClock clock_;
  std::unique_ptr<CacheService> service_;
};

TEST_F(ServiceExpiryTest, TouchShortenedDeadlineIsReapedAtTheNewOne) {
  Set("k", 100);
  clock_.Advance(1s);
  ASSERT_TRUE(service_->Touch("k", 10));  // the deadline moves to t=11s
  EXPECT_EQ(Sweep(), 0u);
  clock_.Advance(9s);  // t=10s
  EXPECT_EQ(Sweep(), 0u);
  clock_.Advance(1s - 1ms);  // 1 ms before the new deadline
  EXPECT_EQ(Sweep(), 0u);
  EXPECT_EQ(service_->Totals().items, 1u);

  clock_.Advance(1s + 1ms);  // the new deadline + 1 s
  EXPECT_EQ(Sweep(), 1u);
  EXPECT_EQ(service_->Totals().items, 0u);
  EXPECT_EQ(service_->Totals().stats.reclaimed, 1u);
}

TEST_F(ServiceExpiryTest, LengthenedDeadlineIsNotReapedAtTheOldOne) {
  Set("touched", 5);
  Set("gat", 5);
  clock_.Advance(1s);
  ASSERT_TRUE(service_->Touch("touched", 100));  // deadline t=101s
  ASSERT_TRUE(Gat("gat", 100));                  // deadline t=101s

  clock_.Advance(6s);  // the old deadline + 2 s
  EXPECT_EQ(Sweep(), 0u);
  EXPECT_EQ(service_->Totals().items, 2u);
  EXPECT_TRUE(Get("touched"));
  EXPECT_TRUE(Get("gat"));

  clock_.Advance(95s);  // the new deadline + 1 s
  EXPECT_EQ(Sweep(), 2u);
  EXPECT_EQ(service_->Totals().items, 0u);
}

TEST_F(ServiceExpiryTest, ReStoredWithExptimeZeroIsNeverReaped) {
  Set("k", 5);
  clock_.Advance(1s);
  Set("k", 0);
  clock_.Advance(10s);
  EXPECT_EQ(Sweep(), 0u);
  clock_.Advance(24h * 365);
  EXPECT_EQ(Sweep(), 0u);
  EXPECT_TRUE(Get("k"));
  EXPECT_EQ(service_->Totals().stats.expired, 0u);
}

TEST_F(ServiceExpiryTest, OneEntryPerKeyWhateverItsStores) {
  // K keys, each stored N times with an hour's TTL, 1 ms apart, so every
  // store moves its key's deadline: the heap keeps one entry per key, and
  // a sweep with a budget of K reaps all of them.
  constexpr std::size_t kKeys = 100;
  constexpr std::size_t kStores = 20;
  for (std::size_t n = 0; n < kStores; ++n) {
    for (std::size_t k = 0; k < kKeys; ++k) {
      Set("key:" + std::to_string(k), 3'600);
      clock_.Advance(1ms);
    }
  }
  EXPECT_EQ(service_->Totals().items, kKeys);
  EXPECT_EQ(service_->Totals().wheel_nodes, kKeys);

  clock_.Advance(3'600s);  // past the last store's deadline
  EXPECT_EQ(service_->ReapExpired(kKeys), kKeys);
  EXPECT_EQ(service_->Totals().items, 0u);
  EXPECT_EQ(service_->Totals().wheel_nodes, 0u);
}

TEST_F(ServiceExpiryTest, NegativeExptimeIsReapedOnTheNextSweep) {
  service_->Store(StoreVerb::kSet, "k", 1, -1, "v");
  EXPECT_EQ(Sweep(), 1u);
  EXPECT_EQ(service_->Totals().items, 0u);
  EXPECT_EQ(service_->Totals().stats.reclaimed, 1u);
  EXPECT_FALSE(Get("k"));
}

TEST_F(ServiceExpiryTest, AbsoluteExptimeLapsesAtItsSecond) {
  // The wall clock reads a quarter second past a whole second when the
  // service is built, and nothing pins its time: an absolute exptime still
  // names a unix second, not that second plus the quarter.
  constexpr std::int64_t kBaseS = 1'700'000'000;
  clock_.SetWallBase(kBaseS * 1'000'000'000 + 250'000'000);
  CacheServiceConfig cfg;
  cfg.shards = 1;
  cfg.capacity_bytes = 16ULL * 1024 * 1024;
  cfg.clock = &clock_;
  service_ = std::make_unique<CacheService>(cfg, [](Bytes bytes) {
    return MakeEngine("memcached", bytes, SizeClassConfig{});
  });
  Set("k", kBaseS + 100);
  clock_.Advance(100s - 250ms - 1ns);  // 1 ns before second base + 100
  EXPECT_TRUE(Get("k"));
  clock_.Advance(1ns);
  EXPECT_FALSE(Get("k"));
}

TEST_F(ServiceExpiryTest, RandomOpsReapExactlyTheDueKeys) {
  // Seeded sets, touches, gats and deletes with random TTLs against a
  // per-key model of deadlines: every sweep reaps exactly the keys whose
  // deadline has passed, and the heap never holds more entries than the
  // engine has issued handles.
  constexpr std::int64_t kSecondNs = 1'000'000'000;
  for (const std::uint64_t seed : {3ULL, 11ULL, 2024ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::fprintf(stderr, "# service expiry model run, seed %llu\n",
                 static_cast<unsigned long long>(seed));
    CacheServiceConfig cfg;
    cfg.shards = 1;
    cfg.capacity_bytes = 16ULL * 1024 * 1024;
    cfg.clock = &clock_;
    service_ = std::make_unique<CacheService>(cfg, [](Bytes bytes) {
      return MakeEngine("memcached", bytes, SizeClassConfig{});
    });
    Rng rng(seed);
    std::map<std::string, std::int64_t> live;  // key -> deadline (0: none)
    const auto lapsed = [&](std::int64_t deadline) {
      return deadline != 0 && service_->NowNs() >= deadline;
    };
    for (int step = 0; step < 4'000; ++step) {
      const std::string key = "k" + std::to_string(rng.NextBounded(40));
      // -1 (expired on arrival), 0 (never) or 1..20 s.
      const auto exptime = static_cast<std::int64_t>(rng.NextBounded(22)) - 1;
      const std::int64_t deadline =
          service_->DeadlineFor(exptime, service_->NowNs());
      const auto it = live.find(key);
      const bool held = it != live.end() && !lapsed(it->second);
      const std::uint64_t dice = rng.NextBounded(100);
      if (dice < 35) {
        Set(key, exptime);
        live[key] = deadline;
      } else if (dice < 65) {
        const bool hit = dice < 50 ? service_->Touch(key, exptime)
                                   : Gat(key, exptime);
        ASSERT_EQ(hit, held) << key;
        if (held) {
          it->second = deadline;
        } else if (it != live.end()) {
          live.erase(it);  // lazily expired by the access
        }
      } else if (dice < 75) {
        ASSERT_EQ(service_->Del(key), held) << key;
        if (it != live.end()) live.erase(it);
      } else if (dice < 90) {
        clock_.Advance(std::chrono::milliseconds(rng.NextBounded(3'000)));
      } else {
        std::size_t due = 0;
        for (auto i = live.begin(); i != live.end();) {
          if (lapsed(i->second)) {
            ++due;
            i = live.erase(i);
          } else {
            ++i;
          }
        }
        ASSERT_EQ(service_->ReapExpired(1'000'000), due)
            << "at " << clock_.NowNanos() / kSecondNs << " s";
      }
      ASSERT_EQ(service_->Totals().items, live.size());
      ASSERT_LE(service_->Totals().wheel_nodes,
                service_->shard_engine(0).handle_limit());
    }
  }
}

}  // namespace
}  // namespace pamakv::net
