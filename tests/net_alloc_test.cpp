// Extends the zero-allocation discipline from engine_alloc_test to the
// server's request path: once a connection and the service behind it are
// warm, the full read→parse→execute→respond cycle must not touch the heap.
// The connection reuses its rx/tx buffers, the parser works in string_views
// over the rx buffer, and CacheService recycles each key's record with its
// engine item handle (the record's buffers are reused, not freed), so
// replaying a fixed request mix allocates nothing.
//
// Requests are prepared as byte streams before the measured window (building
// std::strings allocates, the connection must not).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/connection.hpp"
#include "pamakv/net/shard_executor.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv::net {
namespace {

TEST(NetAllocationTest, SteadyStateConnectionIsAllocationFree) {
  CacheServiceConfig cfg;
  cfg.shards = 2;
  cfg.capacity_bytes = 2ULL * 1024 * 1024;
  CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("memcached", bytes, SizeClassConfig{});
  });
  Connection conn(service);

  // A fixed batch set over a fixed key space: the measured window replays
  // exactly the bytes the warmup ran, so no new map nodes, no buffer
  // high-water growth, no first-touch slab grabs can occur inside it.
  constexpr std::uint64_t kKeySpace = 8'192;
  Rng rng(3);
  std::vector<std::string> batches;
  std::string value;
  for (int b = 0; b < 64; ++b) {
    std::string stream;
    for (int op = 0; op < 32; ++op) {
      const std::uint64_t k = rng.NextBounded(kKeySpace);
      const std::string key = "key:" + std::to_string(k);
      if (rng.NextDouble() < 0.4) {
        const Bytes size = 64 + (Mix64(k) & 511);
        value.assign(size, static_cast<char>('a' + k % 26));
        stream += "set " + key + " 1000 0 " + std::to_string(size) + "\r\n" +
                  value + "\r\n";
      } else if (rng.NextDouble() < 0.05) {
        stream += "stats\r\n";
      } else {
        stream += (rng.NextDouble() < 0.5 ? "gets " : "get ") + key + "\r\n";
      }
    }
    batches.push_back(std::move(stream));
  }

  const auto drive = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (const std::string& stream : batches) {
        ASSERT_TRUE(conn.Ingest(stream.data(), stream.size()));
        conn.ConsumeOutput(conn.pending_output().size());
      }
    }
  };

  // Warm until everything saturates: engine slab pools and ghost lists at
  // their structural maxima (the key space oversubscribes 2 MiB), every key
  // has an entry slot with sufficient string capacity, rx/tx at high water.
  drive(50);

  const std::uint64_t before = test::AllocationCount();
  drive(5);
  const std::uint64_t during = test::AllocationCount() - before;
  EXPECT_EQ(during, 0u)
      << "steady-state connection handling allocated " << during << " times";
}

TEST(NetAllocationTest, ExpiryAndMutationVerbsStayAllocationFree) {
  // The widened command surface rides the same discipline: TTL'd sets
  // (each handle's one expiry entry moves in place, and a warm heap has
  // room for every entry), cas (both EXISTS and STORED outcomes),
  // incr/decr (in-place numeric rewrite), and touch/gat (deadline
  // restamp).
  util::FakeClock clock;
  CacheServiceConfig cfg;
  cfg.shards = 2;
  cfg.capacity_bytes = 2ULL * 1024 * 1024;
  cfg.clock = &clock;
  CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("memcached", bytes, SizeClassConfig{});
  });
  Connection conn(service);

  constexpr std::uint64_t kKeySpace = 2'048;
  Rng rng(7);
  std::vector<std::string> batches;
  std::string value;
  for (int b = 0; b < 64; ++b) {
    std::string stream;
    for (int op = 0; op < 32; ++op) {
      const std::uint64_t k = rng.NextBounded(kKeySpace);
      const std::string key = "key:" + std::to_string(k);
      const double dice = rng.NextDouble();
      if (dice < 0.30) {
        const Bytes size = 64 + (Mix64(k) & 255);
        value.assign(size, static_cast<char>('a' + k % 26));
        // Fixed TTL + paused clock => identical deadline on every
        // re-store.
        stream += "set " + key + " 1000 600 " + std::to_string(size) +
                  "\r\n" + value + "\r\n";
      } else if (dice < 0.40) {
        // Stale unique: the EXISTS (and NOT_FOUND on unwarmed keys) paths.
        stream += "cas " + key + " 1000 600 2 999999999\r\nzz\r\n";
      } else if (dice < 0.55) {
        const std::string ctr = "ctr:" + std::to_string(k % 64);
        stream += (dice < 0.48 ? "incr " : "decr ") + ctr + " 7\r\n";
      } else if (dice < 0.65) {
        stream += "touch " + key + " 600\r\n";
      } else if (dice < 0.75) {
        stream += (dice < 0.70 ? "gat 600 " : "gats 600 ") + key + "\r\n";
      } else {
        stream += (dice < 0.85 ? "gets " : "get ") + key + "\r\n";
      }
    }
    batches.push_back(std::move(stream));
  }
  // Counters pre-seeded numeric so incr/decr take their hit path.
  for (int c = 0; c < 64; ++c) {
    const std::string seed =
        "set ctr:" + std::to_string(c) + " 0 0 10\r\n4000000000\r\n";
    ASSERT_TRUE(conn.Ingest(seed.data(), seed.size()));
  }
  conn.ConsumeOutput(conn.pending_output().size());

  const auto drive = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (const std::string& stream : batches) {
        ASSERT_TRUE(conn.Ingest(stream.data(), stream.size()));
        conn.ConsumeOutput(conn.pending_output().size());
      }
    }
  };
  drive(50);

  const std::uint64_t before = test::AllocationCount();
  drive(5);
  const std::uint64_t during = test::AllocationCount() - before;
  EXPECT_EQ(during, 0u)
      << "expiry/mutation verbs allocated " << during << " times";
}

TEST(NetAllocationTest, BatchedExecutionStaysAllocationFree) {
  // The shard-affine path rides the same discipline: BatchOp slots, their
  // key/value/out strings and the per-shard group index vectors all keep
  // their capacity across Reset(), so a warm batched connection stages,
  // dispatches and re-sequences without touching the heap. Run inline
  // (unbound executor) so the measurement is deterministic — the remote
  // path adds only EventLoop::Post, whose closure queue is the event
  // loop's own steady-state story.
  util::FakeClock clock;
  CacheServiceConfig cfg;
  cfg.shards = 4;
  cfg.capacity_bytes = 2ULL * 1024 * 1024;
  cfg.clock = &clock;
  CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("memcached", bytes, SizeClassConfig{});
  });
  ShardExecutor executor(service);  // unbound: synchronous inline mode
  Connection conn(service);
  conn.set_executor(&executor, 32, nullptr, nullptr);

  constexpr std::uint64_t kKeySpace = 4'096;
  Rng rng(5);
  std::vector<std::string> batches;
  std::string value;
  for (int b = 0; b < 64; ++b) {
    std::string stream;
    for (int op = 0; op < 32; ++op) {
      const std::uint64_t k = rng.NextBounded(kKeySpace);
      const std::string key = "key:" + std::to_string(k);
      const double dice = rng.NextDouble();
      if (dice < 0.35) {
        const Bytes size = 64 + (Mix64(k) & 255);
        value.assign(size, static_cast<char>('a' + k % 26));
        stream += "set " + key + " 1000 600 " + std::to_string(size) +
                  "\r\n" + value + "\r\n";
      } else if (dice < 0.45) {
        const std::string ctr = "ctr:" + std::to_string(k % 64);
        stream += (dice < 0.40 ? "incr " : "decr ") + ctr + " 3\r\n";
      } else if (dice < 0.55) {
        stream += "touch " + key + " 600\r\n";
      } else if (dice < 0.60) {
        stream += "delete " + key + "\r\n";
      } else {
        // Multi-key retrievals exercise the one-op-per-key staging.
        stream += (dice < 0.8 ? "get " : "gets ") + key + " key:" +
                  std::to_string((k + 1) % kKeySpace) + "\r\n";
      }
    }
    batches.push_back(std::move(stream));
  }
  for (int c = 0; c < 64; ++c) {
    const std::string seed =
        "set ctr:" + std::to_string(c) + " 0 0 10\r\n4000000000\r\n";
    ASSERT_TRUE(conn.Ingest(seed.data(), seed.size()));
  }
  conn.ConsumeOutput(conn.pending_output().size());

  const auto drive = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (const std::string& stream : batches) {
        ASSERT_TRUE(conn.Ingest(stream.data(), stream.size()));
        conn.ConsumeOutput(conn.pending_output().size());
      }
    }
  };
  drive(50);

  const std::uint64_t before = test::AllocationCount();
  drive(5);
  const std::uint64_t during = test::AllocationCount() - before;
  EXPECT_EQ(during, 0u)
      << "batched shard-affine handling allocated " << during << " times";
  EXPECT_GT(executor.Batches(), 0u);
}

}  // namespace
}  // namespace pamakv::net
