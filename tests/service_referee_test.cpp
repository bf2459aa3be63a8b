// Paper-fidelity referee: the server's CacheService must make exactly the
// simulator's decisions. Seeded ETC and APP streams replay write-allocate
// two ways, from the same MakeEngine config (pama-exact, the property
// suite's small geometry and short windows):
//  * through CacheService in-process — one shard, string keys, values of
//    the trace size, the trace penalty in `flags`;
//  * through a bare engine, the way the simulator drives it.
// At every PAMA window the two engines must agree on hits, misses and the
// slab count of every (class, band). Anything the service adds on top of
// the engine — its item records, miss routing, collision checks — is
// invisible here only if it changes no decision.
//
// A second case splits the stream over four shards the way the server
// does: each request goes, by ShardIndexFor over its key's hash, to one of
// four bare engines built as ParallelSimulator builds its shards, and at
// every PAMA window of a shard the service's engine for that shard must
// agree with its bare engine.
//
// Seeds are printed and replayable:
//   PAMAKV_REFEREE_SEED=<n> ctest -R ServiceRefereeTest

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "pamakv/cache/shard_routing.hpp"
#include "pamakv/cache/string_keys.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/util/clock.hpp"
#include "sim_decisions.hpp"

namespace pamakv {
namespace {

constexpr std::uint64_t kRequests = 60'000;

/// Hits, misses and slab layout of one engine, as the referee compares them.
struct Decisions {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::vector<std::size_t> slabs;  ///< per (class, band), row-major

  bool operator==(const Decisions& o) const {
    return hits == o.hits && misses == o.misses && slabs == o.slabs;
  }
};

Decisions DecisionsOf(const CacheEngine& engine) {
  Decisions d;
  d.hits = engine.stats().get_hits;
  d.misses = engine.stats().get_misses;
  for (ClassId c = 0; c < engine.classes().num_classes(); ++c) {
    for (SubclassId s = 0; s < engine.num_subclasses(); ++s) {
      d.slabs.push_back(engine.pool().SlabCount(c, s));
    }
  }
  return d;
}

std::string Render(const Decisions& d) {
  std::string out = "hits=" + std::to_string(d.hits) +
                    " misses=" + std::to_string(d.misses) + " slabs=";
  for (const std::size_t n : d.slabs) out += std::to_string(n) + ",";
  return out;
}

/// Replays one seeded stream both ways; returns the windows compared.
std::uint64_t Referee(const std::string& workload, std::uint64_t seed) {
  const SizeClassConfig geometry = test::SmallGeometry();
  const SchemeOptions options = test::FastOptions();
  const Bytes capacity = 16 * geometry.slab_bytes;
  const auto make = [&](Bytes bytes) {
    return MakeEngine("pama-exact", bytes, geometry, options);
  };
  auto sim = make(capacity);
  util::FakeClock clock;
  net::CacheServiceConfig cfg;
  cfg.shards = 1;
  cfg.capacity_bytes = capacity;
  cfg.clock = &clock;
  net::CacheService service(cfg, make);
  const CacheEngine& served = service.shard_engine(0);

  WorkloadConfig wc = workload == "etc" ? EtcWorkload(kRequests, seed)
                                        : AppWorkload(kRequests, seed);
  wc.geometry = geometry;
  wc.class_weights.resize(geometry.num_classes);
  SyntheticTrace trace(wc);

  std::vector<char> out;
  std::string value;
  const auto key_of = [](KeyId k) { return "k" + std::to_string(k); };
  const auto store = [&](const Request& r) {
    value.assign(r.size, 'v');
    service.Store(net::StoreVerb::kSet, key_of(r.key),
                  static_cast<std::uint32_t>(r.penalty_us), 0, value);
  };

  const AccessClock window = options.pama.window_accesses;
  std::uint64_t windows = 0;
  Request r;
  while (trace.Next(r)) {
    // flags == 0 would mean "default penalty" to the service.
    EXPECT_GT(r.penalty_us, 0);
    switch (r.op) {
      case Op::kGet:
        out.clear();
        if (!service.Get(key_of(r.key), out, /*with_cas=*/false)) store(r);
        if (!sim->Get(r.key, r.size, r.penalty_us).hit) {
          sim->Set(r.key, r.size, r.penalty_us);
        }
        break;
      case Op::kSet:
        store(r);
        sim->Set(r.key, r.size, r.penalty_us);
        break;
      case Op::kDel:
        service.Del(key_of(r.key));
        sim->Del(r.key);
        break;
    }
    if (served.clock() != sim->clock()) {
      ADD_FAILURE() << "access clocks diverged: service " << served.clock()
                    << ", simulator " << sim->clock();
      return windows;
    }
    if (served.clock() / window == windows) continue;
    windows = served.clock() / window;
    const Decisions want = DecisionsOf(*sim);
    const Decisions got = DecisionsOf(served);
    if (!(got == want)) {
      ADD_FAILURE() << workload << " seed " << seed << " window " << windows
                    << "\n  simulator " << Render(want) << "\n  service   "
                    << Render(got);
      return windows;
    }
  }
  EXPECT_EQ(Render(DecisionsOf(served)), Render(DecisionsOf(*sim)));
  return windows;
}

constexpr std::size_t kShards = 4;

/// Replays one seeded stream through a kShards-shard CacheService and, each
/// request routed by the server's ShardIndexFor, through kShards bare
/// engines built the way ParallelSimulator builds its shards. Each bare
/// engine sees its shard's key ids in the service's order; at every PAMA
/// window of a shard, that shard's two engines must agree. Returns the
/// windows compared, over all shards.
std::uint64_t ShardedReferee(const std::string& workload, std::uint64_t seed) {
  const SizeClassConfig geometry = test::SmallGeometry();
  const SchemeOptions options = test::FastOptions();
  // Each shard gets the one-shard case's 16 slabs.
  const Bytes capacity = kShards * 16 * geometry.slab_bytes;
  const auto make = [&](Bytes bytes) {
    return MakeEngine("pama-exact", bytes, geometry, options);
  };
  std::vector<std::unique_ptr<CacheEngine>> sims;
  for (std::size_t s = 0; s < kShards; ++s) {
    sims.push_back(make(capacity / kShards));
    sims.back()->SetClockStep(kShards);
  }
  util::FakeClock clock;
  net::CacheServiceConfig cfg;
  cfg.shards = kShards;
  cfg.capacity_bytes = capacity;
  cfg.clock = &clock;
  net::CacheService service(cfg, make);

  WorkloadConfig wc = workload == "etc" ? EtcWorkload(2 * kRequests, seed)
                                        : AppWorkload(2 * kRequests, seed);
  wc.geometry = geometry;
  wc.class_weights.resize(geometry.num_classes);
  SyntheticTrace trace(wc);

  std::vector<char> out;
  std::string value;
  std::string name;
  const auto store = [&](const Request& r) {
    value.assign(r.size, 'v');
    service.Store(net::StoreVerb::kSet, name,
                  static_cast<std::uint32_t>(r.penalty_us), 0, value);
  };

  const AccessClock window = options.pama.window_accesses;
  std::vector<std::uint64_t> windows(kShards, 0);
  std::uint64_t compared = 0;
  Request r;
  while (trace.Next(r)) {
    EXPECT_GT(r.penalty_us, 0);
    name = "k" + std::to_string(r.key);
    const KeyId id = HashStringKey(name);
    const std::size_t s = ShardIndexFor(id, kShards);
    CacheEngine& sim = *sims[s];
    switch (r.op) {
      case Op::kGet:
        out.clear();
        if (!service.Get(name, out, /*with_cas=*/false)) store(r);
        if (!sim.Get(id, r.size, r.penalty_us).hit) {
          sim.Set(id, r.size, r.penalty_us);
        }
        break;
      case Op::kSet:
        store(r);
        sim.Set(id, r.size, r.penalty_us);
        break;
      case Op::kDel:
        service.Del(name);
        sim.Del(id);
        break;
    }
    const CacheEngine& served = service.shard_engine(s);
    if (served.clock() != sim.clock()) {
      ADD_FAILURE() << "shard " << s << " access clocks diverged: service "
                    << served.clock() << ", simulator " << sim.clock();
      return compared;
    }
    if (served.clock() / window == windows[s]) continue;
    windows[s] = served.clock() / window;
    ++compared;
    const Decisions want = DecisionsOf(sim);
    const Decisions got = DecisionsOf(served);
    if (!(got == want)) {
      ADD_FAILURE() << workload << " seed " << seed << " shard " << s
                    << " window " << windows[s] << "\n  simulator "
                    << Render(want) << "\n  service   " << Render(got);
      return compared;
    }
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(Render(DecisionsOf(service.shard_engine(s))),
              Render(DecisionsOf(*sims[s])))
        << "shard " << s;
  }
  return compared;
}

TEST(ServiceRefereeTest, ServiceMakesTheSimulatorsDecisions) {
  std::vector<std::uint64_t> seeds = {5, 6, 77};
  if (const char* env = std::getenv("PAMAKV_REFEREE_SEED")) {
    seeds = {std::strtoull(env, nullptr, 10)};
  }
  for (const std::uint64_t seed : seeds) {
    std::fprintf(stderr,
                 "# referee seed=%llu (replay: PAMAKV_REFEREE_SEED=%llu)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(seed));
    for (const char* workload : {"etc", "app"}) {
      SCOPED_TRACE(std::string(workload) + " seed " + std::to_string(seed));
      // A window is 2,000 accesses; the stream spans dozens of them.
      EXPECT_GT(Referee(workload, seed), 20u);
    }
  }
}

TEST(ServiceRefereeTest, EveryShardMakesItsSimulatorsDecisions) {
  std::vector<std::uint64_t> seeds = {5, 77};
  if (const char* env = std::getenv("PAMAKV_REFEREE_SEED")) {
    seeds = {std::strtoull(env, nullptr, 10)};
  }
  for (const std::uint64_t seed : seeds) {
    std::fprintf(stderr,
                 "# referee shards=%zu seed=%llu "
                 "(replay: PAMAKV_REFEREE_SEED=%llu)\n",
                 kShards, static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(seed));
    for (const char* workload : {"etc", "app"}) {
      SCOPED_TRACE(std::string(workload) + " seed " + std::to_string(seed));
      // Each shard sees about a quarter of 120k requests: several windows
      // of 2,000 accesses apiece.
      EXPECT_GT(ShardedReferee(workload, seed), 20u);
    }
  }
}

}  // namespace
}  // namespace pamakv
