// String keys: HashStringKey, and the collision discipline of the
// string-keyed front end (CacheService) that stores the exact key string
// next to each 64-bit id.

#include "pamakv/cache/string_keys.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/policy/no_realloc.hpp"

namespace pamakv {
namespace {

using net::CacheService;
using net::StoreStatus;
using net::StoreVerb;

/// A one-shard service whose engine the test can reach directly, which is
/// how a collision is planted: real 64-bit collisions are astronomically
/// unlikely, so an entry is put in the engine under the id a string
/// hashes to, without the service knowing the string — exactly the state
/// a collision would produce (the id is occupied by a key whose stored
/// name doesn't match).
struct Node {
  CacheEngine* engine = nullptr;
  std::unique_ptr<CacheService> service;
};

Node MakeNode(Bytes capacity = 4ULL * 1024 * 1024) {
  Node node;
  net::CacheServiceConfig cfg;
  cfg.shards = 1;
  cfg.capacity_bytes = capacity;
  cfg.default_penalty_us = 5'000;
  node.service = std::make_unique<CacheService>(
      cfg, [&node](Bytes bytes) {
        EngineConfig ecfg;
        ecfg.capacity_bytes = bytes;
        auto engine = std::make_unique<CacheEngine>(
            ecfg, std::make_unique<NoReallocPolicy>());
        node.engine = engine.get();
        return engine;
      });
  return node;
}

bool Set(CacheService& service, std::string_view key, std::string_view value) {
  return service.Store(StoreVerb::kSet, key, 1000, 0, value) ==
         StoreStatus::kStored;
}

bool Hit(CacheService& service, std::string_view key) {
  std::vector<char> out;
  return service.Get(key, out, /*with_cas=*/false);
}

TEST(StringKeyTest, HashIsDeterministicAndSpreads) {
  EXPECT_EQ(HashStringKey("user:42"), HashStringKey("user:42"));
  std::set<KeyId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.insert(HashStringKey("key:" + std::to_string(i)));
  }
  EXPECT_EQ(ids.size(), 10000u);
}

TEST(StringKeyTest, EmptyAndBinaryKeysWork) {
  EXPECT_NE(HashStringKey(""), HashStringKey(std::string_view("\0", 1)));
  EXPECT_NE(HashStringKey("a"), HashStringKey("b"));
}

TEST(StringKeyTest, SetGetDelRoundTrip) {
  Node node = MakeNode();
  EXPECT_TRUE(Set(*node.service, "session:alice", "alice"));
  EXPECT_TRUE(Hit(*node.service, "session:alice"));
  EXPECT_FALSE(Hit(*node.service, "session:bob"));
  EXPECT_TRUE(node.service->Del("session:alice"));
  EXPECT_FALSE(Hit(*node.service, "session:alice"));
  EXPECT_FALSE(node.service->Del("session:alice"));
}

TEST(StringKeyTest, ManyKeysNoFalseHits) {
  Node node = MakeNode();
  for (int i = 0; i < 2000; ++i) {
    Set(*node.service, "item/" + std::to_string(i), "v");
  }
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(Hit(*node.service, "item/" + std::to_string(i))) << i;
  }
  for (int i = 2000; i < 4000; ++i) {
    EXPECT_FALSE(Hit(*node.service, "item/" + std::to_string(i))) << i;
  }
  EXPECT_EQ(node.service->Totals().collisions, 0u);
}

TEST(StringKeyTest, UpdatesKeepOneCopy) {
  Node node = MakeNode();
  Set(*node.service, "k", std::string(64, 'a'));
  Set(*node.service, "k", std::string(128, 'b'));
  EXPECT_EQ(node.service->Totals().items, 1u);
  std::vector<char> out;
  ASSERT_TRUE(node.service->Get("k", out, false));
  EXPECT_NE(std::string(out.begin(), out.end()).find(std::string(128, 'b')),
            std::string::npos);
}

TEST(StringKeyTest, DelThenReinsertRoundTrip) {
  Node node = MakeNode();
  ASSERT_TRUE(Set(*node.service, "churn", "first"));
  ASSERT_TRUE(node.service->Del("churn"));
  EXPECT_FALSE(Hit(*node.service, "churn"));
  // Reinsert after delete behaves like a fresh store, not an update.
  ASSERT_TRUE(Set(*node.service, "churn", "second"));
  EXPECT_TRUE(Hit(*node.service, "churn"));
  EXPECT_EQ(node.service->Totals().items, 1u);
  EXPECT_EQ(node.engine->stats().set_updates, 0u);
  EXPECT_EQ(node.service->Totals().collisions, 0u);
}

TEST(StringKeyTest, GetResolvesCollisionAsMissAndDropsSquatter) {
  Node node = MakeNode();
  const KeyId id = HashStringKey("victim");
  ASSERT_TRUE(node.engine->Set(id, 64, 1000).stored);

  // The squatter must not be served as a hit for "victim"...
  std::vector<char> out;
  EXPECT_FALSE(node.service->Get("victim", out, false));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(node.service->Totals().collisions, 1u);
  // ...and it is gone: the id is free for the verified owner.
  EXPECT_FALSE(node.engine->Contains(id));
  ASSERT_TRUE(Set(*node.service, "victim", "mine"));
  EXPECT_TRUE(Hit(*node.service, "victim"));
  EXPECT_EQ(node.service->Totals().collisions, 1u);  // no further collisions
}

TEST(StringKeyTest, DelOfCollidingKeyMissesAndDropsSquatter) {
  Node node = MakeNode();
  const KeyId id = HashStringKey("victim");
  ASSERT_TRUE(node.engine->Set(id, 64, 1000).stored);

  // DELETE of a name whose id someone else occupies answers NOT_FOUND —
  // the squatter is not this key — and, as on every access, the squatter
  // is dropped so both names see consistent misses from here on.
  EXPECT_FALSE(node.service->Del("victim"));
  EXPECT_EQ(node.service->Totals().collisions, 1u);
  EXPECT_FALSE(node.engine->Contains(id));
  EXPECT_FALSE(Hit(*node.service, "victim"));
}

TEST(StringKeyTest, SetResolvesCollisionThenOwnsTheId) {
  Node node = MakeNode();
  const KeyId id = HashStringKey("victim");
  ASSERT_TRUE(node.engine->Set(id, 64, 1000).stored);

  ASSERT_TRUE(Set(*node.service, "victim", "mine"));
  EXPECT_EQ(node.service->Totals().collisions, 1u);
  EXPECT_TRUE(Hit(*node.service, "victim"));
  EXPECT_EQ(node.service->Totals().items, 1u);
  EXPECT_EQ(node.service->Totals().collisions, 1u);
}

TEST(StringKeyTest, StatsFlowThrough) {
  Node node = MakeNode();
  Set(*node.service, "x", "value");
  Hit(*node.service, "x");
  Hit(*node.service, "y");  // never stored: charged the default penalty
  const CacheStats stats = node.service->Totals().stats;
  EXPECT_EQ(stats.gets, 2u);
  EXPECT_EQ(stats.get_hits, 1u);
  EXPECT_EQ(stats.miss_penalty_total_us, 5000u);
}

}  // namespace
}  // namespace pamakv
