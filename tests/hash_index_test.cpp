#include "pamakv/cache/hash_index.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "pamakv/util/rng.hpp"

namespace pamakv {
namespace {

TEST(HashIndexTest, EmptyFindsNothing) {
  HashIndex idx;
  EXPECT_EQ(idx.Find(42), kInvalidHandle);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_FALSE(idx.Erase(42));
}

TEST(HashIndexTest, InsertAndFind) {
  HashIndex idx;
  idx.Upsert(1, 100);
  idx.Upsert(2, 200);
  EXPECT_EQ(idx.Find(1), 100u);
  EXPECT_EQ(idx.Find(2), 200u);
  EXPECT_EQ(idx.Find(3), kInvalidHandle);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(HashIndexTest, UpsertOverwrites) {
  HashIndex idx;
  idx.Upsert(1, 100);
  idx.Upsert(1, 999);
  EXPECT_EQ(idx.Find(1), 999u);
  EXPECT_EQ(idx.size(), 1u);
}

TEST(HashIndexTest, OnlyAnInsertGrowsTheTable) {
  HashIndex idx(16);
  // 11 of 16 slots is the load ceiling: the twelfth key would rehash.
  for (KeyId k = 0; k < 11; ++k) EXPECT_EQ(idx.Upsert(k, 100 + k), kInvalidHandle);
  ASSERT_EQ(idx.capacity(), 16u);
  // Re-pointing a present key returns what it replaced, in place.
  for (KeyId k = 0; k < 11; ++k) EXPECT_EQ(idx.Upsert(k, 200 + k), 100 + k);
  EXPECT_EQ(idx.capacity(), 16u);
  idx.Reserve(idx.size());  // already fits
  EXPECT_EQ(idx.capacity(), 16u);
  idx.Reserve(idx.size() + 1);  // room for one more insert
  EXPECT_EQ(idx.capacity(), 32u);
  EXPECT_EQ(idx.Upsert(11, 211), kInvalidHandle);
  EXPECT_EQ(idx.capacity(), 32u);
  for (KeyId k = 0; k < 12; ++k) EXPECT_EQ(idx.Find(k), 200 + k);
}

TEST(HashIndexTest, EraseRemoves) {
  HashIndex idx;
  idx.Upsert(1, 100);
  EXPECT_TRUE(idx.Erase(1));
  EXPECT_EQ(idx.Find(1), kInvalidHandle);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_FALSE(idx.Erase(1));
}

TEST(HashIndexTest, KeyZeroIsAValidKey) {
  HashIndex idx;
  idx.Upsert(0, 7);
  EXPECT_EQ(idx.Find(0), 7u);
  EXPECT_TRUE(idx.Erase(0));
  EXPECT_EQ(idx.Find(0), kInvalidHandle);
}

TEST(HashIndexTest, GrowsPastInitialCapacity) {
  HashIndex idx(16);
  for (KeyId k = 0; k < 10000; ++k) idx.Upsert(k, static_cast<ItemHandle>(k));
  EXPECT_EQ(idx.size(), 10000u);
  EXPECT_GE(idx.capacity(), 10000u);
  for (KeyId k = 0; k < 10000; ++k) {
    ASSERT_EQ(idx.Find(k), static_cast<ItemHandle>(k));
  }
}

TEST(HashIndexTest, SequentialKeysDoNotDegenerate) {
  // Sequential synthetic keys must spread via the mixer; probe distances
  // stay short enough that this completes instantly.
  HashIndex idx;
  for (KeyId k = 0; k < 100000; ++k) idx.Upsert(k, 1);
  for (KeyId k = 0; k < 100000; ++k) ASSERT_NE(idx.Find(k), kInvalidHandle);
}

TEST(HashIndexTest, BackwardShiftPreservesNeighbors) {
  // Churn erases keys in clusters to exercise backward-shift deletion.
  HashIndex idx(16);
  for (KeyId k = 0; k < 64; ++k) idx.Upsert(k, static_cast<ItemHandle>(k + 1));
  for (KeyId k = 0; k < 64; k += 2) EXPECT_TRUE(idx.Erase(k));
  for (KeyId k = 1; k < 64; k += 2) {
    ASSERT_EQ(idx.Find(k), static_cast<ItemHandle>(k + 1)) << "key " << k;
  }
  for (KeyId k = 0; k < 64; k += 2) {
    ASSERT_EQ(idx.Find(k), kInvalidHandle);
  }
}

/// First `count` keys whose ideal slot in a table of `capacity` is `slot`.
std::vector<KeyId> KeysHashingTo(std::size_t slot, std::size_t capacity,
                                 std::size_t count) {
  std::vector<KeyId> keys;
  const std::size_t mask = capacity - 1;
  for (KeyId k = 0; keys.size() < count; ++k) {
    if ((static_cast<std::size_t>(Mix64(k)) & mask) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(HashIndexTest, EraseBackwardShiftAcrossTableWrapAround) {
  // Regression guard for the wrap-around case of backward-shift deletion:
  // a probe cluster that starts at the last slot and continues at slot 0.
  // Four keys all hashing to slot 15 of a 16-slot table occupy 15, 0, 1, 2;
  // erasing the one at slot 15 must shift the displaced tail across the
  // boundary, keeping every survivor reachable.
  constexpr std::size_t kCapacity = 16;
  const auto keys = KeysHashingTo(kCapacity - 1, kCapacity, 4);
  HashIndex idx(kCapacity);
  ASSERT_EQ(idx.capacity(), kCapacity);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    idx.Upsert(keys[i], static_cast<ItemHandle>(i + 1));
  }
  // Erase in insertion order: each erase collapses the cluster across the
  // wrap boundary; all remaining keys must stay findable.
  for (std::size_t dead = 0; dead < keys.size(); ++dead) {
    ASSERT_TRUE(idx.Erase(keys[dead])) << "erase " << dead;
    for (std::size_t alive = dead + 1; alive < keys.size(); ++alive) {
      ASSERT_EQ(idx.Find(keys[alive]), static_cast<ItemHandle>(alive + 1))
          << "erase " << dead << " lost key " << alive;
    }
    ASSERT_EQ(idx.Find(keys[dead]), kInvalidHandle);
  }
}

TEST(HashIndexTest, EraseWrapAroundMixedIdealSlots) {
  // A cluster spanning the end with mixed home slots: entries whose ideal
  // slot is on the far side of the wrapped hole must NOT be moved.
  constexpr std::size_t kCapacity = 16;
  const auto tail_keys = KeysHashingTo(kCapacity - 1, kCapacity, 2);  // 15,0
  const auto head_keys = KeysHashingTo(0, kCapacity, 2);             // 1,2
  HashIndex idx(kCapacity);
  idx.Upsert(tail_keys[0], 10);
  idx.Upsert(tail_keys[1], 11);  // displaced to slot 0
  idx.Upsert(head_keys[0], 20);  // home 0, displaced to 1
  idx.Upsert(head_keys[1], 21);  // home 0, displaced to 2
  ASSERT_TRUE(idx.Erase(tail_keys[0]));  // hole at 15
  EXPECT_EQ(idx.Find(tail_keys[1]), 11u);
  EXPECT_EQ(idx.Find(head_keys[0]), 20u);
  EXPECT_EQ(idx.Find(head_keys[1]), 21u);
  ASSERT_TRUE(idx.Erase(head_keys[0]));
  EXPECT_EQ(idx.Find(tail_keys[1]), 11u);
  EXPECT_EQ(idx.Find(head_keys[1]), 21u);
}

TEST(HashIndexTest, ReserveAvoidsRehashAndPreservesEntries) {
  HashIndex idx(16);
  for (KeyId k = 0; k < 10; ++k) idx.Upsert(k, static_cast<ItemHandle>(k + 1));
  idx.Reserve(50'000);
  const std::size_t reserved = idx.capacity();
  EXPECT_GE(reserved, 50'000u);
  for (KeyId k = 0; k < 10; ++k) {
    ASSERT_EQ(idx.Find(k), static_cast<ItemHandle>(k + 1));
  }
  for (KeyId k = 10; k < 50'000; ++k) {
    idx.Upsert(k, static_cast<ItemHandle>(k + 1));
  }
  EXPECT_EQ(idx.capacity(), reserved) << "Reserve did not prevent rehashing";
  // Reserve never shrinks.
  idx.Reserve(16);
  EXPECT_EQ(idx.capacity(), reserved);
}

TEST(HashIndexTest, AgreesWithUnorderedMapUnderChurn) {
  HashIndex idx(16);
  std::unordered_map<KeyId, ItemHandle> model;
  Rng rng(31337);
  for (int op = 0; op < 50000; ++op) {
    const KeyId key = rng.NextBounded(2000);
    const std::uint64_t choice = rng.NextBounded(100);
    if (choice < 50) {
      const auto handle = static_cast<ItemHandle>(rng.NextBounded(1 << 20));
      idx.Upsert(key, handle);
      model[key] = handle;
    } else if (choice < 80) {
      const bool a = idx.Erase(key);
      const bool b = model.erase(key) > 0;
      ASSERT_EQ(a, b) << "op " << op;
    } else {
      const auto it = model.find(key);
      const ItemHandle expect = it == model.end() ? kInvalidHandle : it->second;
      ASSERT_EQ(idx.Find(key), expect) << "op " << op;
    }
    ASSERT_EQ(idx.size(), model.size());
  }
  for (const auto& [key, handle] : model) {
    ASSERT_EQ(idx.Find(key), handle);
  }
}

}  // namespace
}  // namespace pamakv
