#include "pamakv/ds/ghost_list.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "keyed_ghosts.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv {
namespace {

using test::KeyedGhosts;

TEST(GhostListTest, EmptyLookupMisses) {
  KeyedGhosts g({8});
  EXPECT_EQ(g.Lookup(0, 1), std::nullopt);
  EXPECT_EQ(g.size(0), 0u);
  EXPECT_FALSE(g.Remove(1));
}

TEST(GhostListTest, MostRecentEvictionHasRankZero) {
  KeyedGhosts g({8});
  g.Push(0, 1, 100);
  g.Push(0, 2, 200);
  g.Push(0, 3, 300);
  EXPECT_EQ(g.Lookup(0, 3)->rank, 0u);
  EXPECT_EQ(g.Lookup(0, 2)->rank, 1u);
  EXPECT_EQ(g.Lookup(0, 1)->rank, 2u);
  EXPECT_EQ(g.Lookup(0, 3)->penalty, 300);
}

TEST(GhostListTest, CapacityEvictsOldest) {
  KeyedGhosts g({3});
  g.Push(0, 1, 10);
  g.Push(0, 2, 20);
  g.Push(0, 3, 30);
  g.Push(0, 4, 40);  // overwrites key 1
  EXPECT_EQ(g.Lookup(0, 1), std::nullopt);
  EXPECT_EQ(g.size(0), 3u);
  EXPECT_EQ(g.Lookup(0, 4)->rank, 0u);
  EXPECT_EQ(g.Lookup(0, 2)->rank, 2u);
}

TEST(GhostListTest, RemoveCompactsRanks) {
  KeyedGhosts g({8});
  g.Push(0, 1, 10);
  g.Push(0, 2, 20);
  g.Push(0, 3, 30);
  EXPECT_TRUE(g.Remove(2));
  // Rank of 1 shrinks because the hole no longer counts.
  EXPECT_EQ(g.Lookup(0, 1)->rank, 1u);
  EXPECT_EQ(g.Lookup(0, 3)->rank, 0u);
  EXPECT_EQ(g.size(0), 2u);
}

TEST(GhostListTest, RePushMovesKeyToFront) {
  KeyedGhosts g({8});
  g.Push(0, 1, 10);
  g.Push(0, 2, 20);
  g.Push(0, 1, 15);  // re-evicted with a new penalty
  EXPECT_EQ(g.Lookup(0, 1)->rank, 0u);
  EXPECT_EQ(g.Lookup(0, 1)->penalty, 15);
  EXPECT_EQ(g.Lookup(0, 2)->rank, 1u);
  EXPECT_EQ(g.size(0), 2u);
}

TEST(GhostListTest, ContainsTracksMembership) {
  KeyedGhosts g({4});
  EXPECT_FALSE(g.Contains(0, 9));
  g.Push(0, 9, 1);
  EXPECT_TRUE(g.Contains(0, 9));
  g.Remove(9);
  EXPECT_FALSE(g.Contains(0, 9));
}

TEST(GhostListTest, KeyHasOneGhostAcrossLists) {
  KeyedGhosts g({8, 8});
  g.Push(0, 1, 10);
  g.Push(0, 2, 20);
  EXPECT_EQ(g.Lookup(0, 1)->rank, 1u);
  g.Push(1, 1, 15);  // evicted again, from the other subclass
  EXPECT_FALSE(g.Contains(0, 1));
  EXPECT_EQ(g.Lookup(0, 2)->rank, 0u);
  EXPECT_EQ(g.size(0), 1u);
  ASSERT_TRUE(g.Find(1).has_value());
  EXPECT_EQ(g.Find(1)->list, 1u);
  EXPECT_EQ(g.Find(1)->penalty, 15);
  EXPECT_EQ(g.Lookup(1, 1)->rank, 0u);
  EXPECT_TRUE(g.Remove(1));
  EXPECT_FALSE(g.Find(1).has_value());
  EXPECT_EQ(g.size(1), 0u);
}

TEST(GhostListTest, PushNamesTheLiveKeyAWrapOverwrites) {
  GhostLists g({2, 3});
  EXPECT_EQ(g.positions(), 5u);
  const auto a = g.Push(0, 1, 10);
  const auto b = g.Push(0, 2, 20);
  EXPECT_FALSE(a.displaced.has_value());
  EXPECT_FALSE(b.displaced.has_value());
  EXPECT_TRUE(g.InList(0, a.pos));
  EXPECT_FALSE(g.InList(1, a.pos));
  EXPECT_EQ(g.ListOf(b.pos), 0u);
  const auto c = g.Push(0, 3, 30);  // the ring wraps onto key 1
  EXPECT_EQ(c.pos, a.pos);
  ASSERT_TRUE(c.displaced.has_value());
  EXPECT_EQ(*c.displaced, 1u);
  g.Remove(b.pos);
  const auto d = g.Push(0, 4, 40);  // wraps onto the hole: no key lost
  EXPECT_EQ(d.pos, b.pos);
  EXPECT_FALSE(d.displaced.has_value());
  EXPECT_EQ(g.Lookup(0, c.pos).rank, 1u);
  EXPECT_EQ(g.Lookup(0, d.pos).rank, 0u);
  const auto e = g.Push(1, 5, 50);
  EXPECT_EQ(g.ListOf(e.pos), 1u);
  EXPECT_EQ(g.At(e.pos).key, 5u);
  EXPECT_EQ(g.At(e.pos).penalty, 50);
  EXPECT_EQ(g.size(0), 2u);
  EXPECT_EQ(g.size(1), 1u);
}

TEST(GhostListTest, ZeroCapacityRejected) {
  EXPECT_THROW(GhostLists({8, 0}), std::invalid_argument);
}

TEST(GhostListTest, WrapsManyTimesWithoutDrift) {
  KeyedGhosts g({16});
  for (KeyId k = 0; k < 1000; ++k) g.Push(0, k, 1);
  // Only the last 16 keys survive, ranks 0..15 newest-first.
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_EQ(g.Lookup(0, 999 - r)->rank, r);
  }
  EXPECT_EQ(g.Lookup(0, 983), std::nullopt);
  EXPECT_EQ(g.size(0), 16u);
}

// Model-based: compare against a reference that mirrors the documented ring
// contract — "remember the most recent `capacity` evictions (by push count),
// minus removals". Each push with sequence s expires the entry pushed at
// sequence s - capacity, if it is still live.
TEST(GhostListTest, AgreesWithDequeModelUnderRandomOps) {
  const std::size_t cap = 32;
  KeyedGhosts g({cap});
  struct Entry {
    KeyId key;
    MicroSecs penalty;
    std::uint64_t seq;
  };
  std::deque<Entry> model;  // front == newest
  std::uint64_t next_seq = 0;
  Rng rng(777);

  auto model_remove = [&model](KeyId key) {
    for (auto it = model.begin(); it != model.end(); ++it) {
      if (it->key == key) {
        model.erase(it);
        return true;
      }
    }
    return false;
  };

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t choice = rng.NextBounded(100);
    const KeyId key = rng.NextBounded(64);  // small key space forces re-push
    if (choice < 60) {
      const auto penalty = static_cast<MicroSecs>(rng.NextBounded(1000));
      g.Push(0, key, penalty);
      model_remove(key);
      const std::uint64_t seq = next_seq++;
      model.push_front(Entry{key, penalty, seq});
      // The ring slot being reused held sequence seq - cap.
      if (!model.empty() && seq >= cap && model.back().seq == seq - cap) {
        model.pop_back();
      }
    } else if (choice < 75) {
      const bool a = g.Remove(key);
      const bool b = model_remove(key);
      ASSERT_EQ(a, b);
    } else {
      const auto hit = g.Lookup(0, key);
      std::optional<std::size_t> expect_rank;
      MicroSecs expect_penalty = 0;
      for (std::size_t i = 0; i < model.size(); ++i) {
        if (model[i].key == key) {
          expect_rank = i;
          expect_penalty = model[i].penalty;
          break;
        }
      }
      ASSERT_EQ(hit.has_value(), expect_rank.has_value()) << "op " << op;
      if (hit) {
        ASSERT_EQ(hit->rank, *expect_rank) << "op " << op;
        ASSERT_EQ(hit->penalty, expect_penalty) << "op " << op;
      }
    }
    ASSERT_EQ(g.size(0), model.size());
  }
}

}  // namespace
}  // namespace pamakv
