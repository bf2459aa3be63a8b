#include "pamakv/ds/lru_stack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "alloc_count.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv {
namespace {

/// Walks the stack from Bottom() toward the top; `top_first` (model[0] ==
/// top) must be the reverse of that walk.
void ExpectOrder(const LruStack& s, const std::vector<ItemHandle>& top_first) {
  std::size_t i = top_first.size();
  for (LruStack::Node* n = s.Bottom(); n != nullptr;
       n = LruStack::TowardTop(n)) {
    ASSERT_GT(i, 0u) << "stack longer than the model";
    ASSERT_EQ(n->value, top_first[--i]);
  }
  ASSERT_EQ(i, 0u) << "stack shorter than the model";
}

TEST(LruStackTest, EmptyStack) {
  LruStack s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.Bottom(), nullptr);
  EXPECT_TRUE(s.CheckInvariants());
}

TEST(LruStackTest, NodeIsFourWords) {
  // up, down, stamp, value (padded): 32 B on a 64-bit target.
  EXPECT_LE(sizeof(LruStack::Node), 4 * sizeof(void*));
}

TEST(LruStackTest, PushOrderIsStackOrder) {
  LruStack s;
  auto* n1 = s.PushTop(1);
  auto* n2 = s.PushTop(2);
  auto* n3 = s.PushTop(3);
  // Stack top..bottom is 3,2,1; bottom is the first pushed.
  EXPECT_EQ(s.Bottom(), n1);
  EXPECT_EQ(s.RankFromTop(n3), 0u);
  EXPECT_EQ(s.RankFromTop(n2), 1u);
  EXPECT_EQ(s.RankFromTop(n1), 2u);
  EXPECT_EQ(s.RankFromBottom(n1), 0u);
  EXPECT_EQ(s.RankFromBottom(n3), 2u);
  EXPECT_TRUE(s.CheckInvariants());
}

TEST(LruStackTest, MoveToTopPromotes) {
  LruStack s;
  auto* n1 = s.PushTop(1);
  auto* n2 = s.PushTop(2);
  auto* n3 = s.PushTop(3);
  s.MoveToTop(n1);  // 1,3,2 from top
  EXPECT_EQ(s.RankFromTop(n1), 0u);
  EXPECT_EQ(s.RankFromTop(n3), 1u);
  EXPECT_EQ(s.RankFromTop(n2), 2u);
  EXPECT_EQ(s.Bottom(), n2);
  EXPECT_TRUE(s.CheckInvariants());
}

TEST(LruStackTest, EraseRemoves) {
  LruStack s;
  auto* n1 = s.PushTop(1);
  auto* n2 = s.PushTop(2);
  auto* n3 = s.PushTop(3);
  s.Erase(n2);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.RankFromTop(n3), 0u);
  EXPECT_EQ(s.RankFromTop(n1), 1u);
  EXPECT_TRUE(s.CheckInvariants());
}

TEST(LruStackTest, EraseToEmptyAndReuse) {
  LruStack s;
  auto* n = s.PushTop(1);
  s.Erase(n);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.CheckInvariants());
  auto* m = s.PushTop(2);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.Bottom(), m);
  EXPECT_EQ(m->value, 2u);
  EXPECT_TRUE(s.CheckInvariants());
}

TEST(LruStackTest, TowardTopWalksInOrder) {
  LruStack s;
  std::vector<LruStack::Node*> nodes;
  for (ItemHandle i = 0; i < 20; ++i) nodes.push_back(s.PushTop(i));
  // Walk from the bottom toward the top: the k-th step is the k-th push.
  LruStack::Node* cur = s.Bottom();
  for (ItemHandle expect = 0; expect < 20; ++expect) {
    ASSERT_EQ(cur, nodes[expect]);
    EXPECT_EQ(cur->value, expect);
    cur = LruStack::TowardTop(cur);
  }
  EXPECT_EQ(cur, nullptr);  // walked off the top
}

// Model-based randomized test: the stack must agree with a simple vector
// model (front == top) across a long interleaving of pushes, promotions and
// erases. Phase 1 never asks for a rank, so it runs on the bare list; the
// first query of phase 2 builds the rank index from that history, and the
// ops after it (ending in an eviction-heavy mix that erases Bottom()) must
// keep every rank exact.
TEST(LruStackTest, AgreesWithVectorModelUnderRandomOps) {
  LruStack s;
  std::vector<ItemHandle> model;  // model[0] == top
  std::unordered_map<ItemHandle, LruStack::Node*> node_of;
  Rng rng(1234);
  ItemHandle next_value = 0;

  const auto push = [&] {
    const ItemHandle v = next_value++;
    node_of[v] = s.PushTop(v);
    model.insert(model.begin(), v);
  };
  const auto move_random = [&] {
    const std::size_t i = rng.NextBounded(model.size());
    const ItemHandle v = model[i];
    s.MoveToTop(node_of[v]);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
    model.insert(model.begin(), v);
  };
  const auto erase_random = [&] {
    const std::size_t i = rng.NextBounded(model.size());
    const ItemHandle v = model[i];
    s.Erase(node_of[v]);
    node_of.erase(v);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
  };
  const auto evict_bottom = [&] {
    LruStack::Node* bottom = s.Bottom();
    ASSERT_EQ(bottom->value, model.back());
    node_of.erase(bottom->value);
    s.Erase(bottom);
    model.pop_back();
  };
  const auto check_ranks = [&] {
    const std::size_t i = rng.NextBounded(model.size());
    const ItemHandle v = model[i];
    ASSERT_EQ(s.RankFromTop(node_of[v]), i);
    ASSERT_EQ(s.RankFromBottom(node_of[v]), model.size() - 1 - i);
    ASSERT_EQ(s.RankFromBottom(s.Bottom()), 0u);
  };
  const auto check = [&](int op) {
    ASSERT_EQ(s.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(s.Bottom()->value, model.back());
    }
    if (op % 500 == 0) {
      ASSERT_TRUE(s.CheckInvariants()) << "op " << op;
      ExpectOrder(s, model);
    }
  };

  // Phase 1: no rank query.
  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t choice = rng.NextBounded(100);
    if (model.empty() || choice < 40) {
      push();
    } else if (choice < 75) {
      move_random();
    } else {
      erase_random();
    }
    check(op);
  }
  ASSERT_GT(model.size(), 100u);

  // Phase 2: ranks on, then a balanced mix, then an eviction-heavy one.
  for (int op = 0; op < 10000; ++op) {
    const bool evicting = op >= 5000;
    const std::uint64_t choice = rng.NextBounded(100);
    if (model.empty() || choice < (evicting ? 35 : 30)) {
      push();
    } else if (choice < (evicting ? 50 : 55)) {
      move_random();
    } else if (choice < (evicting ? 55 : 70)) {
      erase_random();
    } else if (choice < (evicting ? 90 : 75)) {
      evict_bottom();
    }
    if (!model.empty()) check_ranks();
    check(op);
  }
  EXPECT_TRUE(s.CheckInvariants());
  ExpectOrder(s, model);
}

TEST(LruStackTest, LargeStackRanksStayCorrect) {
  LruStack s;
  std::vector<LruStack::Node*> nodes;
  const std::size_t n = 50000;
  for (ItemHandle i = 0; i < n; ++i) nodes.push_back(s.PushTop(i));
  // Spot-check ranks across the whole range.
  for (std::size_t i = 0; i < n; i += 997) {
    EXPECT_EQ(s.RankFromBottom(nodes[i]), i);
  }
  EXPECT_TRUE(s.CheckInvariants());
}

TEST(LruStackTest, PinnedBottomRankSurvivesRenumbering) {
  // The bottom node keeps its stamp while every other node is promoted
  // again and again above it, so the stamps run past the rank index's span
  // many times over and force in-place renumbering.
  LruStack s;
  constexpr std::size_t kSize = 200;
  std::vector<ItemHandle> model;  // model[0] == top
  std::vector<LruStack::Node*> nodes;
  for (ItemHandle i = 0; i < kSize; ++i) {
    nodes.push_back(s.PushTop(i));
    model.insert(model.begin(), i);
  }
  LruStack::Node* pinned = nodes[0];
  ASSERT_EQ(s.RankFromBottom(pinned), 0u);  // builds the index

  Rng rng(99);
  for (std::size_t op = 0; op < 10 * kSize; ++op) {
    const auto v = static_cast<ItemHandle>(1 + rng.NextBounded(kSize - 1));
    s.MoveToTop(nodes[v]);
    model.erase(std::find(model.begin(), model.end(), v));
    model.insert(model.begin(), v);

    ASSERT_EQ(s.Bottom(), pinned);
    ASSERT_EQ(s.RankFromBottom(pinned), 0u);
    ASSERT_EQ(s.RankFromTop(pinned), kSize - 1);
    const std::size_t i = rng.NextBounded(kSize);
    ASSERT_EQ(s.RankFromTop(nodes[model[i]]), i) << "op " << op;
  }
  EXPECT_TRUE(s.CheckInvariants());
  ExpectOrder(s, model);
}

TEST(LruStackTest, RankedMoveToTopAndEraseAllocateNothing) {
  LruStack s;
  constexpr std::size_t kSize = 1000;
  std::vector<LruStack::Node*> nodes;
  for (ItemHandle i = 0; i < kSize; ++i) nodes.push_back(s.PushTop(i));
  ASSERT_EQ(s.RankFromBottom(nodes[0]), 0u);  // index on

  Rng rng(5);
  const std::uint64_t before = test::AllocationCount();
  // Enough promotions to renumber several times, then erase everything.
  for (std::size_t op = 0; op < 20 * kSize; ++op) {
    s.MoveToTop(nodes[rng.NextBounded(kSize)]);
  }
  for (LruStack::Node* n : nodes) s.Erase(n);
  const std::uint64_t during = test::AllocationCount() - before;
  EXPECT_EQ(during, 0u) << "MoveToTop/Erase allocated " << during << " times";
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.CheckInvariants());
}

}  // namespace
}  // namespace pamakv
