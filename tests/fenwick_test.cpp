#include "pamakv/util/fenwick.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "pamakv/util/rng.hpp"

namespace pamakv {
namespace {

TEST(FenwickTest, EmptyTreeSumsToZero) {
  FenwickTree t(16);
  EXPECT_EQ(t.PrefixSum(0), 0);
  EXPECT_EQ(t.PrefixSum(16), 0);
  EXPECT_EQ(t.Total(), 0);
}

TEST(FenwickTest, SingleUpdate) {
  FenwickTree t(8);
  t.Add(3, 5);
  EXPECT_EQ(t.PrefixSum(3), 0);
  EXPECT_EQ(t.PrefixSum(4), 5);
  EXPECT_EQ(t.PrefixSum(8), 5);
  EXPECT_EQ(t.RangeSum(3, 4), 5);
  EXPECT_EQ(t.RangeSum(0, 3), 0);
}

TEST(FenwickTest, NegativeDeltas) {
  FenwickTree t(8);
  t.Add(2, 3);
  t.Add(2, -1);
  EXPECT_EQ(t.RangeSum(2, 3), 2);
  t.Add(2, -2);
  EXPECT_EQ(t.Total(), 0);
}

TEST(FenwickTest, MatchesNaiveReferenceUnderRandomOps) {
  const std::size_t n = 64;
  FenwickTree t(n);
  std::vector<std::int64_t> ref(n, 0);
  Rng rng(99);
  for (int op = 0; op < 5000; ++op) {
    const std::size_t i = rng.NextBounded(n);
    const auto delta = static_cast<std::int64_t>(rng.NextBounded(21)) - 10;
    t.Add(i, delta);
    ref[i] += delta;
    // Verify a random range against the reference.
    std::size_t lo = rng.NextBounded(n + 1);
    std::size_t hi = rng.NextBounded(n + 1);
    if (lo > hi) std::swap(lo, hi);
    std::int64_t expect = 0;
    for (std::size_t k = lo; k < hi; ++k) expect += ref[k];
    ASSERT_EQ(t.RangeSum(lo, hi), expect) << "op " << op;
  }
}

TEST(FenwickTest, ResetClears) {
  FenwickTree t(8);
  t.Add(1, 10);
  t.Add(7, 2);
  t.Reset();
  EXPECT_EQ(t.Total(), 0);
  EXPECT_EQ(t.PrefixSum(8), 0);
}

TEST(FenwickTest, AssignMatchesPerPositionAdds) {
  // Odd size, so the last parents fall outside the tree.
  const std::size_t n = 37;
  FenwickTree t(n);
  t.Add(3, 100);  // overwritten by Assign
  t.Assign([](std::size_t i) { return static_cast<std::int64_t>(i % 5) - 1; });
  FenwickTree ref(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref.Add(i, static_cast<std::int64_t>(i % 5) - 1);
  }
  for (std::size_t i = 0; i <= n; ++i) {
    ASSERT_EQ(t.PrefixSum(i), ref.PrefixSum(i)) << "prefix " << i;
  }
}

TEST(FenwickTest, SizeReportsConstructedSize) {
  FenwickTree t(31);
  EXPECT_EQ(t.size(), 31u);
  FenwickTree empty;
  EXPECT_EQ(empty.size(), 0u);
}

}  // namespace
}  // namespace pamakv
