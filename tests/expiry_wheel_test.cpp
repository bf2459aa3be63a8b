// ExpiryHeap: the indexed min-heap of (deadline, item handle) behind
// background TTL reaping. The suite keeps its name, as the
// `expiry_wheel_nodes` stat that counts the heap's entries keeps its. The
// contract under test (see expiry.hpp):
//   * never early, never late: PopDue emits an entry on the first call
//     whose now has reached its deadline, and no sooner;
//   * sweeps bounded by the caller's budget resume where they stopped;
//   * one entry per handle: filing a handle again moves its entry, earlier
//     or later, in place;
//   * all of it against a plain per-handle model under seeded random
//     schedules, moves and sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "pamakv/cache/expiry.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv {
namespace {

constexpr std::int64_t kSecond = 1'000'000'000;

/// One sweep: pops up to `max` due entries, as ReapExpired does per shard.
std::vector<ExpiryHeap::Entry> Sweep(ExpiryHeap& heap, std::int64_t now_ns,
                                     std::size_t max = 1'000'000) {
  std::vector<ExpiryHeap::Entry> out;
  ExpiryHeap::Entry e;
  while (out.size() < max && heap.PopDue(now_ns, e)) out.push_back(e);
  return out;
}

std::vector<ItemHandle> SweptHandles(ExpiryHeap& heap, std::int64_t now_ns) {
  std::vector<ItemHandle> handles;
  for (const auto& e : Sweep(heap, now_ns)) handles.push_back(e.handle);
  std::sort(handles.begin(), handles.end());
  return handles;
}

TEST(ExpiryWheelTest, NeverEmitsBeforeDeadline) {
  ExpiryHeap heap;
  heap.Schedule(1, 5 * kSecond);
  EXPECT_TRUE(Sweep(heap, 0).empty());
  EXPECT_TRUE(Sweep(heap, 5 * kSecond - 1).empty());
  EXPECT_EQ(heap.size(), 1u);
  // Due at exactly its deadline, with no tick to wait out.
  const auto due = Sweep(heap, 5 * kSecond);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].handle, 1u);
  EXPECT_EQ(due[0].deadline_ns, 5 * kSecond);
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_TRUE(Sweep(heap, 100 * kSecond).empty());
}

TEST(ExpiryWheelTest, OverdueScheduleSurfacesOnNextSweep) {
  ExpiryHeap heap;
  heap.Schedule(7, 3 * kSecond);  // already past when filed
  heap.Schedule(8, -1);           // "expired on arrival" sentinel
  heap.Schedule(9, 11 * kSecond);
  EXPECT_EQ(SweptHandles(heap, 10 * kSecond), (std::vector<ItemHandle>{7, 8}));
  EXPECT_EQ(heap.size(), 1u);
}

TEST(ExpiryWheelTest, BudgetBoundsEachSweepAndResumes) {
  ExpiryHeap heap;
  constexpr std::size_t kDue = 100;
  for (std::size_t i = 0; i < kDue; ++i) {
    heap.Schedule(static_cast<ItemHandle>(i), 2 * kSecond);
  }
  for (std::size_t i = kDue; i < kDue + 50; ++i) {
    heap.Schedule(static_cast<ItemHandle>(i), 20 * kSecond);
  }
  std::size_t total = 0;
  std::size_t sweeps = 0;
  while (total < kDue) {
    const auto got = Sweep(heap, 3 * kSecond, 10);
    ASSERT_EQ(got.size(), 10u) << "sweep stopped short of its budget";
    for (const auto& e : got) EXPECT_LT(e.handle, kDue);
    total += got.size();
    ++sweeps;
  }
  EXPECT_EQ(sweeps, kDue / 10);
  EXPECT_TRUE(Sweep(heap, 3 * kSecond, 10).empty());
  EXPECT_EQ(heap.size(), 50u);
}

TEST(ExpiryWheelTest, MovesAnEntryEarlierAndLater) {
  ExpiryHeap heap;
  heap.Schedule(1, 50 * kSecond);
  heap.Schedule(2, 30 * kSecond);
  heap.Schedule(3, 40 * kSecond);
  heap.Schedule(1, 10 * kSecond);  // earlier
  heap.Schedule(2, 60 * kSecond);  // later
  heap.Schedule(4, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(heap.size(), 4u);

  EXPECT_TRUE(Sweep(heap, 10 * kSecond - 1).empty());
  EXPECT_EQ(SweptHandles(heap, 10 * kSecond), (std::vector<ItemHandle>{1}));
  // 2 no longer comes due at its old deadline.
  EXPECT_TRUE(Sweep(heap, 35 * kSecond).empty());
  EXPECT_EQ(SweptHandles(heap, 40 * kSecond), (std::vector<ItemHandle>{3}));
  EXPECT_TRUE(Sweep(heap, 60 * kSecond - 1).empty());
  EXPECT_EQ(SweptHandles(heap, 60 * kSecond), (std::vector<ItemHandle>{2}));
  EXPECT_EQ(heap.size(), 1u);
}

TEST(ExpiryWheelTest, OneEntryPerHandle) {
  // A handle filed again (a re-store or touch with a new TTL) keeps one
  // entry, at the deadline filed last, and surfaces once.
  ExpiryHeap heap;
  for (std::int64_t s = 1; s <= 100; ++s) {
    heap.Schedule(9, (s % 7 + 1) * kSecond * s);
    heap.Schedule(5, s * kSecond);
  }
  EXPECT_EQ(heap.size(), 2u);
  const auto due = Sweep(heap, 1'000 * kSecond);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].handle, 5u);
  EXPECT_EQ(due[0].deadline_ns, 100 * kSecond);
  EXPECT_EQ(due[1].handle, 9u);
  EXPECT_EQ(due[1].deadline_ns, 300 * kSecond);  // (100 % 7 + 1) * 100 s
  EXPECT_EQ(heap.size(), 0u);
}

TEST(ExpiryWheelTest, RandomizedDeadlinesNeverEarlyAndBoundedLate) {
  // Seeded random schedules, moves and budget-bounded sweeps against a
  // per-handle model: every popped entry is the model's deadline for its
  // handle and has passed, sweeps pop in deadline order, and a sweep that
  // stops short of its budget leaves nothing due (late by nothing).
  constexpr std::size_t kHandles = 300;
  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::min();
  for (const std::uint64_t seed : {1ULL, 7ULL, 0x51dee1ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::fprintf(stderr, "# ExpiryHeap model run, seed %llu\n",
                 static_cast<unsigned long long>(seed));
    Rng rng(seed);
    ExpiryHeap heap;
    heap.Reserve(kHandles);
    std::vector<std::int64_t> model(kHandles, kNone);
    std::size_t filed = 0;
    std::int64_t now = 0;
    for (int step = 0; step < 20'000; ++step) {
      if (rng.NextBounded(4) != 0) {
        const auto h = static_cast<ItemHandle>(rng.NextBounded(kHandles));
        // Mostly ahead of now, sometimes already past or on arrival.
        const std::int64_t deadline =
            rng.NextBounded(10) == 0
                ? -1
                : now - 5 * kSecond +
                      static_cast<std::int64_t>(
                          rng.NextBounded(200 * kSecond));
        filed += model[h] == kNone;
        model[h] = deadline;
        heap.Schedule(h, deadline);
      } else {
        now += static_cast<std::int64_t>(rng.NextBounded(3 * kSecond));
        const std::size_t budget = 1 + rng.NextBounded(40);
        const auto got = Sweep(heap, now, budget);
        std::int64_t prev = std::numeric_limits<std::int64_t>::min();
        for (const auto& e : got) {
          ASSERT_LT(e.handle, kHandles);
          ASSERT_EQ(e.deadline_ns, model[e.handle]) << "not the filed one";
          EXPECT_LE(e.deadline_ns, now) << "emitted early";
          EXPECT_GE(e.deadline_ns, prev) << "out of deadline order";
          prev = e.deadline_ns;
          model[e.handle] = kNone;
          --filed;
        }
        if (got.size() < budget) {
          for (std::size_t h = 0; h < kHandles; ++h) {
            ASSERT_TRUE(model[h] == kNone || model[h] > now)
                << "handle " << h << " due but left behind";
          }
        }
      }
      ASSERT_EQ(heap.size(), filed);
    }
  }
}

}  // namespace
}  // namespace pamakv
