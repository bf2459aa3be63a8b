// Referee for the ghost lists: seeded random streams drive GhostLists and a
// plain model of the paper's extended section side by side, and every
// answer must agree.
//
// The model keeps, per list, one record per push: (seq, key, penalty,
// removed), where seq counts the list's pushes. An entry is live when it is
// not removed and its seq >= next_seq - capacity: a list remembers its last
// `capacity` pushes, minus removals. A key has at most one live entry
// across the lists (a push first removes the key's live entry, wherever it
// is), and an entry's rank is the number of live entries of its list with a
// larger seq. Nothing in it knows about rings, bitmaps or indexes.
//
// Each seed picks 1-4 lists laid back to back, with capacities among 1, 3,
// 63, 64, 65 and 70 so that rings straddle 64-bit words, and a key space
// small enough that keys are re-pushed, into other lists too, and rings
// wrap over the holes removals leave. The stream mixes push, remove,
// lookup (penalty and rank), find (list and penalty) and snapshot.
//
// Seeds are printed and replayable:
//   PAMAKV_GHOST_SEED=<n> ctest -R GhostModelTest

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "keyed_ghosts.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv {
namespace {

struct Rank {
  MicroSecs penalty = 0;
  std::size_t rank = 0;
  bool operator==(const Rank&) const = default;
};

struct Where {
  std::size_t list = 0;
  MicroSecs penalty = 0;
  bool operator==(const Where&) const = default;
};

using Snapshot = std::vector<std::pair<KeyId, MicroSecs>>;

// ---- the adapter: the ghost API as the model speaks it ----

class Subject {
 public:
  explicit Subject(const std::vector<std::size_t>& capacities)
      : ghosts_(capacities) {}

  void Push(std::size_t list, KeyId key, MicroSecs penalty) {
    ghosts_.Push(list, key, penalty);
  }
  bool Remove(KeyId key) { return ghosts_.Remove(key); }
  std::optional<Rank> Lookup(std::size_t list, KeyId key) const {
    const auto hit = ghosts_.Lookup(list, key);
    if (!hit) return std::nullopt;
    return Rank{hit->penalty, hit->rank};
  }
  std::optional<Where> Find(KeyId key) const {
    const auto ghost = ghosts_.Find(key);
    if (!ghost) return std::nullopt;
    return Where{ghost->list, ghost->penalty};
  }
  Snapshot OldestFirst(std::size_t list) const {
    Snapshot out;
    for (const auto& g : ghosts_.SnapshotOldestFirst(list)) {
      out.emplace_back(g.key, g.penalty);
    }
    return out;
  }
  std::size_t size(std::size_t list) const { return ghosts_.size(list); }

 private:
  test::KeyedGhosts ghosts_;  // GhostLists plus the engine's key index
};

// ---- the model ----

class Model {
 public:
  explicit Model(const std::vector<std::size_t>& capacities) {
    for (const std::size_t c : capacities) lists_.push_back(List{c, {}});
  }

  void Push(std::size_t list, KeyId key, MicroSecs penalty) {
    Remove(key);
    lists_[list].pushes.push_back(Entry{key, penalty, false});
  }

  bool Remove(KeyId key) {
    const auto at = Live(key);
    if (!at) return false;
    lists_[at->first].pushes[at->second].removed = true;
    return true;
  }

  std::optional<Rank> Lookup(std::size_t list, KeyId key) const {
    const auto at = Live(key);
    if (!at || at->first != list) return std::nullopt;
    const List& l = lists_[list];
    std::size_t rank = 0;
    for (std::size_t seq = at->second + 1; seq < l.pushes.size(); ++seq) {
      if (IsLive(l, seq)) ++rank;
    }
    return Rank{l.pushes[at->second].penalty, rank};
  }

  std::optional<Where> Find(KeyId key) const {
    const auto at = Live(key);
    if (!at) return std::nullopt;
    return Where{at->first, lists_[at->first].pushes[at->second].penalty};
  }

  Snapshot OldestFirst(std::size_t list) const {
    const List& l = lists_[list];
    Snapshot out;
    for (std::size_t seq = Oldest(l); seq < l.pushes.size(); ++seq) {
      if (IsLive(l, seq)) {
        out.emplace_back(l.pushes[seq].key, l.pushes[seq].penalty);
      }
    }
    return out;
  }

  std::size_t size(std::size_t list) const {
    return OldestFirst(list).size();
  }

 private:
  struct Entry {
    KeyId key = 0;
    MicroSecs penalty = 0;
    bool removed = false;
  };
  /// pushes[seq] is the list's push number seq; next_seq is pushes.size().
  struct List {
    std::size_t capacity = 0;
    std::vector<Entry> pushes;
  };

  static bool IsLive(const List& l, std::size_t seq) {
    return !l.pushes[seq].removed && seq + l.capacity >= l.pushes.size();
  }
  /// No seq below this can be live; scans start here to stay short.
  static std::size_t Oldest(const List& l) {
    return l.pushes.size() > l.capacity ? l.pushes.size() - l.capacity : 0;
  }

  /// (list, seq) of the key's live entry.
  std::optional<std::pair<std::size_t, std::size_t>> Live(KeyId key) const {
    for (std::size_t i = 0; i < lists_.size(); ++i) {
      const List& l = lists_[i];
      for (std::size_t seq = Oldest(l); seq < l.pushes.size(); ++seq) {
        if (l.pushes[seq].key == key && IsLive(l, seq)) {
          return std::make_pair(i, seq);
        }
      }
    }
    return std::nullopt;
  }

  std::vector<List> lists_;
};

// ---- the streams ----

constexpr std::size_t kCapacityChoices[] = {1, 3, 63, 64, 65, 70};
constexpr int kOpsPerSeed = 3'000;

std::string Describe(const std::vector<std::size_t>& capacities) {
  std::string out = "capacities";
  for (const std::size_t c : capacities) out += " " + std::to_string(c);
  return out;
}

void RunSeed(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> capacities(1 + rng.NextBounded(4));
  std::size_t total = 0;
  for (std::size_t& c : capacities) {
    c = kCapacityChoices[rng.NextBounded(std::size(kCapacityChoices))];
    total += c;
  }
  SCOPED_TRACE("seed " + std::to_string(seed) + ", " + Describe(capacities));
  Subject subject(capacities);
  Model model(capacities);
  // Twice the total capacity: most pushes find their key already live
  // somewhere, and rings still wrap.
  const std::uint64_t keys = 2 * total + 1;

  for (int op = 0; op < kOpsPerSeed; ++op) {
    const std::uint64_t choice = rng.NextBounded(100);
    const KeyId key = rng.NextBounded(keys);
    const std::size_t list = rng.NextBounded(capacities.size());
    if (choice < 50) {
      const auto penalty = static_cast<MicroSecs>(1 + rng.NextBounded(5'000));
      subject.Push(list, key, penalty);
      model.Push(list, key, penalty);
    } else if (choice < 65) {
      ASSERT_EQ(subject.Remove(key), model.Remove(key)) << "op " << op;
    } else if (choice < 85) {
      ASSERT_EQ(subject.Lookup(list, key), model.Lookup(list, key))
          << "op " << op << " lookup of key " << key << " in list " << list;
    } else if (choice < 95) {
      ASSERT_EQ(subject.Find(key), model.Find(key))
          << "op " << op << " find of key " << key;
    } else {
      ASSERT_EQ(subject.OldestFirst(list), model.OldestFirst(list))
          << "op " << op << " snapshot of list " << list;
    }
    for (std::size_t l = 0; l < capacities.size(); ++l) {
      ASSERT_EQ(subject.size(l), model.size(l)) << "op " << op;
    }
  }
  // Closing sweep: every key and every list.
  for (KeyId k = 0; k < keys; ++k) {
    ASSERT_EQ(subject.Find(k), model.Find(k)) << "key " << k;
    for (std::size_t l = 0; l < capacities.size(); ++l) {
      ASSERT_EQ(subject.Lookup(l, k), model.Lookup(l, k))
          << "key " << k << " list " << l;
    }
  }
  for (std::size_t l = 0; l < capacities.size(); ++l) {
    ASSERT_EQ(subject.OldestFirst(l), model.OldestFirst(l)) << "list " << l;
  }
}

TEST(GhostModelTest, GhostListsAgreeWithTheModel) {
  std::uint64_t first = 1;
  std::uint64_t count = 60;
  if (const char* env = std::getenv("PAMAKV_GHOST_SEED")) {
    first = std::strtoull(env, nullptr, 10);
    count = 1;
  }
  std::fprintf(stderr,
               "# ghost model seeds %llu..%llu (replay one: "
               "PAMAKV_GHOST_SEED=<n>)\n",
               static_cast<unsigned long long>(first),
               static_cast<unsigned long long>(first + count - 1));
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    RunSeed(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace pamakv
