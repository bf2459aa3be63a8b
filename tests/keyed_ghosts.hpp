// GhostLists with a key index beside it, kept the way CacheEngine keeps
// its own: a key maps to its ghost's position, a push drops the key's
// older ghost first, and a key whose entry a wrapping ring overwrote
// leaves the index. The ghost tests speak this keyed API.
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>
#include <vector>

#include "pamakv/ds/ghost_list.hpp"

namespace pamakv::test {

class KeyedGhosts {
 public:
  struct Ghost {
    std::size_t list;
    MicroSecs penalty;
  };

  explicit KeyedGhosts(const std::vector<std::size_t>& capacities)
      : lists_(capacities) {}

  /// Records an eviction of `key` into `list`; one ghost per key.
  void Push(std::size_t list, KeyId key, MicroSecs penalty) {
    Remove(key);
    const GhostLists::Pushed pushed = lists_.Push(list, key, penalty);
    if (pushed.displaced) where_.erase(*pushed.displaced);
    where_[key] = pushed.pos;
  }

  /// Drops the key's ghost; false if it had none.
  bool Remove(KeyId key) {
    const auto it = where_.find(key);
    if (it == where_.end()) return false;
    lists_.Remove(it->second);
    where_.erase(it);
    return true;
  }

  /// The key's ghost in `list`, with its rank there.
  [[nodiscard]] std::optional<GhostLists::Hit> Lookup(std::size_t list,
                                                      KeyId key) const {
    const auto it = where_.find(key);
    if (it == where_.end() || !lists_.InList(list, it->second)) {
      return std::nullopt;
    }
    return lists_.Lookup(list, it->second);
  }

  /// The key's ghost, whichever list holds it.
  [[nodiscard]] std::optional<Ghost> Find(KeyId key) const {
    const auto it = where_.find(key);
    if (it == where_.end()) return std::nullopt;
    return Ghost{lists_.ListOf(it->second), lists_.At(it->second).penalty};
  }

  [[nodiscard]] bool Contains(std::size_t list, KeyId key) const {
    return Lookup(list, key).has_value();
  }
  [[nodiscard]] std::vector<GhostLists::Evicted> SnapshotOldestFirst(
      std::size_t list) const {
    return lists_.SnapshotOldestFirst(list);
  }
  [[nodiscard]] std::size_t size(std::size_t list) const {
    return lists_.size(list);
  }

 private:
  GhostLists lists_;
  std::unordered_map<KeyId, std::size_t> where_;
};

}  // namespace pamakv::test
