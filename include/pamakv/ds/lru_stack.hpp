// LruStack: an LRU stack with O(1) updates and exact ranks on demand.
//
// PAMA needs to know, on every hit, whether the touched item lies in one of
// the bottom (m+1) segments of its subclass stack and in which segment
// (paper Sec. III). The paper's Bloom mode answers that without a rank, so
// the stack itself is an intrusive doubly-linked list: PushTop, MoveToTop,
// Erase, Bottom and TowardTop are O(1) pointer updates.
//
// Exact ranks come from a per-node access stamp. A node takes the next
// stamp whenever it reaches the top, so stamps strictly increase from the
// LRU bottom to the MRU top, and a node's rank is the number of live stamps
// below (or above) its own. A RankBitmap of stamp positions counts them in
// O(log n), the structure GhostLists uses for ghost ranks. Only stacks
// that are asked for a rank pay for it: the first
// RankFromTop or RankFromBottom call builds the index, and every later
// update maintains it. Stacks that are never queried (Bloom-mode PAMA,
// Memcached, PSA, Twemcache, Facebook-age) stay a bare list.
//
// With the index on, every stamp is a position in the index's span. When
// the next stamp would run past the span, the nodes are renumbered
// bottom-up to 0..size-1 in place; the span is kept at least twice the
// size, so this is amortized O(1). Only PushTop grows the span, so
// MoveToTop and Erase never allocate.
//
// This structure serves three roles:
//  * ground truth for the Bloom-filter approximation (ablation + tests),
//  * the eviction order for every policy (Bottom() is the LRU victim),
//  * per-window rebuild scans for the Bloom mode (bottom-up iteration).
//
// Nodes are pool-allocated and pointer-stable; each cache item stores its
// node pointer for O(1) access on hit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "pamakv/ds/rank_bitmap.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

class LruStack {
 public:
  struct Node {
    Node* up = nullptr;       ///< toward the top; nullptr at the top
    Node* down = nullptr;     ///< toward the bottom; nullptr at the bottom
    std::uint64_t stamp = 0;  ///< strictly increasing from bottom to top
    ItemHandle value = kInvalidHandle;
  };

  LruStack() = default;
  LruStack(const LruStack&) = delete;
  LruStack& operator=(const LruStack&) = delete;
  LruStack(LruStack&&) = default;
  LruStack& operator=(LruStack&&) = default;

  /// Pushes a new item at the MRU top. Returns its stable node. On a throw
  /// (node pool or rank-index growth) the stack is unchanged.
  Node* PushTop(ItemHandle value);

  /// Removes the node from the stack and recycles it.
  void Erase(Node* node) noexcept;

  /// Moves an existing node to the MRU top (the LRU "touch" operation).
  /// The node pointer remains valid.
  void MoveToTop(Node* node) noexcept;

  /// 0-based distance from the MRU top. The first rank query on a stack
  /// builds its rank index in O(size); a throw there leaves the stack
  /// unchanged. Later queries are O(log size) and never allocate. Not safe
  /// to call concurrently with any other use of the same stack.
  [[nodiscard]] std::size_t RankFromTop(const Node* node) const {
    return size_ - 1 - RankFromBottom(node);
  }

  /// 0-based distance from the LRU bottom (0 == next eviction victim).
  [[nodiscard]] std::size_t RankFromBottom(const Node* node) const;

  /// The LRU victim, or nullptr when empty.
  [[nodiscard]] Node* Bottom() const noexcept { return bottom_; }

  /// Neighbour one position closer to the top (nullptr at the top).
  [[nodiscard]] static Node* TowardTop(Node* node) noexcept { return node->up; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Invariant checker used by tests: consistent links and size, stamps
  /// strictly increasing from bottom to top, and (once built) a rank index
  /// that counts exactly the live stamps. O(n log n).
  [[nodiscard]] bool CheckInvariants() const noexcept;

 private:
  [[nodiscard]] bool Ranked() const noexcept { return !ranks_.empty(); }
  void Unlink(Node* node) noexcept;
  void LinkTop(Node* node) noexcept;
  /// Gives the (linked) top node the next stamp, renumbering first when the
  /// stamps have run past the index span.
  void StampTop(Node* node) noexcept;
  /// Restamps the nodes 0..size-1 from the bottom up and refills the index
  /// with exactly those positions. Logically const: LRU order does not
  /// change.
  void Renumber() const noexcept;

  Node* top_ = nullptr;
  Node* bottom_ = nullptr;
  std::size_t size_ = 0;
  /// Recycled nodes, chained through Node::down.
  Node* free_ = nullptr;
  std::deque<Node> pool_;
  // Which stamp positions hold a node. Built by the first rank query;
  // empty until then.
  mutable RankBitmap ranks_;
  mutable std::uint64_t next_stamp_ = 0;
};

}  // namespace pamakv
