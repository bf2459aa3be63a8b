#include "pamakv/ds/lru_stack.hpp"

#include <algorithm>
#include <utility>

namespace pamakv {

namespace {

/// Index span for a stack of `size` nodes: at least twice the size
/// (PushTop grows it past that), so a renumber is paid for by at least
/// span / 2 new stamps.
std::size_t SpanFor(std::size_t size) noexcept {
  return std::max<std::size_t>(64, 4 * size);
}

}  // namespace

void LruStack::Unlink(Node* node) noexcept {
  (node->up != nullptr ? node->up->down : top_) = node->down;
  (node->down != nullptr ? node->down->up : bottom_) = node->up;
}

void LruStack::LinkTop(Node* node) noexcept {
  node->up = nullptr;
  node->down = top_;
  (top_ != nullptr ? top_->up : bottom_) = node;
  top_ = node;
}

void LruStack::StampTop(Node* node) noexcept {
  if (!Ranked()) {
    node->stamp = next_stamp_++;
  } else if (next_stamp_ < ranks_.span()) {
    node->stamp = next_stamp_++;
    ranks_.Set(node->stamp);
  } else {
    Renumber();
  }
}

LruStack::Node* LruStack::PushTop(ItemHandle value) {
  // Everything that can throw runs before the first mutation.
  RankBitmap grown;
  if (Ranked() && 2 * (size_ + 1) > ranks_.span()) {
    grown = RankBitmap(SpanFor(size_ + 1));
  }
  Node* node = free_;
  if (node != nullptr) {
    free_ = node->down;
  } else {
    pool_.emplace_back();
    node = &pool_.back();
  }
  node->value = value;
  LinkTop(node);
  ++size_;
  if (grown.empty()) {
    StampTop(node);
  } else {
    ranks_ = std::move(grown);
    Renumber();
  }
  return node;
}

void LruStack::Erase(Node* node) noexcept {
  if (Ranked()) ranks_.Clear(node->stamp);
  Unlink(node);
  --size_;
  node->down = free_;
  free_ = node;
}

void LruStack::MoveToTop(Node* node) noexcept {
  if (node == top_) return;  // already holds the newest stamp
  if (Ranked()) ranks_.Clear(node->stamp);
  Unlink(node);
  LinkTop(node);
  StampTop(node);
}

std::size_t LruStack::RankFromBottom(const Node* node) const {
  if (!Ranked()) {
    ranks_ = RankBitmap(SpanFor(size_));  // a throw leaves ranks_ empty
    Renumber();
  }
  return ranks_.CountBelow(node->stamp);
}

void LruStack::Renumber() const noexcept {
  std::uint64_t stamp = 0;
  for (Node* n = bottom_; n != nullptr; n = n->up) n->stamp = stamp++;
  next_stamp_ = stamp;
  ranks_.Fill(size_);
}

bool LruStack::CheckInvariants() const noexcept {
  if ((top_ == nullptr) != (size_ == 0) ||
      (bottom_ == nullptr) != (size_ == 0)) {
    return false;
  }
  if (top_ != nullptr && (top_->up != nullptr || bottom_->down != nullptr)) {
    return false;
  }
  std::size_t count = 0;
  for (const Node* n = bottom_; n != nullptr; n = n->up) {
    if (++count > size_) return false;  // a cycle, or a stale size
    if (n->stamp >= next_stamp_) return false;
    if (n->up != nullptr && (n->up->down != n || n->up->stamp <= n->stamp)) {
      return false;
    }
    if (n->up == nullptr && n != top_) return false;
    if (Ranked() && (n->stamp >= ranks_.span() || !ranks_.Test(n->stamp))) {
      return false;
    }
  }
  if (count != size_) return false;
  if (!Ranked()) return true;
  // The index marks exactly the live stamps, and each word's count in the
  // tree matches its bits.
  if (next_stamp_ > ranks_.span()) return false;
  return ranks_.CountsMatchBits() && ranks_.Total() == size_;
}

}  // namespace pamakv
