#include "pamakv/ds/lru_stack.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace pamakv {

namespace {

/// Index words for a stack of `size` nodes: a span of at least twice the
/// size (PushTop grows it past that), so a renumber is paid for by at
/// least span / 2 new stamps.
std::size_t WordsFor(std::size_t size) noexcept {
  return std::max<std::size_t>(1, (4 * size + 63) / 64);
}

}  // namespace

void LruStack::RankIndex::Set(std::uint64_t stamp) noexcept {
  bits[stamp / 64] |= std::uint64_t{1} << (stamp % 64);
  word_counts.Add(stamp / 64, +1);
}

void LruStack::RankIndex::Clear(std::uint64_t stamp) noexcept {
  bits[stamp / 64] &= ~(std::uint64_t{1} << (stamp % 64));
  word_counts.Add(stamp / 64, -1);
}

std::size_t LruStack::RankIndex::CountBelow(
    std::uint64_t stamp) const noexcept {
  const std::uint64_t below = (std::uint64_t{1} << (stamp % 64)) - 1;
  return static_cast<std::size_t>(word_counts.PrefixSum(stamp / 64)) +
         static_cast<std::size_t>(std::popcount(bits[stamp / 64] & below));
}

void LruStack::RankIndex::Fill(std::size_t count) noexcept {
  const auto word_count = [count](std::size_t w) -> std::int64_t {
    return static_cast<std::int64_t>(std::min<std::size_t>(
        64, count > 64 * w ? count - 64 * w : 0));
  };
  for (std::size_t w = 0; w < bits.size(); ++w) {
    const auto n = static_cast<unsigned>(word_count(w));
    bits[w] = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  }
  word_counts.Assign(word_count);
}

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
  RankIndex grown;
  if (Ranked() && 2 * (size_ + 1) > ranks_.span()) {
    grown = RankIndex(WordsFor(size_ + 1));
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
  if (grown.bits.empty()) {
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
    ranks_ = RankIndex(WordsFor(size_));  // a throw leaves ranks_ empty
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
    if (Ranked() &&
        (n->stamp >= ranks_.span() ||
         ((ranks_.bits[n->stamp / 64] >> (n->stamp % 64)) & 1) == 0)) {
      return false;
    }
  }
  if (count != size_) return false;
  if (!Ranked()) return true;
  // The index marks exactly the live stamps, and each word's count in the
  // tree matches its bits.
  if (next_stamp_ > ranks_.span()) return false;
  std::size_t marked = 0;
  for (std::size_t w = 0; w < ranks_.bits.size(); ++w) {
    const int ones = std::popcount(ranks_.bits[w]);
    if (ranks_.word_counts.RangeSum(w, w + 1) != ones) return false;
    marked += static_cast<std::size_t>(ones);
  }
  return marked == size_ &&
         ranks_.word_counts.Total() == static_cast<std::int64_t>(size_);
}

}  // namespace pamakv
