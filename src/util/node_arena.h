// NodeArena: a contiguous slab-of-nodes pool addressed by 32-bit indexes,
// with an intrusive free-list, plus IntrusiveChain: a doubly-linked list
// threaded through arena nodes.
//
// These are the hot-path memory primitives shared by every queue structure
// (SegmentedLru, ArcQueue): instead of one heap allocation per item
// (std::list node) plus one per hash entry (std::unordered_map bucket), all
// nodes of a queue live in one std::vector and link to each other by index. Index links are half the size of pointers, survive pool
// growth (a vector reallocation moves the slab but indexes stay valid), and
// keep neighbouring nodes in neighbouring cache lines. Freed nodes are
// recycled LIFO through the free-list, so a steady-state cache — where
// every insert is preceded by an eviction — performs zero heap
// allocations.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cliffhanger {

// Null link / "no node" sentinel shared by all arena users.
inline constexpr uint32_t kNullNode = UINT32_MAX;

// NodeT must expose a public `uint32_t next` member: live nodes use it for
// their chain, freed nodes for the free-list (no extra memory either way).
template <typename NodeT>
class NodeArena {
 public:
  // Returns the index of a node to (re)initialize: recycled from the
  // free-list when possible, freshly grown otherwise. Growth is geometric
  // (std::vector), never per item.
  uint32_t Allocate() {
    if (free_head_ != kNullNode) {
      const uint32_t idx = free_head_;
      free_head_ = nodes_[idx].next;
      --free_count_;
      return idx;
    }
    assert(nodes_.size() < kNullNode);
    nodes_.emplace_back();
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void Free(uint32_t idx) {
    assert(idx < nodes_.size());
    nodes_[idx].next = free_head_;
    free_head_ = idx;
    ++free_count_;
  }

  NodeT& operator[](uint32_t idx) {
    assert(idx < nodes_.size());
    return nodes_[idx];
  }
  const NodeT& operator[](uint32_t idx) const {
    assert(idx < nodes_.size());
    return nodes_[idx];
  }

  // Capacity hint: pre-size the pool for `n` live nodes so mid-replay
  // growth never reallocates. Only ever grows, and never by less than 2x:
  // a plain vector::reserve(n) reallocates to exactly n, so a stream of
  // slowly-increasing hints (FCFS page grants) would copy the whole slab
  // per page — O(n^2). Rounding the growth up keeps hints amortized O(n)
  // while still honoring one big up-front reservation exactly.
  void Reserve(size_t n) {
    if (n <= nodes_.capacity()) return;
    nodes_.reserve(std::max(n, nodes_.capacity() * 2));
  }

  [[nodiscard]] size_t pool_size() const { return nodes_.size(); }
  [[nodiscard]] size_t free_count() const { return free_count_; }
  [[nodiscard]] size_t live_count() const {
    return nodes_.size() - free_count_;
  }

  // Free-list integrity: every free index in range, no cycles, no
  // double-free (duplicate), and chain length == free_count() — together
  // with a caller-side live count check this proves live + free == pool.
  [[nodiscard]] bool CheckFreeList() const {
    std::vector<bool> seen(nodes_.size(), false);
    size_t n = 0;
    for (uint32_t idx = free_head_; idx != kNullNode; idx = nodes_[idx].next) {
      if (idx >= nodes_.size() || seen[idx]) return false;
      seen[idx] = true;
      if (++n > free_count_) return false;
    }
    return n == free_count_;
  }

 private:
  std::vector<NodeT> nodes_;
  uint32_t free_head_ = kNullNode;
  size_t free_count_ = 0;
};

// A doubly-linked chain threaded through arena nodes. NodeT must expose
// public `uint32_t prev, next` members. The chain does not own the nodes:
// callers allocate/free through the arena and use this for O(1) linking —
// moving a node between chains (LRU promotion, cascade demotion, ARC list
// transitions) is pure relinking, with no allocation and no copying.
template <typename NodeT>
struct IntrusiveChain {
  uint32_t head = kNullNode;
  uint32_t tail = kNullNode;
  size_t count = 0;

  [[nodiscard]] bool empty() const { return count == 0; }

  void PushFront(NodeArena<NodeT>& arena, uint32_t idx) {
    NodeT& n = arena[idx];
    n.prev = kNullNode;
    n.next = head;
    if (head != kNullNode) {
      arena[head].prev = idx;
    } else {
      tail = idx;
    }
    head = idx;
    ++count;
  }

  // Insert `idx` immediately after `pos` (pos == kNullNode: at the front).
  void InsertAfter(NodeArena<NodeT>& arena, uint32_t pos, uint32_t idx) {
    if (pos == kNullNode) {
      PushFront(arena, idx);
      return;
    }
    NodeT& n = arena[idx];
    NodeT& p = arena[pos];
    n.prev = pos;
    n.next = p.next;
    if (p.next != kNullNode) {
      arena[p.next].prev = idx;
    } else {
      tail = idx;
    }
    p.next = idx;
    ++count;
  }

  void Remove(NodeArena<NodeT>& arena, uint32_t idx) {
    NodeT& n = arena[idx];
    if (n.prev != kNullNode) {
      arena[n.prev].next = n.next;
    } else {
      head = n.next;
    }
    if (n.next != kNullNode) {
      arena[n.next].prev = n.prev;
    } else {
      tail = n.prev;
    }
    --count;
  }
};

}  // namespace cliffhanger
