#include "cache/arc_queue.h"

#include <algorithm>
#include <cassert>

namespace cliffhanger {

ArcQueue::ArcQueue(uint32_t chunk_size) : chunk_size_(chunk_size) {
  assert(chunk_size > 0);
}

void ArcQueue::Remove(uint32_t idx) {
  Node& n = arena_[idx];
  ChainOf(static_cast<List>(n.list)).Remove(arena_, idx);
  index_.Erase(n.key);
  arena_.Free(idx);
}

void ArcQueue::MoveToMru(uint32_t idx, List list) {
  Node& n = arena_[idx];
  ChainOf(static_cast<List>(n.list)).Remove(arena_, idx);
  n.list = static_cast<uint32_t>(list);
  ChainOf(list).PushFront(arena_, idx);
}

void ArcQueue::InsertMru(List list, uint64_t key, uint32_t expiry_s) {
  const uint32_t idx = arena_.Allocate();
  Node& n = arena_[idx];
  n.key = key;
  n.list = static_cast<uint32_t>(list);
  n.expiry_s = expiry_s;
  ChainOf(list).PushFront(arena_, idx);
  index_.Insert(key, idx);
}

void ArcQueue::EvictGhostLru(List list) {
  IntrusiveChain<Node>& chain = ChainOf(list);
  if (chain.empty()) return;
  Remove(chain.tail);
}

void ArcQueue::Replace(bool in_b2) {
  const auto t1 = static_cast<double>(t1_items());
  if (t1_items() > 0 && (t1 > p_ || (in_b2 && t1 == p_))) {
    MoveToMru(ChainOf(List::kT1).tail, List::kB1);
  } else if (t2_items() > 0) {
    MoveToMru(ChainOf(List::kT2).tail, List::kB2);
  } else if (t1_items() > 0) {
    MoveToMru(ChainOf(List::kT1).tail, List::kB1);
  }
}

GetResult ArcQueue::Get(const ItemMeta& item) {
  GetResult result;
  if (capacity_items_ == 0) return result;
  uint32_t found = index_.Find(item.key);
  if (found != FlatIndex::kNotFound) {
    const Node& n = arena_[found];
    const List list = static_cast<List>(n.list);
    if ((list == List::kT1 || list == List::kT2) &&
        ExpiredAt(n.expiry_s, item.now_s)) {
      // Lazy expiration of a resident item; fall through to the complete-
      // miss path (Case IV) so the access re-admits like any cold key.
      // Ghost entries keep their (stale) expiry: they are keys-only
      // eviction history, and promotion out of a ghost re-stamps it.
      Remove(found);
      found = FlatIndex::kNotFound;
      result.expired = true;
    }
  }
  const List in = found == FlatIndex::kNotFound
                      ? List::kT1  // unused
                      : static_cast<List>(arena_[found].list);
  const double c = static_cast<double>(capacity_items_);

  if (found != FlatIndex::kNotFound &&
      (in == List::kT1 || in == List::kT2)) {
    // Case I: hit — promote to MRU of T2.
    MoveToMru(found, List::kT2);
    result.hit = true;
    result.region = HitRegion::kPhysical;
    return result;
  }

  if (found != FlatIndex::kNotFound && in == List::kB1) {
    // Case II: ghost hit in B1 — grow the recency target.
    const double delta =
        b1_items() == 0 ? 1.0
                        : std::max(1.0, static_cast<double>(b2_items()) /
                                            static_cast<double>(b1_items()));
    p_ = std::min(c, p_ + delta);
    Replace(/*in_b2=*/false);
    arena_[found].expiry_s = item.expiry_s;  // ghost -> resident: re-admit
    MoveToMru(found, List::kT2);
    result.region = HitRegion::kHillShadow;  // ghost hit: shadow-like signal
    return result;
  }

  if (found != FlatIndex::kNotFound && in == List::kB2) {
    // Case III: ghost hit in B2 — grow the frequency target.
    const double delta =
        b2_items() == 0 ? 1.0
                        : std::max(1.0, static_cast<double>(b1_items()) /
                                            static_cast<double>(b2_items()));
    p_ = std::max(0.0, p_ - delta);
    Replace(/*in_b2=*/true);
    arena_[found].expiry_s = item.expiry_s;  // ghost -> resident: re-admit
    MoveToMru(found, List::kT2);
    result.region = HitRegion::kHillShadow;
    return result;
  }

  // Case IV: complete miss — make room and admit into T1.
  const size_t l1 = t1_items() + b1_items();
  const size_t l2 = t2_items() + b2_items();
  if (l1 == capacity_items_) {
    if (t1_items() < capacity_items_) {
      EvictGhostLru(List::kB1);
      Replace(/*in_b2=*/false);
    } else {
      // B1 is empty; evict the LRU page of T1 outright.
      Remove(ChainOf(List::kT1).tail);
    }
  } else if (l1 < capacity_items_ && l1 + l2 >= capacity_items_) {
    if (l1 + l2 == 2 * capacity_items_) EvictGhostLru(List::kB2);
    Replace(/*in_b2=*/false);
  }
  InsertMru(List::kT1, item.key, item.expiry_s);
  result.region = HitRegion::kMiss;
  return result;
}

void ArcQueue::Fill(const ItemMeta& item) {
  // Get() already admitted the key on a miss; an explicit SET of a
  // resident key re-stamps its expiry (a fresh store replaces the TTL).
  const uint32_t idx = index_.Find(item.key);
  if (idx == FlatIndex::kNotFound) {
    (void)Get(item);
    return;
  }
  arena_[idx].expiry_s = item.expiry_s;
}

bool ArcQueue::Touch(const ItemMeta& item) {
  const uint32_t idx = index_.Find(item.key);
  if (idx == FlatIndex::kNotFound) return false;
  Node& n = arena_[idx];
  const List list = static_cast<List>(n.list);
  if (list != List::kT1 && list != List::kT2) return false;  // ghost
  if (ExpiredAt(n.expiry_s, item.now_s)) {
    Remove(idx);
    return false;
  }
  if (item.expiry_s != kKeepExpiry) n.expiry_s = item.expiry_s;
  // A touch is a frequency signal like any other access: promote to T2
  // without the ghost-adaptation step (the item was resident).
  MoveToMru(idx, List::kT2);
  return true;
}

void ArcQueue::Delete(uint64_t key) {
  const uint32_t idx = index_.Find(key);
  if (idx != FlatIndex::kNotFound) Remove(idx);
}

void ArcQueue::SetCapacityBytes(uint64_t bytes) {
  capacity_bytes_ = bytes;
  capacity_items_ = bytes / chunk_size_;
  p_ = std::min(p_, static_cast<double>(capacity_items_));
  // Capacity hint: resident (T1+T2 <= c) plus ghosts (total <= 2c).
  arena_.Reserve(static_cast<size_t>(2 * capacity_items_));
  index_.Reserve(static_cast<size_t>(2 * capacity_items_));
  // Trim to the new capacity.
  while (t1_items() + t2_items() > capacity_items_) {
    Replace(/*in_b2=*/false);
  }
  while (t1_items() + b1_items() > capacity_items_ && b1_items() > 0) {
    EvictGhostLru(List::kB1);
  }
  while (index_.size() > 2 * capacity_items_ && b2_items() > 0) {
    EvictGhostLru(List::kB2);
  }
}

bool ArcQueue::CheckInvariants() const {
  if (capacity_items_ == 0) return index_.size() == 0;
  if (t1_items() + t2_items() > capacity_items_) return false;
  if (t1_items() + b1_items() > capacity_items_) return false;
  if (index_.size() > 2 * capacity_items_) return false;
  if (p_ < 0.0 || p_ > static_cast<double>(capacity_items_)) return false;
  // Chain/index/arena consistency: walk all four chains, verifying links,
  // membership tags and index entries; then live + free == pool.
  size_t total = 0;
  for (size_t l = 0; l < chains_.size(); ++l) {
    const IntrusiveChain<Node>& chain = chains_[l];
    size_t walked = 0;
    uint32_t prev = kNullNode;
    for (uint32_t idx = chain.head; idx != kNullNode;
         idx = arena_[idx].next) {
      const Node& n = arena_[idx];
      if (n.prev != prev || n.list != l) return false;
      if (index_.Find(n.key) != idx) return false;
      prev = idx;
      if (++walked > chain.count) return false;
    }
    if (walked != chain.count || chain.tail != prev) return false;
    total += chain.count;
  }
  if (total != index_.size()) return false;
  return arena_.live_count() == total && arena_.CheckFreeList();
}

}  // namespace cliffhanger
