#include "cache/segmented_lru.h"

#include <cassert>

#include "cache/types.h"

namespace cliffhanger {

SegmentedLru::SegmentedLru(std::vector<SegmentConfig> segments) {
  assert(!segments.empty());
  segments_.resize(segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    segments_[i].config = segments[i];
  }
}

int SegmentedLru::Find(uint64_t key) const {
  const uint32_t idx = index_.Find(key);
  return idx == FlatIndex::kNotFound ? -1
                                     : static_cast<int>(arena_[idx].seg);
}

SegmentedLru::Handle SegmentedLru::FindHandle(uint64_t key) const {
  const uint32_t idx = index_.Find(key);
  return idx == FlatIndex::kNotFound ? kNoHandle : idx;
}

int SegmentedLru::HandleSegment(Handle h) const {
  return static_cast<int>(arena_[h].seg);
}

void SegmentedLru::Promote(Handle h, size_t target_seg) {
  Detach(h);
  AttachFront(target_seg, h);
  Cascade(target_seg);
}

void SegmentedLru::Detach(uint32_t idx) {
  Segment& s = segments_[arena_[idx].seg];
  s.bytes -= Charge(s, arena_[idx]);
  s.chain.Remove(arena_, idx);
}

void SegmentedLru::AttachFront(size_t seg, uint32_t idx) {
  Segment& s = segments_[seg];
  arena_[idx].seg = static_cast<uint32_t>(seg);
  s.chain.PushFront(arena_, idx);
  s.bytes += Charge(s, arena_[idx]);
}

uint32_t SegmentedLru::HandleExpiry(Handle h) const {
  return arena_[h].expiry_s;
}

void SegmentedLru::SetHandleExpiry(Handle h, uint32_t expiry_s) {
  arena_[h].expiry_s = expiry_s;
}

bool SegmentedLru::HandleExpired(Handle h, uint32_t now_s) const {
  return ExpiredAt(arena_[h].expiry_s, now_s);
}

void SegmentedLru::Erase(uint64_t key) {
  const uint32_t idx = index_.Find(key);
  if (idx == FlatIndex::kNotFound) return;
  Detach(idx);
  index_.Erase(key);
  arena_.Free(idx);
  if (listener_ != nullptr) listener_->OnKeyGone(key);
}

void SegmentedLru::EraseHandle(Handle h) {
  const uint64_t key = arena_[h].key;
  Detach(h);
  index_.Erase(key);
  arena_.Free(h);
  if (listener_ != nullptr) listener_->OnKeyGone(key);
}

bool SegmentedLru::MoveToFront(uint64_t key, size_t target_seg) {
  const Handle h = FindHandle(key);
  if (h == kNoHandle) return false;
  Promote(h, target_seg);
  return true;
}

void SegmentedLru::Insert(const Entry& entry, size_t target_seg) {
  assert(!index_.Contains(entry.key));
  const uint32_t idx = arena_.Allocate();
  Node& n = arena_[idx];
  n.key = entry.key;
  n.full_bytes = entry.full_bytes;
  n.key_bytes = entry.key_bytes;
  n.expiry_s = entry.expiry_s;
  index_.Insert(entry.key, idx);
  AttachFront(target_seg, idx);
  Cascade(target_seg);
}

void SegmentedLru::SetCapacity(size_t seg, uint64_t capacity) {
  segments_[seg].config.capacity = capacity;
  Cascade(seg);
}

void SegmentedLru::ReserveItems(size_t items) {
  arena_.Reserve(items);
  index_.Reserve(items);
}

void SegmentedLru::Cascade(size_t seg) {
  for (size_t i = seg; i < segments_.size(); ++i) {
    Segment& s = segments_[i];
    while (!s.chain.empty() && Load(s) > s.config.capacity) {
      const uint32_t victim = s.chain.tail;
      Detach(victim);
      if (i + 1 < segments_.size()) {
        // Pure relink: the node index (and the key's index entry) survive
        // the demotion; only the segment chain and charge change. Crossing
        // the physical -> keys-only boundary is the moment the value bytes
        // stop being resident: tell the payload owner to reclaim eagerly.
        // (Listener check first: the listener-free simulation paths pay
        // one predictable branch here, nothing more.)
        AttachFront(i + 1, victim);
        if (listener_ != nullptr && !s.config.keys_only &&
            segments_[i + 1].config.keys_only) {
          listener_->OnValueDrop(arena_[victim].key);
        }
      } else {
        const uint64_t key = arena_[victim].key;
        index_.Erase(key);
        arena_.Free(victim);
        if (listener_ != nullptr) listener_->OnKeyGone(key);
      }
    }
  }
}

uint64_t SegmentedLru::segment_capacity(size_t seg) const {
  return segments_[seg].config.capacity;
}

size_t SegmentedLru::segment_items(size_t seg) const {
  return segments_[seg].chain.count;
}

uint64_t SegmentedLru::segment_bytes(size_t seg) const {
  return segments_[seg].bytes;
}

size_t SegmentedLru::physical_items() const {
  size_t n = 0;
  for (const Segment& s : segments_) {
    if (!s.config.keys_only) n += s.chain.count;
  }
  return n;
}

uint64_t SegmentedLru::physical_bytes() const {
  uint64_t n = 0;
  for (const Segment& s : segments_) {
    if (!s.config.keys_only) n += s.bytes;
  }
  return n;
}

bool SegmentedLru::CheckInvariants() const {
  size_t total = 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    total += s.chain.count;
    if (Load(s) > s.config.capacity && s.chain.count > 1) return false;
    uint64_t bytes = 0;
    size_t walked = 0;
    uint32_t prev = kNullNode;
    for (uint32_t idx = s.chain.head; idx != kNullNode;
         idx = arena_[idx].next) {
      const Node& n = arena_[idx];
      if (n.prev != prev || n.seg != i) return false;
      if (index_.Find(n.key) != idx) return false;
      bytes += Charge(s, n);
      prev = idx;
      if (++walked > s.chain.count) return false;  // cycle / count drift
    }
    if (walked != s.chain.count || s.chain.tail != prev) return false;
    if (bytes != s.bytes) return false;
  }
  if (total != index_.size()) return false;
  // Arena accounting: every pool node is either in exactly one chain (the
  // walks above visited `total` distinct live nodes) or on the free-list.
  return arena_.live_count() == total && arena_.CheckFreeList();
}

}  // namespace cliffhanger
