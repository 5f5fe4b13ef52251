#include "cache/lfu_queue.h"

#include <cassert>

namespace cliffhanger {

LfuQueue::LfuQueue(uint32_t chunk_size) : chunk_size_(chunk_size) {
  assert(chunk_size > 0);
}

void LfuQueue::DetachItem(uint32_t idx) {
  const uint32_t b = item_arena_[idx].bucket;
  bucket_arena_[b].items.Remove(item_arena_, idx);
  if (bucket_arena_[b].items.empty()) {
    buckets_.Remove(bucket_arena_, b);
    bucket_arena_.Free(b);
  }
}

void LfuQueue::Bump(uint32_t idx) {
  const uint32_t b = item_arena_[idx].bucket;
  const uint64_t freq = bucket_arena_[b].freq;
  const uint32_t next = bucket_arena_[b].next;

  uint32_t target;
  if (next != kNullNode && bucket_arena_[next].freq == freq + 1) {
    target = next;
  } else {
    target = bucket_arena_.Allocate();
    BucketNode& nb = bucket_arena_[target];
    nb.freq = freq + 1;
    nb.items = {};
    buckets_.InsertAfter(bucket_arena_, b, target);
  }
  // Order matters: detach first (which may free bucket `b` and unlink it
  // from the chain) only after `target` was linked relative to `b`.
  bucket_arena_[b].items.Remove(item_arena_, idx);
  if (bucket_arena_[b].items.empty()) {
    buckets_.Remove(bucket_arena_, b);
    bucket_arena_.Free(b);
  }
  bucket_arena_[target].items.PushFront(item_arena_, idx);
  item_arena_[idx].bucket = target;
}

void LfuQueue::EvictOne() {
  if (buckets_.empty()) return;
  const uint32_t b = buckets_.head;  // lowest frequency
  const uint32_t victim = bucket_arena_[b].items.tail;  // LRU in the bucket
  index_.Erase(item_arena_[victim].key);
  DetachItem(victim);
  item_arena_.Free(victim);
}

GetResult LfuQueue::Get(const ItemMeta& item) {
  GetResult result;
  const uint32_t idx = index_.Find(item.key);
  if (idx != FlatIndex::kNotFound) {
    if (ExpiredAt(item_arena_[idx].expiry_s, item.now_s)) {
      // Lazy expiration: frequency history dies with the item, exactly as
      // if it had been evicted — a refill starts back at frequency 1.
      Delete(item.key);
      result.expired = true;
      return result;
    }
    Bump(idx);
    result.hit = true;
    result.region = HitRegion::kPhysical;
  }
  return result;
}

bool LfuQueue::Touch(const ItemMeta& item) {
  const uint32_t idx = index_.Find(item.key);
  if (idx == FlatIndex::kNotFound) return false;
  if (ExpiredAt(item_arena_[idx].expiry_s, item.now_s)) {
    Delete(item.key);
    return false;
  }
  if (item.expiry_s != kKeepExpiry) {
    item_arena_[idx].expiry_s = item.expiry_s;
  }
  Bump(idx);  // a touch is an access: it counts toward frequency
  return true;
}

void LfuQueue::Fill(const ItemMeta& item) {
  if (capacity_items_ == 0) return;
  const uint32_t existing = index_.Find(item.key);
  if (existing != FlatIndex::kNotFound) {
    item_arena_[existing].expiry_s = item.expiry_s;  // fresh store, fresh TTL
    Bump(existing);
    return;
  }
  while (index_.size() >= capacity_items_) EvictOne();

  // Admit at frequency 1: the head bucket if it is the freq-1 bucket,
  // otherwise a fresh bucket at the front of the chain.
  uint32_t b = buckets_.head;
  if (b == kNullNode || bucket_arena_[b].freq != 1) {
    b = bucket_arena_.Allocate();
    BucketNode& nb = bucket_arena_[b];
    nb.freq = 1;
    nb.items = {};
    buckets_.PushFront(bucket_arena_, b);
  }
  const uint32_t idx = item_arena_.Allocate();
  ItemNode& n = item_arena_[idx];
  n.key = item.key;
  n.bucket = b;
  n.expiry_s = item.expiry_s;
  bucket_arena_[b].items.PushFront(item_arena_, idx);
  index_.Insert(item.key, idx);
}

void LfuQueue::Delete(uint64_t key) {
  const uint32_t idx = index_.Find(key);
  if (idx == FlatIndex::kNotFound) return;
  DetachItem(idx);
  item_arena_.Free(idx);
  index_.Erase(key);
}

void LfuQueue::SetCapacityBytes(uint64_t bytes) {
  capacity_bytes_ = bytes;
  capacity_items_ = bytes / chunk_size_;
  item_arena_.Reserve(static_cast<size_t>(capacity_items_));
  index_.Reserve(static_cast<size_t>(capacity_items_));
  while (index_.size() > capacity_items_) EvictOne();
}

uint64_t LfuQueue::FrequencyOf(uint64_t key) const {
  const uint32_t idx = index_.Find(key);
  return idx == FlatIndex::kNotFound
             ? 0
             : bucket_arena_[item_arena_[idx].bucket].freq;
}

bool LfuQueue::CheckInvariants() const {
  size_t total = 0;
  uint64_t prev_freq = 0;
  size_t bucket_count = 0;
  uint32_t prev_b = kNullNode;
  for (uint32_t b = buckets_.head; b != kNullNode;
       b = bucket_arena_[b].next) {
    const BucketNode& bucket = bucket_arena_[b];
    if (bucket.prev != prev_b) return false;
    if (bucket.freq <= prev_freq) return false;  // strictly ascending
    if (bucket.items.empty()) return false;
    size_t walked = 0;
    uint32_t prev_i = kNullNode;
    for (uint32_t idx = bucket.items.head; idx != kNullNode;
         idx = item_arena_[idx].next) {
      const ItemNode& n = item_arena_[idx];
      if (n.prev != prev_i || n.bucket != b) return false;
      if (index_.Find(n.key) != idx) return false;
      prev_i = idx;
      if (++walked > bucket.items.count) return false;
    }
    if (walked != bucket.items.count || bucket.items.tail != prev_i) {
      return false;
    }
    total += bucket.items.count;
    prev_freq = bucket.freq;
    prev_b = b;
    if (++bucket_count > buckets_.count) return false;
  }
  if (bucket_count != buckets_.count || buckets_.tail != prev_b) return false;
  if (total != index_.size() || total > capacity_items_) return false;
  // Arena accounting for both pools: no leaks, no double-free.
  return item_arena_.live_count() == total && item_arena_.CheckFreeList() &&
         bucket_arena_.live_count() == bucket_count &&
         bucket_arena_.CheckFreeList();
}

}  // namespace cliffhanger
