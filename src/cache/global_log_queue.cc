#include "cache/global_log_queue.h"

#include <algorithm>

#include "util/slab_geometry.h"

namespace cliffhanger {

GlobalLogQueue::GlobalLogQueue(uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes),
      lru_({{capacity_bytes, SegmentedLru::Unit::kBytes, false}}) {
  ReserveFromCapacity();
}

void GlobalLogQueue::ReserveFromCapacity() {
  // Item footprints are exact (variable) here, so the item count is not
  // knowable from bytes alone; hint the arena for a ~1 KiB mean item,
  // capped at 1M entries. The hint is deliberately conservative: an
  // under-estimate costs nothing (the pool grows geometrically, never per
  // item), while an aggressive guess would pin bookkeeping memory
  // proportional to capacity on large-item workloads.
  lru_.ReserveItems(static_cast<size_t>(
      std::min<uint64_t>(capacity_bytes_ >> 10, 1u << 20)));
}

GetResult GlobalLogQueue::Get(const ItemMeta& item) {
  GetResult result;
  const SegmentedLru::Handle h = lru_.FindHandle(item.key);
  if (h != SegmentedLru::kNoHandle) {
    if (lru_.HandleExpired(h, item.now_s)) {
      lru_.EraseHandle(h);  // lazy expiration, same as the slab queues
      result.expired = true;
      return result;
    }
    lru_.Promote(h, 0);
    result.hit = true;
    result.region = HitRegion::kPhysical;
  }
  return result;
}

void GlobalLogQueue::Fill(const ItemMeta& item) {
  lru_.Erase(item.key);
  SegmentedLru::Entry entry;
  entry.key = item.key;
  // Exact footprint: the log packs items contiguously (100% utilization).
  entry.full_bytes = static_cast<uint32_t>(
      ExactFootprint(item.key_size, item.value_size));
  entry.key_bytes = item.key_size;
  entry.expiry_s = item.expiry_s;
  lru_.Insert(entry, 0);
}

bool GlobalLogQueue::Touch(const ItemMeta& item) {
  const SegmentedLru::Handle h = lru_.FindHandle(item.key);
  if (h == SegmentedLru::kNoHandle) return false;
  if (lru_.HandleExpired(h, item.now_s)) {
    lru_.EraseHandle(h);
    return false;
  }
  if (item.expiry_s != kKeepExpiry) lru_.SetHandleExpiry(h, item.expiry_s);
  lru_.Promote(h, 0);
  return true;
}

void GlobalLogQueue::Delete(uint64_t key) { lru_.Erase(key); }

void GlobalLogQueue::SetCapacityBytes(uint64_t bytes) {
  capacity_bytes_ = bytes;
  lru_.SetCapacity(0, bytes);
  ReserveFromCapacity();
}

}  // namespace cliffhanger
