// ValueArena: a page-based pool of fixed-stride value slots for one slab
// class — the in-cache home of real payload bytes (ISSUE 8 / ROADMAP
// "in-arena value storage").
//
// Each slot is one slab-class chunk: a 32-byte SlotHeader (cas, size,
// flags, store time, free-list link, lease state) followed by the value
// payload. The stride equals the class's chunk size, so `live_slots() *
// chunk_size` is the class's true resident footprint — the same quantity
// the paper's per-class accounting charges. Slots live inside kPageSize
// pages (one slot per page for chunk sizes above the page size) that are
// allocated once and never moved or released, so a pointer into a slot's
// payload is stable for the arena's lifetime.
//
// Borrow leases keep a slot's *contents* stable too. A reader that wants
// to use a payload span after the owner's lock is released (the network
// front writes GET hits straight from the arena) takes a Lease() under the
// lock and gives it back with Unlease() under the lock. Freeing a leased
// slot (eviction, delete, overwrite) retires it instead of recycling it:
// the slot leaves the live count but stays off the free-list, bytes
// intact, until its last lease is returned. So a slot is in exactly one of
// three states, and pool = live + free + retired.
//
// The free-list is threaded through SlotHeader::free_next — deliberately
// NOT through the payload bytes, so a freed slot's bytes stay intact until
// genuine reuse. Steady-state churn (every allocate preceded by a free or a
// returned lease) touches the heap zero times.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/slab_geometry.h"

namespace cliffhanger {

class ValueArena {
 public:
  static constexpr uint32_t kNullSlot = UINT32_MAX;

  struct SlotHeader {
    uint64_t cas = 0;
    uint32_t value_size = 0;
    uint32_t flags = 0;
    uint32_t stored_s = 0;
    uint32_t free_next = kNullSlot;  // free-list link; kNullSlot unless free
    uint32_t leases = 0;             // borrows outstanding (Lease/Unlease)
    uint32_t retired = 0;            // 1: freed while leased
  };
  static constexpr size_t kHeaderBytes = sizeof(SlotHeader);
  static_assert(sizeof(SlotHeader) == 32, "slot layout is part of the API");
  static_assert(kHeaderBytes <= kItemOverhead,
                "every admitted item must fit its slot's payload");

  explicit ValueArena(uint32_t chunk_size)
      : stride_(chunk_size),
        slots_per_page_(std::max<uint64_t>(1, kPageSize / chunk_size)) {
    assert(chunk_size > kHeaderBytes);
  }
  ValueArena(const ValueArena&) = delete;
  ValueArena& operator=(const ValueArena&) = delete;

  // Bytes of payload a slot can hold. Every admitted item fits: the slab
  // geometry guarantees key_size + value_size + kItemOverhead(32) <= chunk,
  // and the header (32) is no larger than kItemOverhead.
  [[nodiscard]] uint32_t payload_capacity() const {
    return stride_ - static_cast<uint32_t>(kHeaderBytes);
  }
  [[nodiscard]] uint32_t chunk_size() const { return stride_; }

  // Returns a slot to (re)initialize: recycled LIFO from the free-list
  // when possible, carved from the last page otherwise (growing by one
  // page when full). Headers are caller-initialized; payload bytes of a
  // recycled slot keep their previous contents until overwritten.
  uint32_t Allocate() {
    if (free_head_ != kNullSlot) {
      const uint32_t slot = free_head_;
      free_head_ = header(slot)->free_next;
      header(slot)->free_next = kNullSlot;
      ++live_slots_;
      return slot;
    }
    const uint64_t pool = pool_slots_;
    if (pool == pages_.size() * slots_per_page_) {
      pages_.push_back(std::make_unique<char[]>(slots_per_page_ * stride_));
    }
    assert(pool < kNullSlot);
    ++pool_slots_;
    ++live_slots_;
    const auto slot = static_cast<uint32_t>(pool);
    *header(slot) = SlotHeader{};
    return slot;
  }

  // Gives a live slot up. An unleased slot goes straight onto the
  // free-list; a leased one is retired until Unlease() returns its last
  // lease, so Allocate() can never hand a borrowed slot back out.
  void Free(uint32_t slot) {
    assert(slot < pool_slots_);
    SlotHeader* h = header(slot);
    assert(h->free_next == kNullSlot && h->retired == 0);
    assert(live_slots_ > 0);
    --live_slots_;
    if (h->leases > 0) {
      h->retired = 1;
      ++retired_slots_;
      return;
    }
    PushFree(slot, h);
  }

  // Takes one borrow on a live slot. Until the matching Unlease() the slot
  // is never recycled (Free() retires it), and its owner must not rewrite
  // it in place (ValueStore copies on write instead).
  void Lease(uint32_t slot) {
    SlotHeader* h = header(slot);
    assert(h->free_next == kNullSlot && h->retired == 0);
    ++h->leases;
    ++leases_;
  }
  // Returns one borrow; the last lease of a retired slot frees it.
  void Unlease(uint32_t slot) {
    SlotHeader* h = header(slot);
    assert(h->leases > 0 && leases_ > 0);
    --leases_;
    if (--h->leases > 0 || h->retired == 0) return;
    h->retired = 0;
    --retired_slots_;
    PushFree(slot, h);
  }
  [[nodiscard]] bool leased(uint32_t slot) const {
    return header(slot)->leases > 0;
  }

  [[nodiscard]] SlotHeader* header(uint32_t slot) {
    return reinterpret_cast<SlotHeader*>(SlotBase(slot));
  }
  [[nodiscard]] const SlotHeader* header(uint32_t slot) const {
    return reinterpret_cast<const SlotHeader*>(SlotBase(slot));
  }
  [[nodiscard]] char* payload(uint32_t slot) {
    return SlotBase(slot) + kHeaderBytes;
  }
  [[nodiscard]] const char* payload(uint32_t slot) const {
    return SlotBase(slot) + kHeaderBytes;
  }

  [[nodiscard]] uint64_t live_slots() const { return live_slots_; }
  [[nodiscard]] uint64_t retired_slots() const { return retired_slots_; }
  [[nodiscard]] uint64_t leases() const { return leases_; }
  [[nodiscard]] uint64_t pool_slots() const { return pool_slots_; }
  [[nodiscard]] size_t pages() const { return pages_.size(); }
  [[nodiscard]] uint64_t resident_bytes() const {
    return pages_.size() * slots_per_page_ * stride_;
  }

  // Slot-state integrity: every free slot in range, no cycles, pool =
  // live + free + retired, free slots carry no lease, every retired slot
  // still has one, and the lease and retired counters match the headers.
  [[nodiscard]] bool CheckSlots() const {
    std::vector<bool> free(pool_slots_, false);
    const uint64_t free_slots = pool_slots_ - live_slots_ - retired_slots_;
    uint64_t n = 0;
    for (uint32_t s = free_head_; s != kNullSlot; s = header(s)->free_next) {
      if (s >= pool_slots_ || free[s]) return false;
      free[s] = true;
      if (++n > free_slots) return false;
    }
    if (n != free_slots) return false;
    uint64_t retired = 0;
    uint64_t leases = 0;
    for (uint32_t s = 0; s < pool_slots_; ++s) {
      const SlotHeader* h = header(s);
      if (free[s] ? (h->leases != 0 || h->retired != 0)
                  : (h->retired != 0 && h->leases == 0)) {
        return false;
      }
      retired += h->retired;
      leases += h->leases;
    }
    return retired == retired_slots_ && leases == leases_;
  }

 private:
  void PushFree(uint32_t slot, SlotHeader* h) {
    h->free_next = free_head_;
    free_head_ = slot;
  }
  [[nodiscard]] char* SlotBase(uint32_t slot) {
    assert(slot < pool_slots_);
    return pages_[slot / slots_per_page_].get() +
           (slot % slots_per_page_) * stride_;
  }
  [[nodiscard]] const char* SlotBase(uint32_t slot) const {
    assert(slot < pool_slots_);
    return pages_[slot / slots_per_page_].get() +
           (slot % slots_per_page_) * stride_;
  }

  uint64_t stride_;
  uint64_t slots_per_page_;
  std::vector<std::unique_ptr<char[]>> pages_;
  uint32_t free_head_ = kNullSlot;
  uint64_t pool_slots_ = 0;
  uint64_t live_slots_ = 0;
  uint64_t retired_slots_ = 0;
  uint64_t leases_ = 0;
};

}  // namespace cliffhanger
