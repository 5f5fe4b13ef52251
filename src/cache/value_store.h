// ValueStore: the in-arena payload owner for one AppCache — key id ->
// (slab class, value slot), with the slot bytes living in per-class
// ValueArenas (util/value_arena.h).
//
// This replaces the network adapter's heap side-table of std::strings: the
// bytes clients store now live inside slab-class-sized slots, so
// `value_bytes()` / `Occupancy()` report real resident memory and the
// paper's reservation accounting finally governs the payload bytes too.
//
// Residency invariant: a key has a slot iff it is physically resident in
// its class queue. The store keeps itself truthful by being the queue's
// SegmentedLru::Listener —
//  - OnValueDrop (physical -> shadow demotion) frees the slot eagerly but
//    keeps the index entry as shadow-only (class remembered, no payload),
//    so later lookups keep probing the correct slab class;
//  - OnKeyGone (final eviction / delete / lazy-expiry erase) frees the
//    slot and forgets the key entirely.
// Eager reclamation is what closes the old adapter's documented window
// where add/replace consulted a stale liveness guess between an eviction
// and the next GET.
//
// Index packing: 4-bit slab class | 28-bit slot id in one uint32 FlatIndex
// value. kNoSlot (all-28-bits-set) marks shadow-only entries; the packed
// value is always < FlatIndex::kNotFound, so it never aliases "absent".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/segmented_lru.h"
#include "util/flat_index.h"
#include "util/slab_geometry.h"
#include "util/value_arena.h"

namespace cliffhanger {

// A borrowed, zero-copy window onto one stored value. `data` points into
// the slot's arena page and is stable until the next mutation of the
// owning store, or until its ValueLease is returned when one was taken.
struct ValueView {
  const char* data = nullptr;
  uint32_t size = 0;
  uint32_t flags = 0;
  uint64_t cas = 0;
};

// One borrow of a stored value's slot (ValueStore::Lease): while it is
// outstanding the slot's bytes stay put, whatever happens to the key —
// overwrite, rewrite, eviction, delete. Return it with ReturnLease under the
// same lock that guarded the Lease.
struct ValueLease {
  ValueArena* arena = nullptr;
  uint32_t slot = ValueArena::kNullSlot;
};

class ValueStore final : public SegmentedLru::Listener {
 public:
  static constexpr uint32_t kNoSlot = (1u << 28) - 1;  // shadow-only marker

  struct Ref {
    bool found = false;
    int slab_class = -1;
    uint32_t slot = kNoSlot;
    [[nodiscard]] bool has_slot() const { return found && slot != kNoSlot; }
    [[nodiscard]] bool operator==(const Ref& other) const {
      return found == other.found && slab_class == other.slab_class &&
             slot == other.slot;
    }
  };

  ValueStore() = default;
  ValueStore(const ValueStore&) = delete;
  ValueStore& operator=(const ValueStore&) = delete;

  [[nodiscard]] Ref Find(uint64_t key) const;

  // Copy `size` bytes (and the header attributes) into a fresh slot of
  // `slab_class`'s arena and register the key as physically resident,
  // superseding any previous registration (whose slot, if any, is freed).
  void StorePhysical(uint64_t key, int slab_class, const void* data,
                     uint32_t size, uint32_t flags, uint64_t cas,
                     uint32_t stored_s);
  // Register the key as shadow-only in `slab_class`: the class survives so
  // later probes stay in the right queue, but no payload is held.
  void RegisterShadow(uint64_t key, int slab_class);
  // Overwrite `key`'s slot payload and header (same class; `size` must fit
  // the class's chunk). In place, unless the slot is leased: then the new
  // value goes into a fresh slot of the class and the old one is retired,
  // so the borrower keeps reading the old bytes. Flags are preserved only
  // if the caller re-passes them — arithmetic/concat rewrites keep the old
  // flags, which the caller reads from Header() first.
  void RewriteInPlace(uint64_t key, const Ref& ref, const void* data,
                      uint32_t size, uint32_t flags, uint64_t cas,
                      uint32_t stored_s);

  // Borrow leases (see util/value_arena.h). Lease takes one on ref's live
  // slot; ReturnLease gives it back and frees the slot if it was retired
  // meanwhile and this was its last lease.
  [[nodiscard]] ValueLease Lease(const Ref& ref);
  static void ReturnLease(const ValueLease& lease) {
    lease.arena->Unlease(lease.slot);
  }
  // Leases outstanding across every class (0 before the store may die).
  [[nodiscard]] uint64_t leases() const;

  [[nodiscard]] const ValueArena::SlotHeader& Header(const Ref& ref) const;
  void FillView(const Ref& ref, ValueView* view) const;

  // SegmentedLru::Listener — fired by the class queues mid-eviction.
  void OnValueDrop(uint64_t key) override;
  void OnKeyGone(uint64_t key) override;

  // Moves on every call that can change what Find returns for some key:
  // StorePhysical, RegisterShadow, RewriteInPlace, OnValueDrop and
  // OnKeyGone. Reads (Find, Header, FillView) and leases do not move it. A
  // Ref taken before an operation still names the key's slot afterwards if
  // the count is unchanged, so a caller can skip probing again.
  [[nodiscard]] uint64_t mutations() const { return mutations_; }

  // Real memory accounting (the `stats` surface). A retired slot's bytes
  // no longer count: the key that held them is gone.
  [[nodiscard]] uint64_t value_bytes() const { return value_bytes_; }
  [[nodiscard]] size_t tracked_keys() const { return index_.size(); }
  struct ClassOccupancy {
    int slab_class = 0;
    uint32_t chunk_size = 0;
    uint64_t used_chunks = 0;   // live slots (= physically resident items)
    uint64_t retired_chunks = 0;  // freed while leased, awaiting the lease
    uint64_t pool_chunks = 0;   // allocated slots (live + free + retired)
    uint64_t resident_bytes = 0;  // page bytes actually held from the heap
  };
  [[nodiscard]] std::vector<ClassOccupancy> Occupancy() const;

  // Debug/test: every arena's slot states intact (ValueArena::CheckSlots),
  // every indexed slot live, and the byte counter equal to the sum of live
  // slot sizes.
  [[nodiscard]] bool CheckInvariants() const;

 private:
  [[nodiscard]] static uint32_t Pack(int slab_class, uint32_t slot) {
    return (static_cast<uint32_t>(slab_class) << 28) | slot;
  }
  ValueArena& ArenaFor(int slab_class);
  // Free ref's slot (if any) and subtract its bytes. Returns the packed
  // shadow marker for the ref's class.
  uint32_t DropSlot(const Ref& ref);

  FlatIndex index_;
  std::unique_ptr<ValueArena> arenas_[kMaxSlabClasses];
  uint64_t value_bytes_ = 0;
  uint64_t mutations_ = 0;
};

}  // namespace cliffhanger
