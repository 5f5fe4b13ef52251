// SegmentedLru: an LRU list partitioned into consecutive capacity-bounded
// segments with cascade demotion. This single structure realizes the queue
// layout of the paper's Figure 5:
//
//   [ head | mid | tail(128 items) | cliff shadow(128) | hill shadow(1MB) ]
//     ^~~~~~~~~~ physical (keys + values) ~~~~~~~^  ^~~ keys only ~~~~~~^
//
// An item demoted out of a segment is pushed onto the front of the next
// segment; demotion out of the last segment evicts it. Shadow segments
// charge only key bytes; their capacity is expressed in items (the paper
// sizes shadows as "1 MB of requests", i.e. represented_bytes / chunk keys).
//
// Which segment a lookup lands in tells the caller everything the
// Cliffhanger algorithms need: a tail hit is a hit "left of the pointer", a
// cliff-shadow hit is "right of the pointer", a hill-shadow hit earns the
// queue a credit (Algorithms 1-2).
//
// Memory layout: nodes live in a NodeArena (one contiguous pool, 32-bit
// prev/next links, free-list recycling) and the key index is a FlatIndex
// (open addressing, no per-entry allocation) — see util/node_arena.h and
// docs/ARCHITECTURE.md "Memory layout & hot path". Every mutation is pure
// relinking: a GET promotion or a cascade demotion moves node *indexes*
// between segment chains and never copies an Entry or touches the heap.
// The demotion/eviction order is identical to the former std::list
// implementation, so replay results are bit-for-bit unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/flat_index.h"
#include "util/node_arena.h"

namespace cliffhanger {

class SegmentedLru {
 public:
  enum class Unit : uint8_t { kBytes, kItems };

  // Eviction observer for payload owners (cache/value_store.h). The queue
  // itself stores no value bytes; a listener tracking which keys are
  // physically resident needs exactly two signals:
  //  - OnValueDrop: a cascade demoted the key across the physical ->
  //    keys-only boundary. The key's value bytes are no longer resident
  //    (only its shadow ghost remains); reclaim them eagerly.
  //  - OnKeyGone: the key left the structure entirely (final eviction off
  //    the last segment, Erase, or EraseHandle — including the
  //    lazy-expiry erase path).
  // Callbacks fire while the queue is mid-mutation: implementations must
  // not call back into this SegmentedLru.
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void OnValueDrop(uint64_t key) = 0;
    virtual void OnKeyGone(uint64_t key) = 0;
  };
  void SetListener(Listener* listener) { listener_ = listener; }

  struct SegmentConfig {
    uint64_t capacity = 0;
    Unit unit = Unit::kBytes;
    bool keys_only = false;  // shadow segment: charge key bytes, drop values
  };

  struct Entry {
    uint64_t key = 0;
    uint32_t full_bytes = 0;  // chunk footprint while in a physical segment
    uint32_t key_bytes = 0;   // footprint while in a keys-only segment
    uint32_t expiry_s = 0;    // absolute expiry second; 0 = never
  };

  explicit SegmentedLru(std::vector<SegmentConfig> segments);

  // Segment index containing `key`, or -1. Does not change recency.
  [[nodiscard]] int Find(uint64_t key) const;

  // Handle-based fast path: a Handle names the key's pool node and stays
  // valid until that key is erased or evicted (relinking between segments
  // never moves nodes). Lets a caller resolve the key once and then act on
  // it — the Find + MoveToFront hit path costs one index probe, not two.
  using Handle = uint32_t;
  static constexpr Handle kNoHandle = kNullNode;
  [[nodiscard]] Handle FindHandle(uint64_t key) const;
  [[nodiscard]] int HandleSegment(Handle h) const;
  // Move the node behind `h` to the front of `target_seg`; `h` must be
  // valid (obtained from FindHandle and not erased/evicted since).
  void Promote(Handle h, size_t target_seg);

  // Expiry metadata on the node behind a valid handle. Expiry is a stored
  // attribute only — enforcement (the lazy expire-on-access path) is the
  // caller's: check HandleExpired, then EraseHandle and report a miss.
  [[nodiscard]] uint32_t HandleExpiry(Handle h) const;
  void SetHandleExpiry(Handle h, uint32_t expiry_s);
  [[nodiscard]] bool HandleExpired(Handle h, uint32_t now_s) const;

  // Remove `key` from whichever segment holds it. No-op when absent.
  void Erase(uint64_t key);
  // Remove the node behind a valid handle (one probe cheaper than Erase
  // when the caller already resolved the key — the lazy-expiration path).
  void EraseHandle(Handle h);

  // Move an existing key to the front of `target_seg` (LRU promotion or
  // midpoint insertion policy). Returns false when the key is absent.
  bool MoveToFront(uint64_t key, size_t target_seg = 0);

  // Insert a new key at the front of `target_seg`. The key must be absent.
  void Insert(const Entry& entry, size_t target_seg = 0);

  // Adjust one segment's capacity; overflow cascades immediately.
  void SetCapacity(size_t seg, uint64_t capacity);

  // Capacity hint: pre-size the node pool and the key index for `items`
  // simultaneously-resident entries (physical + shadows), so a replay at
  // that size never grows or rehashes mid-stream. Grows only.
  void ReserveItems(size_t items);

  [[nodiscard]] uint64_t segment_capacity(size_t seg) const;
  [[nodiscard]] size_t segment_items(size_t seg) const;
  [[nodiscard]] uint64_t segment_bytes(size_t seg) const;  // charged bytes
  [[nodiscard]] size_t total_items() const { return index_.size(); }

  // Items in the physical (non-keys-only) segments and their charged bytes.
  [[nodiscard]] size_t physical_items() const;
  [[nodiscard]] uint64_t physical_bytes() const;

  // Debug/test invariant: every segment is within capacity, the chains are
  // well-linked, the index is consistent with the chains, and the arena
  // free-list is intact (no leaks, no double-free, live + free == pool).
  [[nodiscard]] bool CheckInvariants() const;

 private:
  struct Node {
    uint64_t key = 0;
    uint32_t full_bytes = 0;
    uint32_t key_bytes = 0;
    uint32_t prev = kNullNode;
    uint32_t next = kNullNode;
    uint32_t seg = 0;
    // Rides in what was alignment padding: sizeof(Node) stays 32, so the
    // §5.7 shadow-overhead accounting is unchanged by expiry support.
    uint32_t expiry_s = 0;
  };
  static_assert(sizeof(Node) == 32, "expiry_s must fit the padding slack");

 public:
  // Honest per-item bookkeeping footprint of this implementation: one pool
  // node (whose 8-byte stored key is charged separately via key bytes) plus
  // one flat-index slot. Feeds the §5.7 shadow-overhead accounting.
  static constexpr uint32_t kPerItemOverheadBytes = static_cast<uint32_t>(
      sizeof(Node) - sizeof(uint64_t) + FlatIndex::kSlotBytes);

 private:
  struct Segment {
    SegmentConfig config;
    IntrusiveChain<Node> chain;
    uint64_t bytes = 0;  // charged bytes (full or key bytes per keys_only)
  };

  [[nodiscard]] static uint64_t Charge(const Segment& s, const Node& n) {
    return s.config.keys_only ? n.key_bytes : n.full_bytes;
  }
  [[nodiscard]] static uint64_t Load(const Segment& s) {
    return s.config.unit == Unit::kItems ? s.chain.count : s.bytes;
  }
  // Unlink node `idx` from its current segment (charge released).
  void Detach(uint32_t idx);
  // Link node `idx` at the front of segment `seg` (charge applied).
  void AttachFront(size_t seg, uint32_t idx);
  // Demote overflow starting at segment `seg` down the chain.
  void Cascade(size_t seg);

  std::vector<Segment> segments_;
  NodeArena<Node> arena_;
  FlatIndex index_;
  Listener* listener_ = nullptr;
};

}  // namespace cliffhanger
