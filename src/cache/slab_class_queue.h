// SlabClassQueue: one side of a (possibly partitioned) slab-class queue,
// with the segment layout of Figure 5, and PartitionedSlabQueue: the
// left/right pair with Talus-style hash routing that the cliff-scaling
// algorithm drives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cache/segmented_lru.h"
#include "cache/types.h"

namespace cliffhanger {

// Where a key currently stands in a queue, residency-wise: physically
// resident (value bytes live), shadow ghost (key only), or absent. Used by
// the value store registration path (core/cache_server.cc) to decide
// whether a just-filled item actually kept its payload.
enum class Residency : uint8_t { kAbsent, kShadow, kPhysical };

struct SlabQueueConfig {
  uint32_t chunk_size = 64;           // all items in a class cost one chunk
  InsertionPolicy policy = InsertionPolicy::kLru;
  uint32_t tail_items = 128;          // "last part of the queue" (§5.1)
  uint32_t cliff_shadow_items = 128;  // small shadow for the 2nd derivative
  uint64_t hill_shadow_bytes = 1 << 20;  // represented bytes (1 MB default)
};

// One physical queue + its shadows. Capacity is expressed in bytes of chunk
// footprint; internally the queue reasons in items (bytes / chunk).
class SlabClassQueue final : public ClassQueue {
 public:
  explicit SlabClassQueue(const SlabQueueConfig& config);

  GetResult Get(const ItemMeta& item) override;
  void Fill(const ItemMeta& item) override;
  bool Touch(const ItemMeta& item) override;
  void Delete(uint64_t key) override;

  // Eviction observer for the in-arena value store (threaded down to the
  // underlying SegmentedLru; see SegmentedLru::Listener).
  void SetListener(SegmentedLru::Listener* listener) {
    lru_.SetListener(listener);
  }
  // Passive residency probe: no recency change, no expiry enforcement, no
  // statistics.
  [[nodiscard]] Residency ResidencyOf(uint64_t key) const;
  // Passive read of a physically resident key's stored expiry. Returns
  // false when the key is absent or shadow-only. Like ResidencyOf, mutates
  // nothing — expiry enforcement stays on the access paths.
  [[nodiscard]] bool PeekPhysical(uint64_t key, uint32_t* expiry_s) const;

  void SetCapacityBytes(uint64_t bytes) override;
  void SetCapacityItems(uint64_t items);
  // Resize the hill shadow (used when a partition's share changes).
  void SetHillShadowBytes(uint64_t represented_bytes);

  [[nodiscard]] uint64_t capacity_bytes() const override {
    return capacity_items_ * config_.chunk_size;
  }
  [[nodiscard]] uint64_t capacity_items() const { return capacity_items_; }
  [[nodiscard]] uint64_t used_bytes() const override {
    return lru_.physical_bytes();
  }
  [[nodiscard]] size_t physical_items() const override {
    return lru_.physical_items();
  }
  [[nodiscard]] uint32_t chunk_size() const { return config_.chunk_size; }
  // Bytes consumed by shadow bookkeeping (memory-overhead accounting, §5.7).
  [[nodiscard]] uint64_t shadow_overhead_bytes() const;

  [[nodiscard]] const SegmentedLru& lru() const { return lru_; }
  // Structural self-check of the underlying segment/arena state; tests call
  // this after expiry-driven erases (which splice nodes out mid-queue).
  [[nodiscard]] bool CheckInvariants() const { return lru_.CheckInvariants(); }

 private:
  // Segment indices in the underlying SegmentedLru.
  static constexpr size_t kHead = 0;
  static constexpr size_t kMid = 1;
  static constexpr size_t kTail = 2;
  static constexpr size_t kCliffShadow = 3;
  static constexpr size_t kHillShadow = 4;

  void ApplyCapacity();
  // Pre-size the arena/index from the current physical + shadow capacity.
  void ReserveFromCapacity();

  SlabQueueConfig config_;
  uint64_t capacity_items_ = 0;
  SegmentedLru lru_;
};

struct PartitionConfig {
  SlabQueueConfig queue;
  // When false the queue behaves exactly like a single queue (everything is
  // routed left and the right queue is empty). The cliff scaler enables
  // partitioning when it activates.
  bool partition_enabled = false;
};

// The left/right physical queue pair (paper Figure 4/5). Requests are routed
// by a stable key hash u(key) in [0,1): left iff u < ratio. Lookups consult
// both sides so that ratio changes never manufacture misses; only the routed
// side's shadow signals are reported, keeping the scaler's gradient
// estimates unbiased.
class PartitionedSlabQueue final : public ClassQueue {
 public:
  explicit PartitionedSlabQueue(const PartitionConfig& config);

  GetResult Get(const ItemMeta& item) override;
  void Fill(const ItemMeta& item) override;
  bool Touch(const ItemMeta& item) override;
  void Delete(uint64_t key) override;

  // Listener/residency surface, forwarded to both sides. A key lives on at
  // most one side (Fill deletes both before inserting), so the residency
  // probes union the sides.
  void SetListener(SegmentedLru::Listener* listener);
  [[nodiscard]] Residency ResidencyOf(uint64_t key) const;
  [[nodiscard]] bool PeekPhysical(uint64_t key, uint32_t* expiry_s) const;

  // The byte capacity is tracked exactly (not rounded to whole chunks):
  // hill-climber credits are often smaller than one chunk, and rounding
  // would leak capacity on every transfer for large-chunk classes.
  void SetCapacityBytes(uint64_t bytes) override;
  [[nodiscard]] uint64_t capacity_bytes() const override {
    return capacity_bytes_;
  }
  [[nodiscard]] uint64_t capacity_items() const {
    return total_capacity_items_;
  }
  [[nodiscard]] uint64_t used_bytes() const override {
    return left_->used_bytes() + right_->used_bytes();
  }
  [[nodiscard]] size_t physical_items() const override {
    return left_->physical_items() + right_->physical_items();
  }

  // --- Cliff-scaler control surface ---
  void EnablePartition(bool enabled);
  [[nodiscard]] bool partition_enabled() const { return partition_enabled_; }
  // Request-split ratio: fraction routed to the left queue.
  void SetRatio(double ratio);
  [[nodiscard]] double ratio() const { return ratio_; }
  // Physical sizes of the two queues, in items; their sum should equal
  // capacity_items() (Algorithm 3 maintains this). Also re-splits the hill
  // shadow in proportion to the partition sizes (§5.1).
  void SetPartitionItems(uint64_t left_items, uint64_t right_items);

  [[nodiscard]] const SlabClassQueue& left() const { return *left_; }
  [[nodiscard]] const SlabClassQueue& right() const { return *right_; }
  [[nodiscard]] uint32_t chunk_size() const {
    return config_.queue.chunk_size;
  }
  [[nodiscard]] uint64_t shadow_overhead_bytes() const {
    return left_->shadow_overhead_bytes() + right_->shadow_overhead_bytes();
  }
  [[nodiscard]] Side Route(uint64_t key) const;
  [[nodiscard]] bool CheckInvariants() const {
    return left_->CheckInvariants() && right_->CheckInvariants();
  }

 private:
  void DistributeEvenly();

  PartitionConfig config_;
  std::unique_ptr<SlabClassQueue> left_;
  std::unique_ptr<SlabClassQueue> right_;
  uint64_t capacity_bytes_ = 0;
  uint64_t total_capacity_items_ = 0;
  double ratio_ = 0.5;
  bool partition_enabled_ = false;
};

}  // namespace cliffhanger
