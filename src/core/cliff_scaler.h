// Algorithms 2 and 3 — incremental cliff scaling with shadow queues.
//
// The queue is split into left and right physical queues (Talus-style). Two
// pointers track the simulated sizes that should anchor the concave hull:
//
//   * a hit in the right queue's appended shadow ("right half") means the
//     curve still rises beyond the right pointer -> move it right, toward
//     the top of the cliff;
//   * a hit in the right queue's tail ("left half", the last 128 items of
//     its physical queue) while the pointer is above the operating point
//     -> move it back left;
//   * a hit in the left queue's appended shadow -> the region right of the
//     left pointer still gets hits, so the pointer is inside the convex
//     region: move it left, toward the bottom of the cliff;
//   * a hit in the left queue's tail while the pointer is below the
//     operating point -> move it right.
//
// ComputeRatio (Algorithm 3) then turns the pointers into a request-split
// ratio and physical queue sizes:
//   ratio = distRight / (distRight + distLeft)      (0.5 when not on a cliff)
//   left.size  = leftPointer  * ratio
//   right.size = rightPointer * (1 - ratio)
// whose sum equals the operating point. On a concave curve both pointers
// stay at the operating point, the queue stays evenly split, and behaviour
// is identical to a single queue (paper §4.2).
//
// Anti-thrashing (§5.1): physical sizes are only re-applied on a miss; the
// scaler is active only for queues larger than `min_active_items`.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cache/slab_class_queue.h"

namespace cliffhanger {

struct CliffScalerConfig {
  uint64_t credit_bytes = 4096;
  uint64_t min_active_items = 1000;  // §5.1: only large queues
  uint64_t min_pointer_items = 64;   // keep anchors meaningfully sized
  // Noise control (the cliff-state thresholds, the resize quantum and the
  // right pointer's cap are constants in cliff_scaler.cc): leave the cliff
  // state only after this many consecutive observations of the right
  // pointer at the operating point. A genuinely-reached cliff top pins the
  // pointer (exit), while ordinary wobble bounces it (stay).
  int exit_confirmations = 8;
  // Engage only at a stable operating point: this many accesses must pass
  // since the last capacity change before the queue may be declared
  // on-cliff. While the hill climber is actively re-balancing, pointer
  // excursions reflect the moving target, not curve shape.
  uint64_t stable_accesses_to_engage = 20000;
};

class CliffScaler {
 public:
  CliffScaler(PartitionedSlabQueue* queue, const CliffScalerConfig& config);

  // Feed every GET outcome on this queue (tail and cliff-shadow regions
  // drive the pointers; other regions are ignored).
  void OnAccess(const GetResult& result);
  // Apply any staged resize — call on every miss on this queue.
  void OnMiss();
  // The hill climber (or the server) changed the queue's total capacity.
  void OnCapacityChanged();

  [[nodiscard]] bool active() const { return active_; }
  // True when the pointer distances say the queue sits on a cliff (the
  // partition is skewed; otherwise it stays evenly split).
  [[nodiscard]] bool on_cliff() const { return on_cliff_; }
  [[nodiscard]] double left_pointer() const { return left_ptr_; }
  [[nodiscard]] double right_pointer() const { return right_ptr_; }
  [[nodiscard]] double ratio() const { return queue_->ratio(); }

 private:
  [[nodiscard]] uint64_t QueueItems() const {
    return queue_->capacity_items();
  }
  [[nodiscard]] double CreditItems() const;
  void MaybeToggleActive();
  void ResetPointers();
  void ClampPointers();
  // Algorithm 3: recompute ratio (applied immediately — it only affects
  // request routing) and stage the physical sizes for the next miss.
  void ComputeRatioAndStage();

  PartitionedSlabQueue* queue_;
  CliffScalerConfig config_;
  bool active_ = false;
  bool on_cliff_ = false;
  double left_ptr_ = 0.0;
  double right_ptr_ = 0.0;
  bool resize_staged_ = false;
  int low_right_count_ = 0;
  uint64_t stable_accesses_ = 0;
  uint64_t staged_left_ = 0;
  uint64_t staged_right_ = 0;
};

}  // namespace cliffhanger
