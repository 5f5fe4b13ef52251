#include "core/cliff_scaler.h"

#include <algorithm>
#include <cmath>

namespace cliffhanger {

namespace {

// Sanity cap on the right pointer, as a multiple of the operating point.
constexpr double kMaxRightMultiple = 16.0;

// Noise control. On a concave curve the paper argues the pointers "will not
// move from their starting points"; under stochastic hit arrivals they in
// fact random-walk a few credits around the operating point, and Algorithm
// 3's ratio dr/(dr+dl) amplifies that noise into violent partition swings
// (each swing flushes physical items into the shadows). We therefore treat
// the queue as sitting on a cliff only when BOTH pointer distances exceed
// the enter threshold (with hysteresis via the exit threshold), and we
// apply a staged resize only when it moves a partition by at least
// max(credit, capacity * kMinResizeFraction) items.
// Thresholds are the max of a credit count and a fraction of the queue: the
// credit floor matters for small queues, the fraction for large ones (a
// 4-credit excursion on a 12k-item queue is ~1% — pure noise, while a
// genuine cliff pulls a pointer tens of percent away).
constexpr double kEnterCliffCredits = 4.0;
constexpr double kExitCliffCredits = 2.0;
constexpr double kEnterCliffFraction = 0.06;
constexpr double kExitCliffFraction = 0.03;
constexpr double kMinResizeFraction = 1.0 / 64.0;

}  // namespace

CliffScaler::CliffScaler(PartitionedSlabQueue* queue,
                         const CliffScalerConfig& config)
    : queue_(queue), config_(config) {
  MaybeToggleActive();
}

double CliffScaler::CreditItems() const {
  return std::max(1.0, static_cast<double>(config_.credit_bytes) /
                           static_cast<double>(queue_->chunk_size()));
}

void CliffScaler::ResetPointers() {
  // INIT (Algorithm 2): both pointers start at the operating point.
  left_ptr_ = right_ptr_ = static_cast<double>(QueueItems());
  resize_staged_ = false;
  on_cliff_ = false;
  low_right_count_ = 0;
}

void CliffScaler::MaybeToggleActive() {
  const bool should_activate = QueueItems() > config_.min_active_items;
  if (should_activate == active_) return;
  active_ = should_activate;
  if (active_) {
    ResetPointers();
  } else if (queue_->partition_enabled()) {
    queue_->EnablePartition(false);
    on_cliff_ = false;
  }
}

void CliffScaler::ClampPointers() {
  const auto q = static_cast<double>(QueueItems());
  const auto min_ptr = static_cast<double>(config_.min_pointer_items);
  left_ptr_ = std::clamp(left_ptr_, min_ptr, q);
  right_ptr_ = std::clamp(right_ptr_, q, q * kMaxRightMultiple);
}

void CliffScaler::OnAccess(const GetResult& result) {
  if (!active_) return;
  ++stable_accesses_;
  const double q = static_cast<double>(QueueItems());
  const double credit = CreditItems();
  bool updated = false;

  if (!queue_->partition_enabled()) {
    // Detection phase: the queue is still whole (two evenly split queues
    // behave identically to one queue — §4.2 — so until a cliff is found we
    // keep the single queue and read both pointers' signals off its own
    // tail and shadow). A shadow hit means mass just beyond the operating
    // point: the right pointer climbs and the left anchor loosens; a tail
    // hit means mass just inside: both pull home.
    if (result.region == HitRegion::kCliffShadow) {
      right_ptr_ += credit;
      left_ptr_ -= credit;
      updated = true;
    } else if (result.region == HitRegion::kPhysicalTail) {
      if (right_ptr_ > q) {
        right_ptr_ -= credit;
        updated = true;
      }
      if (left_ptr_ < q) {
        left_ptr_ += credit;
        updated = true;
      }
    }
  } else if (result.side == Side::kRight) {
    if (result.region == HitRegion::kCliffShadow) {
      // Hit right of the right pointer: still convex there, climb higher.
      right_ptr_ += credit;
      updated = true;
    } else if (result.region == HitRegion::kPhysicalTail) {
      // Hits just left of the pointer: overshot the cliff top, back off.
      // Even when the guard pins the pointer at the operating point the
      // event still feeds the exit bookkeeping (liveness: a pinned pointer
      // must be able to dissolve the cliff state).
      if (right_ptr_ > q) right_ptr_ -= credit;
      updated = true;
    }
  } else {
    if (result.region == HitRegion::kCliffShadow) {
      // Hits right of the left pointer: inside the convex region, move the
      // anchor further left toward the cliff bottom.
      left_ptr_ -= credit;
      updated = true;
    } else if (result.region == HitRegion::kPhysicalTail) {
      // Hits just inside the left anchor: curve still concave here, the
      // anchor can move back toward the operating point.
      if (left_ptr_ < q) left_ptr_ += credit;
      updated = true;
    }
  }

  if (updated) {
    ClampPointers();
    ComputeRatioAndStage();
  }
}

void CliffScaler::ComputeRatioAndStage() {
  const double q = static_cast<double>(QueueItems());
  const double dist_right = right_ptr_ - q;
  const double dist_left = q - left_ptr_;
  const double credit = CreditItems();

  // Cliff detection with hysteresis: pointer excursions smaller than a few
  // credits (or a small fraction of the queue) are indistinguishable from
  // concave-curve noise and must not split the queue (paper §4.2: on
  // concave curves the pointers stay at the operating point).
  const double enter =
      std::max(kEnterCliffCredits * credit, kEnterCliffFraction * q);
  const double exit =
      std::max(kExitCliffCredits * credit, kExitCliffFraction * q);
  const bool was_on_cliff = on_cliff_;
  if (!on_cliff_) {
    on_cliff_ = dist_right > enter && dist_left > enter &&
                stable_accesses_ >= config_.stable_accesses_to_engage;
  } else if (dist_right < exit && dist_left < exit) {
    // Both pointers back at the operating point means the cliff evidence
    // has evaporated (e.g. the queue grew past the cliff top). Demand
    // several consecutive confirmations so a transient wobble does not
    // collapse a healthy split.
    if (++low_right_count_ >= config_.exit_confirmations) {
      on_cliff_ = false;
    }
  } else {
    low_right_count_ = 0;
  }

  if (!on_cliff_) {
    if (was_on_cliff && queue_->partition_enabled()) {
      // Collapse back to a single queue.
      queue_->EnablePartition(false);
    }
    resize_staged_ = false;
    return;
  }
  if (!was_on_cliff) {
    // Lazy partitioning: split only once a cliff is confirmed.
    queue_->EnablePartition(true);
  }

  const double ratio = (dist_right + dist_left) > 0.0
                           ? dist_right / (dist_right + dist_left)
                           : 0.5;
  queue_->SetRatio(ratio);

  // UPDATEPHYSICALQUEUES: left = leftPtr * ratio, right = rightPtr * (1 -
  // ratio); keep the sum exactly at the operating point by deriving the
  // right size from the remainder. Both sides keep at least a sensing
  // minimum (tail + shadows must exist, or the side stops producing the
  // events that would let its pointer recover — an absorbing state).
  const double min_side =
      std::min(q / 2.0, std::max(static_cast<double>(
                                     config_.min_pointer_items) * 2.0,
                                 q / 16.0));
  staged_left_ = static_cast<uint64_t>(
      std::llround(std::clamp(left_ptr_ * ratio, min_side, q - min_side)));
  staged_right_ = QueueItems() - staged_left_;
  resize_staged_ = true;
}

void CliffScaler::OnMiss() {
  if (!active_ || !resize_staged_ || !queue_->partition_enabled()) return;
  // Resize quantum: moving a partition boundary flushes the demoted items
  // through the shadows, so micro-adjustments cost more than they gain.
  const auto current_left =
      static_cast<double>(queue_->left().capacity_items());
  const double delta =
      std::abs(static_cast<double>(staged_left_) - current_left);
  const double quantum =
      std::max(CreditItems(),
               static_cast<double>(QueueItems()) * kMinResizeFraction);
  if (delta < quantum) return;
  queue_->SetPartitionItems(staged_left_, staged_right_);
  resize_staged_ = false;
}

void CliffScaler::OnCapacityChanged() {
  MaybeToggleActive();
  if (!active_) return;
  if (!on_cliff_) {
    // No confirmed cliff: re-anchor at the new operating point rather than
    // carrying stale pointer gaps into the new regime (the hill climber
    // moves capacity constantly; leftover gaps would masquerade as cliff
    // evidence).
    left_ptr_ = right_ptr_ = static_cast<double>(QueueItems());
    resize_staged_ = false;
    stable_accesses_ = 0;
    return;
  }
  ClampPointers();
  ComputeRatioAndStage();
}

}  // namespace cliffhanger
