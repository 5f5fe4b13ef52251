// Algorithm 1 — shadow-queue hill climbing.
//
//   1: if request ∈ shadowQueue(i) then
//   2:   queue(i).size += credit
//   3:   chosenQueue = pickRandom({queues} - {queue(i)})
//   4:   chosenQueue.size -= credit
//   5: end if
//
// The rate of hits in queue i's hill shadow approximates f_i * h_i'(m_i)
// (the request-weighted local gradient of its hit-rate curve), so in
// equilibrium the normalized gradients equalize across queues — the
// optimality condition of Equation 1 (paper §4.1).
//
// Credits accumulate per queue; once a queue's balance reaches the transfer
// quantum, memory physically moves from a negative-balance queue ("Once a
// queue reaches a certain amount of credits, it is allocated additional
// memory at the expense of another queue"). With quantum == credit (the
// default) every shadow hit moves memory immediately.
//
// Cross-application climbing (§3.3) registers one ClimbableQueue per app
// and feeds OnShadowHit with a gradient weight: when the hitting app's
// operating point sits on a cliff, its raw shadow hit rate understates the
// concave hull's slope (the cliff scaler is serving the hull, not the raw
// curve), so the caller amplifies the credit accordingly. Per-queue (slab
// class) climbing always passes weight 1.0 — the split queues' shadows
// already sample the hull anchors directly.
//
// Tenant lifecycle: queues may also be removed (RemoveQueue). Removal
// tombstones the slot — indices handed out by AddQueue stay stable for the
// surviving queues — and a later AddQueue reuses the lowest freed slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace cliffhanger {

// Capacity-control surface the climber drives. Implemented by adapters around
// slab-class queues (within-app climbing) and around whole applications
// (cross-app climbing).
class ClimbableQueue {
 public:
  virtual ~ClimbableQueue() = default;
  [[nodiscard]] virtual uint64_t capacity_bytes() const = 0;
  virtual void SetCapacityBytes(uint64_t bytes) = 0;
  // Floor below which the climber will not shrink this queue.
  [[nodiscard]] virtual uint64_t min_capacity_bytes() const = 0;
};

struct HillClimberConfig {
  uint64_t credit_bytes = 4096;    // paper §5.3: 1-4 KB works best
  uint64_t quantum_bytes = 4096;   // transfer granularity
  // Bound on a queue's POSITIVE credit balance, in quanta; 0 = unbounded.
  // Positive credit is a pending physical transfer; without a bound it
  // accumulates freely while every donor sits at its min floor, and the
  // instant one donor frees up the whole backlog drains as a burst of
  // transfers. The clamp caps that burst. Negative balances are
  // deliberately unbounded: they only rank donor preference and never
  // convert into transfers directly.
  //
  // Default 0: the paper-replay goldens (fig6/fig7/table4) pin the
  // historical unbounded within-app dynamics bit-exactly, so the within-app
  // climber cannot turn this on by default. The cross-app climber — which
  // has no such pin — clamps at 4 quanta (CacheServer's
  // kCrossAppMaxCreditQuanta).
  uint64_t max_credit_quanta = 0;
};

class HillClimber {
 public:
  explicit HillClimber(const HillClimberConfig& config, uint64_t seed = 1);

  // Registers a queue; returns its index. Queues may be added lazily as
  // slab classes materialize. Reuses the lowest index freed by RemoveQueue.
  size_t AddQueue(ClimbableQueue* queue);
  // Forgets queue i: its slot is tombstoned (never picked as hitter,
  // victim, or donor again) and its credit balance is discarded. The
  // caller redistributes the departing queue's capacity; the climber only
  // stops steering it. Other queues' indices are unaffected.
  void RemoveQueue(size_t i);

  // Called when queue i's hill shadow received a hit. `weight` scales the
  // credit (and the matching debit): 1.0 for a raw gradient sample, more
  // when the caller knows the sample understates the effective (hull)
  // slope — see the cross-app notes above.
  void OnShadowHit(size_t i, double weight = 1.0);

  [[nodiscard]] size_t num_queues() const { return live_count_; }
  [[nodiscard]] bool has_queue(size_t i) const {
    return i < queues_.size() && queues_[i] != nullptr;
  }
  [[nodiscard]] int64_t credits(size_t i) const { return credits_[i]; }
  [[nodiscard]] uint64_t total_transfers() const { return transfers_; }

 private:
  // Move up to `quantum_bytes` into queue i from a random donor with spare
  // capacity. Returns true when memory moved.
  bool TryTransfer(size_t i);

  HillClimberConfig config_;
  Rng rng_;
  std::vector<ClimbableQueue*> queues_;  // nullptr = tombstoned slot
  std::vector<int64_t> credits_;
  std::vector<size_t> free_slots_;  // kept sorted descending; reuse lowest
  size_t live_count_ = 0;
  uint64_t transfers_ = 0;
};

}  // namespace cliffhanger
