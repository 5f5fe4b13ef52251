#include "core/hill_climber.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cliffhanger {

HillClimber::HillClimber(const HillClimberConfig& config, uint64_t seed)
    : config_(config), rng_(seed) {}

size_t HillClimber::AddQueue(ClimbableQueue* queue) {
  assert(queue != nullptr);
  ++live_count_;
  if (!free_slots_.empty()) {
    const size_t slot = free_slots_.back();  // lowest freed index
    free_slots_.pop_back();
    queues_[slot] = queue;
    credits_[slot] = 0;
    return slot;
  }
  queues_.push_back(queue);
  credits_.push_back(0);
  return queues_.size() - 1;
}

void HillClimber::RemoveQueue(size_t i) {
  assert(has_queue(i));
  queues_[i] = nullptr;
  credits_[i] = 0;
  --live_count_;
  // Keep descending so back() is always the lowest free slot: reuse fills
  // the table front-to-back, the same order fresh AddQueue calls would.
  free_slots_.insert(
      std::upper_bound(free_slots_.begin(), free_slots_.end(), i,
                       std::greater<size_t>()),
      i);
}

void HillClimber::OnShadowHit(size_t i, double weight) {
  assert(has_queue(i));
  if (live_count_ < 2) return;  // nothing to trade against
  if (!(weight > 0.0)) return;

  // Algorithm 1 lines 2-4: credit the hitting queue, debit a random other.
  // The weight scales both sides, so total credit stays zero-sum. With
  // weight == 1.0 (per-queue climbing, and cross-app off-cliff) this is
  // exactly the paper's integer credit.
  const auto credit = static_cast<int64_t>(
      std::llround(static_cast<double>(config_.credit_bytes) * weight));
  if (credit <= 0) return;
  credits_[i] += credit;
#ifdef CLIFFHANGER_PERTURB_CLIMBER
  // Metrics-gate self-test only (-DCLIFFHANGER_PERTURB_CLIMBER=ON): claw
  // back half the credit, the canonical "quiet controller bug" — nothing
  // crashes and throughput barely moves, only hit rates drift. CI builds
  // with this flag and asserts the exact-match golden gate fails.
  credits_[i] -= credit / 2;
#endif
  // Bound the pending-transfer backlog: while every donor sits at its min
  // floor, TryTransfer fails and the balance would otherwise grow without
  // limit — and then drain as one violent burst the moment a donor frees
  // up. The clamp caps that burst at max_credit_quanta transfers.
  if (config_.max_credit_quanta > 0) {
    const auto bound = static_cast<int64_t>(config_.max_credit_quanta *
                                            config_.quantum_bytes);
    credits_[i] = std::min(credits_[i], bound);
  }

  // Pick the victim uniformly among the other live queues. When the slot
  // table is dense this selects exactly the index the pre-lifecycle code
  // drew (k-th other queue == k, skipping past i), so replays without
  // tenant churn are bit-identical.
  size_t k = rng_.NextBounded(live_count_ - 1);
  size_t victim = queues_.size();
  for (size_t j = 0; j < queues_.size(); ++j) {
    if (queues_[j] == nullptr || j == i) continue;
    if (k == 0) {
      victim = j;
      break;
    }
    --k;
  }
  assert(victim < queues_.size());
  credits_[victim] -= credit;

  // Convert accumulated credits into physical memory in quantum units.
  while (credits_[i] >= static_cast<int64_t>(config_.quantum_bytes)) {
    if (!TryTransfer(i)) break;
    credits_[i] -= static_cast<int64_t>(config_.quantum_bytes);
  }
}

bool HillClimber::TryTransfer(size_t i) {
  // Prefer the queue with the most negative balance that can still donate;
  // it is the one the random debits have judged least deserving. Fall back
  // to any queue with spare capacity so a transfer happens whenever one is
  // possible at all.
  const uint64_t quantum = config_.quantum_bytes;
  size_t best = queues_.size();
  int64_t best_credits = 0;
  for (size_t j = 0; j < queues_.size(); ++j) {
    if (j == i || queues_[j] == nullptr) continue;
    ClimbableQueue* q = queues_[j];
    if (q->capacity_bytes() < q->min_capacity_bytes() + quantum) continue;
    if (best == queues_.size() || credits_[j] < best_credits) {
      best = j;
      best_credits = credits_[j];
    }
  }
  if (best == queues_.size()) return false;

  ClimbableQueue* donor = queues_[best];
  ClimbableQueue* winner = queues_[i];
  donor->SetCapacityBytes(donor->capacity_bytes() - quantum);
  winner->SetCapacityBytes(winner->capacity_bytes() + quantum);
  credits_[best] += static_cast<int64_t>(quantum);
  ++transfers_;
  return true;
}

}  // namespace cliffhanger
