#include "core/sharded_server.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cliffhanger {

// Padded to a cache line so two shards' mutexes never share one (false
// sharing would serialize otherwise independent shards).
struct alignas(64) ShardedCacheServer::Shard {
  mutable std::mutex mu;
  std::unique_ptr<CacheServer> server;  // guarded by mu
  // Hill-shadow hit totals per app at the last rebalance (guarded by mu).
  std::map<uint32_t, uint64_t> shadow_baseline;
};

namespace {

// Fraction of the gap between a shard's current reservation and its
// shadow-signal target that one rebalance closes. Small steps keep the
// split stable against noisy shadow hits (same spirit as §5.1).
constexpr double kRebalanceStep = 0.25;

}  // namespace

ShardedCacheServer::ShardedCacheServer(const ShardedServerConfig& config)
    : config_(config), num_shards_(std::max<size_t>(1, config.num_shards)) {
  config_.num_shards = num_shards_;  // keep config() consistent when 0 passed
  shards_.reserve(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    auto shard = std::make_unique<Shard>();
    ServerConfig shard_config = config_.server;
    // Decorrelate the shards' controller RNG streams (Algorithm 1 picks
    // random victims; identical streams would move memory in lockstep).
    shard_config.seed = HashCombine(config_.server.seed, 0x5AD0000 + i);
    shard->server = std::make_unique<CacheServer>(shard_config);
    shards_.push_back(std::move(shard));
  }
}

ShardedCacheServer::~ShardedCacheServer() = default;

void ShardedCacheServer::AddApp(uint32_t app_id, uint64_t reservation) {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  assert(app_totals_.find(app_id) == app_totals_.end());
  app_totals_[app_id] = reservation;
  // Largest-remainder split: every shard gets floor(total/N), the first
  // (total % N) shards one byte more, so the shares sum to the total.
  const uint64_t base = reservation / num_shards_;
  const uint64_t remainder = reservation % num_shards_;
  for (size_t i = 0; i < num_shards_; ++i) {
    const uint64_t share = base + (i < remainder ? 1 : 0);
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    shards_[i]->server->AddApp(app_id, share);
    shards_[i]->shadow_baseline[app_id] = 0;
  }
}

bool ShardedCacheServer::RemoveApp(uint32_t app_id) {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  const auto it = app_totals_.find(app_id);
  if (it == app_totals_.end()) return false;
  app_totals_.erase(it);
  const auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    shard->server->RemoveApp(app_id);
    shard->shadow_baseline.erase(app_id);
  }
  // Each shard just redistributed the departing share to its survivors
  // (cross-app mode); fold those windfalls into the registered totals so
  // the next Rebalance re-divides what the apps actually hold.
  if (config_.server.allocation == AllocationMode::kCliffhanger &&
      config_.server.knobs.cross_app) {
    RefreshAppTotalsLocked();
  }
  return true;
}

// Every routed verb is a one-op ShardBatch: the batch's destructor
// releases the shard lock and then advances the rebalance cadence, so the
// single-op and burst paths share one locking discipline by construction.

Outcome ShardedCacheServer::Get(uint32_t app_id, const ItemMeta& item) {
  return BeginBatch(ShardForKey(item.key)).server(item.key).Get(app_id, item);
}

bool ShardedCacheServer::Set(uint32_t app_id, const ItemMeta& item) {
  return BeginBatch(ShardForKey(item.key)).server(item.key).Set(app_id, item);
}

bool ShardedCacheServer::Touch(uint32_t app_id, const ItemMeta& item) {
  return BeginBatch(ShardForKey(item.key)).server(item.key).Touch(app_id,
                                                                  item);
}

void ShardedCacheServer::Delete(uint32_t app_id, const ItemMeta& item) {
  BeginBatch(ShardForKey(item.key)).server(item.key).Delete(app_id, item);
}

ValueOutcome ShardedCacheServer::GetValue(uint32_t app_id, uint64_t key,
                                          uint32_t key_size, uint32_t now_s,
                                          uint32_t flush_at_s) {
  return BeginBatch(ShardForKey(key)).server(key).GetByKey(
      app_id, key, key_size, now_s, flush_at_s);
}

bool ShardedCacheServer::SetValue(uint32_t app_id, const ItemMeta& item,
                                  const void* data, uint32_t flags,
                                  uint64_t cas) {
  return BeginBatch(ShardForKey(item.key)).server(item.key).SetValue(
      app_id, item, data, flags, cas);
}

// ---------------------------------------------------------------------------
// ShardBatch: one lock acquisition amortized over a burst of same-shard ops.
// ---------------------------------------------------------------------------

ShardedCacheServer::ShardBatch::ShardBatch(ShardedCacheServer* owner,
                                           size_t shard_index, bool wait)
    : owner_(owner),
      server_(owner->shards_[shard_index]->server.get()),
      shard_index_(shard_index),
      lock_(owner->shards_[shard_index]->mu, std::defer_lock) {
  if (wait) {
    lock_.lock();
  } else if (!lock_.try_lock()) {
    return;
  }
  ops_at_open_ = server_->ops_served();
}

ShardedCacheServer::ShardBatch::~ShardBatch() {
  // Release the shard lock, then advance the rebalance cadence (which may
  // run Rebalance() — it takes apps_mu_ plus every shard lock, so it must
  // never run while this batch still holds one). A batch that never got
  // the lock ran no ops.
  if (!lock_.owns_lock()) return;
  const uint64_t ops_at_close = server_->ops_served();
  lock_.unlock();
  owner_->AdvanceRebalanceCadence(ops_at_open_, ops_at_close);
}

void ShardedCacheServer::ShardBatch::ReturnLease(const ValueLease& lease) {
  assert(lock_.owns_lock());
  ValueStore::ReturnLease(lease);
}

ShardedCacheServer::ShardBatch ShardedCacheServer::BeginBatch(
    size_t shard_index) {
  assert(shard_index < num_shards_);
  return ShardBatch(this, shard_index, /*wait=*/true);
}

ShardedCacheServer::ShardBatch ShardedCacheServer::TryBeginBatch(
    size_t shard_index) {
  assert(shard_index < num_shards_);
  return ShardBatch(this, shard_index, /*wait=*/false);
}

std::vector<std::unique_lock<std::mutex>> ShardedCacheServer::LockAllShards()
    const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (const auto& shard : shards_) locks.emplace_back(shard->mu);
  return locks;
}

ClassStats ShardedCacheServer::MergedStats() const {
  const auto locks = LockAllShards();
  ClassStats total;
  for (const auto& shard : shards_) total += shard->server->TotalStats();
  return total;
}

ClassStats ShardedCacheServer::ShardStats(size_t shard) const {
  assert(shard < num_shards_);
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->server->TotalStats();
}

ShardedCacheServer::ValueStats ShardedCacheServer::MergedValueStats() const {
  const auto locks = LockAllShards();
  ValueStats total;
  for (const auto& shard : shards_) {
    for (const uint32_t app_id : shard->server->app_ids()) {
      const AppCache* app = shard->server->app(app_id);
      const ValueStore* store = app->value_store();
      if (store == nullptr) continue;
      total.value_bytes += store->value_bytes();
      total.tracked_keys += store->tracked_keys();
      total.leases += store->leases();
      for (const ValueStore::ClassOccupancy& o : store->Occupancy()) {
        total.retired_slots += o.retired_chunks;
        ClassUse& use = total.classes[o.slab_class];
        use.chunk_size = o.chunk_size;
        use.used_chunks += o.used_chunks;
        use.resident_bytes += o.resident_bytes;
      }
    }
  }
  return total;
}

ClassStats ShardedCacheServer::AppStats(uint32_t app_id) const {
  const auto locks = LockAllShards();
  ClassStats total;
  for (const auto& shard : shards_) {
    const AppCache* app = shard->server->app(app_id);
    if (app != nullptr) total += app->TotalStats();
  }
  return total;
}

// The registered total, read under apps_mu_ alone — monitoring callers must
// not stall all N shards for a value AddApp records and Rebalance conserves
// by construction. The conservation invariant itself (per-shard shares sum
// to this) is what sharded_server_test checks via AppShardReservation.
uint64_t ShardedCacheServer::AppReservation(uint32_t app_id) const {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  const auto it = app_totals_.find(app_id);
  return it == app_totals_.end() ? 0 : it->second;
}

uint64_t ShardedCacheServer::AppShardReservation(uint32_t app_id,
                                                 size_t shard) const {
  assert(shard < num_shards_);
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  const AppCache* app = shards_[shard]->server->app(app_id);
  return app == nullptr ? 0 : app->reservation();
}

std::vector<uint32_t> ShardedCacheServer::app_ids() const {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  std::vector<uint32_t> ids;
  ids.reserve(app_totals_.size());
  for (const auto& [id, total] : app_totals_) ids.push_back(id);
  return ids;
}

uint64_t ShardedCacheServer::rebalance_count() const {
  return rebalances_.load(std::memory_order_relaxed);
}

// The shard's CacheServer counts every verb it serves, under the shard
// lock, so the busiest shard drives the cadence without a shared counter
// line. A batch's ops fire a rebalance when they cross an interval boundary
// of that count; for one op this is the classic "every interval-th op"
// modulo check, so batched and unbatched traffic share one cadence.
void ShardedCacheServer::AdvanceRebalanceCadence(uint64_t ops_before,
                                                 uint64_t ops_after) {
  const uint64_t interval = config_.rebalance_interval_ops;
  if (interval == 0) return;
  if (ops_after / interval != ops_before / interval) Rebalance();
}

void ShardedCacheServer::Rebalance() {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  const auto locks = LockAllShards();
  if (config_.server.allocation == AllocationMode::kCliffhanger &&
      config_.server.knobs.cross_app) {
    // The cross-app climbers have been trading memory between apps inside
    // each shard since the last rebalance; re-divide what each app holds
    // now, not its stale registered total.
    RefreshAppTotalsLocked();
  }
  for (const auto& [app_id, total] : app_totals_) {
    RebalanceAppLocked(app_id, total);
  }
  rebalances_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedCacheServer::RefreshAppTotalsLocked() {
  for (auto& [app_id, total] : app_totals_) {
    uint64_t sum = 0;
    for (const auto& shard : shards_) {
      const AppCache* app = shard->server->app(app_id);
      if (app != nullptr) sum += app->reservation();
    }
    total = sum;
  }
}

uint64_t ShardedCacheServer::TotalReservation() const {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  const auto locks = LockAllShards();
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->server->total_reservation();
  }
  return total;
}

bool ShardedCacheServer::CheckInvariants() const {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  const auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    if (!shard->server->CheckInvariants()) return false;
  }
  const bool cross_app =
      config_.server.allocation == AllocationMode::kCliffhanger &&
      config_.server.knobs.cross_app;
  if (!cross_app) {
    // Static per-app totals: every app's shard shares must sum to its
    // registered reservation (AddApp splits it; Rebalance conserves it).
    for (const auto& [app_id, total] : app_totals_) {
      uint64_t sum = 0;
      for (const auto& shard : shards_) {
        const AppCache* app = shard->server->app(app_id);
        if (app != nullptr) sum += app->reservation();
      }
      if (sum != total) return false;
    }
  }
  return true;
}

// Pre: apps_mu_ and every shard lock held.
//
// Each shard's hill-shadow hits since the last rebalance estimate how much
// that shard's slice of the app would gain from more memory (§3.4: the
// shadow hit rate approximates the request-weighted hit-rate-curve
// gradient). The app's total moves a kRebalanceStep fraction toward the
// shadow-share target; with no signal anywhere the +1 smoothing makes the
// target an even split, so a skewed initial division decays geometrically.
void ShardedCacheServer::RebalanceAppLocked(uint32_t app_id,
                                            uint64_t total_reservation) {
  const size_t n = num_shards_;
  if (n <= 1 || total_reservation == 0) return;

  std::vector<uint64_t> current(n, 0);
  std::vector<double> weight(n, 0.0);
  double weight_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    AppCache* app = shards_[i]->server->app(app_id);
    if (app == nullptr) return;
    current[i] = app->reservation();
    const uint64_t shadow = app->TotalStats().hill_shadow_hits;
    uint64_t& baseline = shards_[i]->shadow_baseline[app_id];
    const uint64_t delta = shadow - baseline;
    baseline = shadow;
    weight[i] = 1.0 + static_cast<double>(delta);
    weight_sum += weight[i];
  }

  // Blend toward the shadow-share target, then integerize with the
  // largest-remainder method so the shares sum to the total exactly.
  const double total = static_cast<double>(total_reservation);
  std::vector<double> desired(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    desired[i] = (1.0 - kRebalanceStep) * static_cast<double>(current[i]) +
                 kRebalanceStep * total * (weight[i] / weight_sum);
  }
  std::vector<uint64_t> next(n, 0);
  std::vector<std::pair<double, size_t>> fractions;
  fractions.reserve(n);
  uint64_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double floored = std::floor(desired[i]);
    next[i] = static_cast<uint64_t>(std::max(0.0, floored));
    assigned += next[i];
    fractions.emplace_back(desired[i] - floored, i);
  }
  std::sort(fractions.begin(), fractions.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  size_t cursor = 0;
  while (assigned < total_reservation && cursor < fractions.size()) {
    ++next[fractions[cursor++].second];
    ++assigned;
  }
  // Defensive: absorb any residual rounding drift into shard 0 so the
  // invariant sum(next) == total_reservation always holds.
  if (assigned < total_reservation) next[0] += total_reservation - assigned;
  while (assigned > total_reservation) {
    for (size_t i = 0; i < n && assigned > total_reservation; ++i) {
      if (next[i] > 0) {
        --next[i];
        --assigned;
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (next[i] != current[i]) {
      shards_[i]->server->app(app_id)->SetReservation(next[i]);
    }
  }
}

}  // namespace cliffhanger
