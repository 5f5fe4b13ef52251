#include "core/sharded_server.h"

#include <algorithm>
#include <cassert>

namespace cliffhanger {

// Padded to a cache line so two shards' mutexes never share one (false
// sharing would serialize otherwise independent shards).
struct alignas(64) ShardedCacheServer::Shard {
  mutable std::mutex mu;
  std::unique_ptr<CacheServer> server;  // guarded by mu
};

ShardedCacheServer::ShardedCacheServer(const ShardedServerConfig& config)
    : num_shards_(std::max<size_t>(1, config.num_shards)) {
  shards_.reserve(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    auto shard = std::make_unique<Shard>();
    ServerConfig shard_config = config.server;
    // Decorrelate the shards' controller RNG streams (Algorithm 1 picks
    // random victims; identical streams would move memory in lockstep).
    shard_config.seed = HashCombine(config.server.seed, 0x5AD0000 + i);
    shard->server = std::make_unique<CacheServer>(shard_config);
    shards_.push_back(std::move(shard));
  }
}

ShardedCacheServer::~ShardedCacheServer() = default;

void ShardedCacheServer::AddApp(uint32_t app_id, uint64_t reservation) {
  const auto locks = LockAllShards();
  // Largest-remainder split: every shard gets floor(total/N), the first
  // (total % N) shards one byte more, so the shares sum to the total. The
  // split is final: nothing re-divides an app across shards.
  const uint64_t base = reservation / num_shards_;
  const uint64_t remainder = reservation % num_shards_;
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i]->server->AddApp(app_id, base + (i < remainder ? 1 : 0));
  }
}

bool ShardedCacheServer::RemoveApp(uint32_t app_id) {
  const auto locks = LockAllShards();
  // AddApp and RemoveApp change every shard under every lock, so shard 0
  // speaks for all of them.
  if (shards_[0]->server->app(app_id) == nullptr) return false;
  for (const auto& shard : shards_) shard->server->RemoveApp(app_id);
  return true;
}

// Every routed verb is a one-op ShardBatch, so the single-op and burst
// paths share one locking discipline by construction.

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
  } else {
    (void)lock_.try_lock();
  }
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

uint64_t ShardedCacheServer::AppReservation(uint32_t app_id) const {
  const auto locks = LockAllShards();
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    const AppCache* app = shard->server->app(app_id);
    if (app != nullptr) total += app->registered_reservation();
  }
  return total;
}

uint64_t ShardedCacheServer::AppShardReservation(uint32_t app_id,
                                                 size_t shard) const {
  assert(shard < num_shards_);
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  const AppCache* app = shards_[shard]->server->app(app_id);
  return app == nullptr ? 0 : app->reservation();
}

std::vector<uint32_t> ShardedCacheServer::app_ids() const {
  std::lock_guard<std::mutex> lock(shards_[0]->mu);
  return shards_[0]->server->app_ids();
}

uint64_t ShardedCacheServer::TotalReservation() const {
  const auto locks = LockAllShards();
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->server->total_reservation();
  }
  return total;
}

bool ShardedCacheServer::CheckInvariants() const {
  const auto locks = LockAllShards();
  const std::vector<uint32_t> ids = shards_[0]->server->app_ids();
  for (const auto& shard : shards_) {
    if (shard->server->app_ids() != ids) return false;
    if (!shard->server->CheckInvariants()) return false;
  }
  return true;
}

}  // namespace cliffhanger
