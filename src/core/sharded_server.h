// ShardedCacheServer: a thread-safe front over N independent CacheServer
// shards, selected by key hash (ShardIndexForKey). Each shard owns the full
// §4.3 controller state (hill climber, cliff scalers) for its slice of every
// application's key space, behind one per-shard mutex, so the paper's
// incremental algorithms keep running unmodified under concurrent traffic.
// The front serializes access to a shard and does nothing else per op: the
// verbs, their statistics and the controllers all live in the shard's
// CacheServer.
//
// Concurrency model:
//  - A ShardBatch (BeginBatch) is a locked handle to one shard's
//    CacheServer: it holds the shard's lock from construction to
//    destruction, and server(key) hands out the shard's CacheServer for a
//    key that hashes to it, so a burst of operations on that shard pays for
//    one acquisition. The routed verbs (Get/Set/...) are each a one-op
//    batch on the shard the key hashes to, so both paths share one locking
//    discipline. Ops on different shards act on
//    disjoint cache state and same-key ops always hash to the same shard,
//    so a caller that groups its ops by ShardForKey (stream order kept
//    within a shard) and opens one batch per shard gets the same cache
//    state as routing them one at a time, whatever order it visits the
//    shards in. TryBeginBatch lets such a caller visit the shards whose
//    locks are free first; CacheAdapter does, so under contention the
//    order in which one of its bursts reaches different shards (and draws
//    CAS values there) follows lock availability.
//  - Statistics and tenants have one set of books: each shard's CacheServer
//    counts its own statistics and holds its own AppCache per tenant,
//    under its lock. MergedStats(), AppStats() and AppReservation() take
//    every shard lock (in index order) for an exact, mutually consistent
//    snapshot; ShardStats(), AppShardReservation() and app_ids() take one.
//    No cache verb takes more than one shard lock: only these snapshots,
//    AddApp and RemoveApp take them all, so a routed op finds an app on
//    every shard or on none.
//  - AddApp splits an application's reservation across the shards once
//    (largest remainder, so the shares sum to the registered total), and
//    the split is final. Keys are hash-partitioned, so the shards see
//    statistically alike slices of every app. Memory moves only inside a
//    shard: between its slab classes (Algorithm 1) and, under cross_app,
//    between its apps.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/cache_server.h"
#include "util/hashing.h"

namespace cliffhanger {

struct ShardedServerConfig {
  // Template for every shard; each shard's RNG seed is decorrelated by
  // hashing the shard index into `server.seed`.
  ServerConfig server;
  size_t num_shards = 4;
  // Read by nothing. It stays declared only because
  // perfbench/src/workload.cc sets it, and perfbench/ changes only together
  // with the benchmark; ROADMAP item 6 deletes it with that write.
  uint64_t rebalance_interval_ops = 0;
};

class ShardedCacheServer {
 public:
  explicit ShardedCacheServer(const ShardedServerConfig& config);
  ~ShardedCacheServer();
  ShardedCacheServer(const ShardedCacheServer&) = delete;
  ShardedCacheServer& operator=(const ShardedCacheServer&) = delete;

  // Registers the app on every shard under every shard lock, splitting
  // `reservation` across them. The app must not be registered already.
  void AddApp(uint32_t app_id, uint64_t reservation);

  // Tenant departure: removes the app from every shard under every shard
  // lock (queues, shadow nodes and value slots are reclaimed eagerly by
  // the per-shard CacheServer::RemoveApp). In-flight ops that already
  // routed to the app soft-fail once the shard lock serializes them behind
  // the removal. In cross-app mode each shard redistributes the departing
  // share to its surviving tenants, conserving the shard total. Returns
  // false for an unknown app.
  bool RemoveApp(uint32_t app_id);

  // Thread-safe routed operations: each runs the CacheServer verb of the
  // same meaning on the shard the key hashes to, as a one-op ShardBatch.
  // Like CacheServer's, they soft-fail on an unknown app. Set returns true
  // when the item was cacheable (same as CacheServer::Set). Touch refreshes
  // expiry + recency of a resident item (no statistics mutation).
  Outcome Get(uint32_t app_id, const ItemMeta& item);
  bool Set(uint32_t app_id, const ItemMeta& item);
  bool Touch(uint32_t app_id, const ItemMeta& item);
  void Delete(uint32_t app_id, const ItemMeta& item);

  // Value-mode routed verbs (ServerConfig::store_values): GetValue is
  // CacheServer::GetByKey and SetValue is CacheServer::SetValue (see the
  // AppCache declarations for semantics), kept under the names
  // perfbench/src/workload.cc calls. The other value verbs have no routed
  // form: run them on a ShardBatch's server(key), as the network adapter
  // does. NOTE on GetValue's lifetime: the returned ValueOutcome::view
  // borrows arena memory guarded by the shard lock, which is already
  // released on return, so the view is only safe if no other thread can
  // mutate the shard. Callers needing a stable span across concurrent
  // traffic take a lease through a ShardBatch's GetByKey and return it
  // with ShardBatch::ReturnLease.
  ValueOutcome GetValue(uint32_t app_id, uint64_t key, uint32_t key_size,
                        uint32_t now_s, uint32_t flush_at_s);
  bool SetValue(uint32_t app_id, const ItemMeta& item, const void* data,
                uint32_t flags, uint64_t cas);

  // A locked handle to one shard's CacheServer: it holds the shard's lock
  // until it dies, so a caller that has already grouped its ops by shard
  // pays one lock acquisition per burst instead of one per op.
  class ShardBatch {
   public:
    ShardBatch(const ShardBatch&) = delete;
    ShardBatch& operator=(const ShardBatch&) = delete;

    // The shard's CacheServer, for a key that hashes to this shard (both
    // the lock and the key's shard are asserted in debug builds); run its
    // verbs on it directly. A ValueOutcome::view they return stays valid
    // while this batch holds the lock and makes no further mutating call.
    // With a `lease`, a GetByKey hit stays valid after the batch dies —
    // through overwrites, rewrites, evictions and deletes of the key on any
    // thread — until the lease is handed to ReturnLease on a later batch of
    // the same shard. That is how the network front writes GET hits
    // straight from the arena without holding the shard lock across the
    // socket write.
    [[nodiscard]] CacheServer& server(uint64_t key) {
      assert(lock_.owns_lock());
      assert(owner_->ShardForKey(key) == shard_index_);
      (void)key;
      return *server_;
    }
    // Returns a lease a GetByKey took on this shard; a slot retired while
    // leased goes back on its free-list with its last lease.
    void ReturnLease(const ValueLease& lease);

    // server(key).GetByKey and server(key).SetValue under the names
    // perfbench/src/ledger.cc calls.
    ValueOutcome GetValue(uint32_t app_id, uint64_t key, uint32_t key_size,
                          uint32_t now_s, uint32_t flush_at_s) {
      return server(key).GetByKey(app_id, key, key_size, now_s, flush_at_s);
    }
    bool SetValue(uint32_t app_id, const ItemMeta& item, const void* data,
                  uint32_t flags, uint64_t cas) {
      return server(item.key).SetValue(app_id, item, data, flags, cas);
    }

    [[nodiscard]] size_t shard_index() const { return shard_index_; }
    // False only for a TryBeginBatch that found the shard busy: such a
    // batch holds nothing, takes no ops, and dies without effect.
    [[nodiscard]] bool owns_lock() const { return lock_.owns_lock(); }

   private:
    friend class ShardedCacheServer;
    // Locks the shard, or with `wait` false only tries to.
    ShardBatch(ShardedCacheServer* owner, size_t shard_index, bool wait);

    ShardedCacheServer* owner_;
    CacheServer* server_;
    size_t shard_index_;
    std::unique_lock<std::mutex> lock_;
  };

  // Opens a batch on one shard (locks it until the ShardBatch dies).
  [[nodiscard]] ShardBatch BeginBatch(size_t shard_index);
  // Like BeginBatch, but never waits: when another thread holds the shard,
  // the returned batch's owns_lock() is false. Lets a caller with work for
  // several shards serve the free ones first and come back for the busy
  // ones (see CacheAdapter's burst engine).
  [[nodiscard]] ShardBatch TryBeginBatch(size_t shard_index);

  [[nodiscard]] size_t num_shards() const { return num_shards_; }
  [[nodiscard]] size_t ShardForKey(uint64_t key) const {
    return ShardIndexForKey(key, num_shards_);
  }

  // Exact snapshots straight from the shards' own statistics. MergedStats
  // holds every shard lock at once, so the merge is mutually consistent.
  [[nodiscard]] ClassStats MergedStats() const;
  [[nodiscard]] ClassStats ShardStats(size_t shard) const;

  // Real value-memory occupancy summed across every shard and app, taken
  // under all shard locks for a mutually consistent snapshot (the `stats`
  // command's `bytes` / `stats slabs` surface). Empty when the shards were
  // not built with store_values.
  struct ClassUse {
    uint32_t chunk_size = 0;
    uint64_t used_chunks = 0;
    uint64_t resident_bytes = 0;
  };
  struct ValueStats {
    uint64_t value_bytes = 0;   // live payload bytes across all slots
    uint64_t tracked_keys = 0;  // index entries (resident + shadow)
    uint64_t leases = 0;        // borrow leases outstanding
    uint64_t retired_slots = 0; // slots freed while leased
    std::map<int, ClassUse> classes;
  };
  [[nodiscard]] ValueStats MergedValueStats() const;

  // Per-app views. AppStats and AppReservation hold every shard lock for a
  // consistent cross-shard sum; AppReservation sums the shards' registered
  // shares, which is the total AddApp registered (0 for an unknown app).
  // AppShardReservation reads one shard's current share, which under
  // cross_app the shard's cross-app climber moves. app_ids() reads shard 0,
  // which holds the same apps as every other shard.
  [[nodiscard]] ClassStats AppStats(uint32_t app_id) const;
  [[nodiscard]] uint64_t AppReservation(uint32_t app_id) const;
  [[nodiscard]] uint64_t AppShardReservation(uint32_t app_id,
                                             size_t shard) const;
  [[nodiscard]] std::vector<uint32_t> app_ids() const;

  // Always 0: nothing moves memory across shards. It stays only because
  // perfbench/src/main.cc reads it, and perfbench/ changes only together
  // with the benchmark; ROADMAP item 6 deletes it with that read.
  [[nodiscard]] uint64_t rebalance_count() const { return 0; }

  // Sum of the live reservations across every shard and app, under all
  // locks. Conserved by climber transfers and by cross-app removals (while
  // at least one tenant survives).
  [[nodiscard]] uint64_t TotalReservation() const;

  // Under all locks, checks that every shard holds the same app ids and
  // runs every shard's CacheServer::CheckInvariants (which, with cross_app
  // off, pins each share at its registered size). Test/debug only.
  [[nodiscard]] bool CheckInvariants() const;

 private:
  struct Shard;

  // Acquires every shard mutex in ascending index order (the lock-order
  // rule); AddApp, RemoveApp and every whole-server snapshot go through
  // this.
  [[nodiscard]] std::vector<std::unique_lock<std::mutex>> LockAllShards()
      const;

  size_t num_shards_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cliffhanger
