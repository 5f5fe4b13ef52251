// CacheServer: a multi-tenant memcached-style server with pluggable memory
// allocation (FCFS default / static / Cliffhanger) and eviction schemes
// (LRU, Facebook midpoint, ARC, log-structured global LRU).
//
// This is the library's top-level public API: add applications with memory
// reservations, feed Get/Set/Delete operations, and inspect per-class and
// per-app statistics. With AllocationMode::kCliffhanger the server runs the
// paper's combined algorithm (§4.3): hill climbing across the slab-class
// queues of each application (and optionally across applications), plus a
// cliff scaler per sufficiently large queue.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cache/types.h"
#include "cache/value_store.h"
#include "core/cliff_scaler.h"
#include "core/hill_climber.h"
#include "util/slab_geometry.h"

namespace cliffhanger {

class PartitionedSlabQueue;

enum class AllocationMode : uint8_t {
  kFcfs,        // memcached default: slabs grab pages first-come-first-serve
  kStatic,      // fixed per-class allocation (e.g. from the Dynacache solver)
  kCliffhanger  // FCFS growth + hill climbing (+ cliff scaling)
};

enum class EvictionScheme : uint8_t {
  kLru,        // memcached default
  kMidpoint,   // Facebook's hybrid insertion (§5.5)
  kArc,        // ARC per slab class (§5.5)
  kGlobalLog,  // one global LRU per app at 100% utilization (Table 2)
};

struct CliffhangerKnobs {
  bool hill_climbing = true;
  bool cliff_scaling = true;
  // Also run Algorithm 1 across applications (§3.3 / Table 3), using each
  // app's aggregate shadow hits to resize reservations.
  bool cross_app = false;
  HillClimberConfig climber;
  CliffScalerConfig scaler;
};

struct ServerConfig {
  AllocationMode allocation = AllocationMode::kFcfs;
  EvictionScheme eviction = EvictionScheme::kLru;
  CliffhangerKnobs knobs;
  // Per-queue layout defaults; chunk_size/policy are set per class.
  uint32_t tail_items = 128;
  uint32_t cliff_shadow_items = 128;
  uint64_t hill_shadow_bytes = 1 << 20;
  uint64_t page_size = kPageSize;
  uint64_t seed = 0xC11FF;
  // In-arena value storage: every AppCache owns a ValueStore, and the
  // *ByKey/SetValue verbs below carry real payload bytes through slab-class
  // slot arenas (value bytes count against the reservation's queues and are
  // reclaimed eagerly on eviction). Requires kLru or kMidpoint eviction
  // (the shadow-capable partitioned queues drive the eviction listener).
  // Off by default: simulation/replay drivers keep the metadata-only paths
  // bit-identical.
  bool store_values = false;
};

struct ClassStats {
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t sets = 0;
  uint64_t tail_hits = 0;
  uint64_t cliff_shadow_hits = 0;
  uint64_t hill_shadow_hits = 0;
  [[nodiscard]] uint64_t misses() const { return gets - hits; }
  [[nodiscard]] double hit_rate() const {
    return gets == 0 ? 0.0 : static_cast<double>(hits) / gets;
  }
  ClassStats& operator+=(const ClassStats& other) {
    gets += other.gets;
    hits += other.hits;
    sets += other.sets;
    tail_hits += other.tail_hits;
    cliff_shadow_hits += other.cliff_shadow_hits;
    hill_shadow_hits += other.hill_shadow_hits;
    return *this;
  }
};

struct Outcome {
  bool hit = false;
  bool cacheable = true;
  int slab_class = -1;
  HitRegion region = HitRegion::kMiss;
  // The probe found the key but its expiry had passed, so it was lazily
  // erased: a counted miss for a Get (memcached's get_expired), an absent
  // key for a value-mode peek.
  bool expired = false;
};

// Result of a value-mode access (ServerConfig::store_values). `outcome`
// carries the usual statistics view; `view` is a borrowed span into the
// app's value arena, valid while the owning shard stays unmutated, or
// until its ValueLease is returned when the access took one.
struct ValueOutcome {
  Outcome outcome;
  // The entry was invalidated by flush_all and reclaimed on this access
  // without touching the statistics (outcome.cacheable == false).
  bool flush_reclaimed = false;
  bool valid = false;  // `view` is filled and serveable
  ValueView view;
};

enum class ReplaceResult : uint8_t {
  kFailed,    // no longer resident, or rewrite no longer fits any class
  kInPlace,   // same slab class: payload rewritten in its slot (uncounted)
  kReSlabbed  // class changed: old slot freed, counted re-fill in new class
};

class CacheServer;

// One tenant: its reservation, its per-slab-class queues, and (when enabled)
// its Cliffhanger controller state.
class AppCache {
 public:
  AppCache(uint32_t app_id, uint64_t reservation, const ServerConfig& config,
           CacheServer* server);
  ~AppCache();
  AppCache(const AppCache&) = delete;
  AppCache& operator=(const AppCache&) = delete;

  Outcome Get(const ItemMeta& item);
  // Returns true when the SET was admitted and counted in the per-class
  // statistics; false when no slab class fits the item. (kGlobalLog packs
  // items contiguously, so it admits any size and always returns true.)
  bool Set(const ItemMeta& item);
  // memcached `touch`: refresh item.expiry_s and the item's recency
  // standing. True only for a physically resident, unexpired item; does
  // not mutate the GET statistics or the shadow signals.
  bool Touch(const ItemMeta& item);
  void Delete(const ItemMeta& item);

  // --- Value-mode verbs (ServerConfig::store_values only) ---
  //
  // These carry real payload bytes through the per-class ValueStore while
  // reusing the metadata verbs above for every statistics/shadow/eviction
  // decision, so the Cliffhanger signals are identical whether or not
  // values are stored.

  // Counted lookup. Statistics move exactly as Get() would for the key's
  // resident class (or the class a zero-byte value of this key would land
  // in, when the key is unknown), except that a hit the access cannot serve
  // counts as a miss (see the definition). On a serveable hit `valid` is
  // true and `view` points at the stored bytes; with `lease`, the hit also
  // takes a lease on its slot (ValueStore::Lease), which the caller must
  // return.
  ValueOutcome GetByKey(uint64_t key, uint32_t key_size, uint32_t now_s,
                        uint32_t flush_at_s, ValueLease* lease = nullptr);
  // Uncounted validity probe for the read-before-write verbs (add/replace/
  // cas/append/incr/touch/delete). Performs lazy expiry/flush reclamation
  // but moves no statistics and no recency.
  ValueOutcome PeekByKey(uint64_t key, uint32_t now_s, uint32_t flush_at_s);
  // Unconditional store. Returns false (uncounted, old incarnation dropped)
  // when no slab class fits; otherwise counted exactly like Set().
  bool SetValue(const ItemMeta& item, const void* data, uint32_t flags,
                uint64_t cas);
  // Rewrite an existing resident value (append/prepend/incr/decr). The
  // caller must have just Peeked it valid under the same shard lock.
  // Preserves stored flags and expiry across the rewrite.
  ReplaceResult ReplaceValue(uint64_t key, uint32_t key_size,
                             const void* data, uint32_t size, uint64_t cas,
                             uint32_t now_s);
  // memcached `touch`/`delete` against the value store, with peek-style
  // validity (lazy expiry/flush reclamation, no statistics).
  bool TouchByKey(uint64_t key, uint32_t key_size, uint32_t expiry_s,
                  uint32_t now_s, uint32_t flush_at_s);
  bool DeleteByKey(uint64_t key, uint32_t now_s, uint32_t flush_at_s);

  // Null unless store_values.
  [[nodiscard]] const ValueStore* value_store() const {
    return value_store_.get();
  }

  // Fixed allocation for AllocationMode::kStatic (bytes per slab class).
  void SetStaticAllocation(const std::map<int, uint64_t>& bytes_per_class);
  // Cross-app climbing resizes reservations through this: a windfall or
  // squeeze of the live reservation that leaves the registered one (and
  // thus the climber floor) unchanged.
  void SetReservation(uint64_t bytes);

  // Structural self-check: per-class queue invariants, value-store
  // consistency, (outside kStatic / kGlobalLog) conservation of the
  // reservation: allocated + free == reservation, and (outside cross-app
  // climbing, the only mover) reservation == registered_reservation.
  // Test/debug only.
  [[nodiscard]] bool CheckInvariants() const;

  [[nodiscard]] uint32_t app_id() const { return app_id_; }
  [[nodiscard]] uint64_t reservation() const { return reservation_; }
  // The reservation AddApp registered; nothing changes it. The live
  // reservation() drifts from it under cross-app climbing.
  [[nodiscard]] uint64_t registered_reservation() const {
    return registered_bytes_;
  }
  [[nodiscard]] uint64_t free_bytes() const { return free_bytes_; }
  [[nodiscard]] uint64_t allocated_bytes() const;
  [[nodiscard]] uint64_t shadow_overhead_bytes() const;

  struct ClassInfo {
    int slab_class = 0;
    uint64_t capacity_bytes = 0;
    uint64_t used_bytes = 0;
    ClassStats stats;
  };
  [[nodiscard]] std::vector<ClassInfo> ClassInfos() const;
  [[nodiscard]] ClassStats TotalStats() const;

 private:
  friend class CacheServer;
  struct ClassEntry;
  class ClassAdapter;

  // What a value-mode verb finds under a key: no resident value (unknown,
  // shadow-only, or no physical queue node), or a resident value that is
  // live, past its expiry at now_s, or stored before a flush point that
  // has passed. An entry both expired and flushed reads kExpired, so its
  // reclamation counts as an expiry.
  enum class Liveness : uint8_t { kAbsent, kLive, kExpired, kFlushed };

  ClassEntry& GetOrCreateEntry(int slab_class);
  // The class an item's verbs run in: 0 under kGlobalLog (one log holds
  // the app), the slab class of the item's footprint otherwise (-1 when no
  // class fits).
  [[nodiscard]] int ClassFor(const ItemMeta& item) const;
  void EnsureCapacityFor(ClassEntry& entry, uint64_t needed_bytes);
  void ShrinkProportionally(uint64_t deficit);
  // The counted probe body shared by Get() and GetByKey(): statistics,
  // shadow signals, climber/scaler feedback — everything after the slab
  // class is known. Declared inline deliberately: letting the optimizer
  // outline this (both callers live in cache_server.cc) costs ~10% on the
  // GET-hit microbenchmark, which the bench-regression gate treats as real.
  inline Outcome GetAtClass(int slab_class, const ItemMeta& item);
  // The one liveness rule of the value-mode verbs (see Liveness), for the
  // key's Ref as ValueStore::Find returned it. Reads only: the caller
  // reclaims a kExpired or kFlushed entry.
  [[nodiscard]] Liveness LivenessOf(uint64_t key, const ValueStore::Ref& ref,
                                    uint32_t now_s, uint32_t flush_at_s) const;
  // Cliff-aware gradient weight for a hill-shadow hit in `entry` (cross-app
  // climbing only): 1.0 off-cliff; on a cliff the hull slope the scaler is
  // actually serving is steeper than the raw shadow sample, by roughly the
  // pointer span over the operating point.
  [[nodiscard]] double HillGradientWeight(const ClassEntry& entry) const;
  // The partitioned queue for an already-materialized class, or nullptr.
  [[nodiscard]] PartitionedSlabQueue* PartitionedFor(int slab_class) const;
  // Re-register `key` with the value store according to what Fill actually
  // produced (a tiny class can demote a fresh item straight into shadow).
  void RegisterStoredValue(uint64_t key, int slab_class, const void* data,
                           uint32_t size, uint32_t flags, uint64_t cas,
                           uint32_t stored_s);

  uint32_t app_id_;
  uint64_t reservation_;
  const uint64_t registered_bytes_;  // floors derive from this, not from
                                     // climber windfalls
  uint64_t free_bytes_;
  // Cross-app mode only: this app's surface to the server's cross-app
  // climber (a CacheServer::AppAdapter), and its slot there, cached so the
  // hot GET path never does a map lookup.
  std::unique_ptr<ClimbableQueue> cross_adapter_;
  size_t cross_index_ = 0;
  // Value copy, not a reference into the owning server, so the tenant's
  // config can never dangle regardless of how the caller constructed the
  // ServerConfig it passed in (e.g. a temporary, or a per-shard copy).
  // The server_ back-pointer is safe by ownership: AppCache lives inside
  // its CacheServer and cannot outlive it.
  ServerConfig config_;
  CacheServer* server_;

  // Indexed by slab class; null until the class is first used. Every walk
  // goes in ascending class order.
  std::array<std::unique_ptr<ClassEntry>, kMaxSlabClasses> classes_;
  std::unique_ptr<HillClimber> climber_;  // within-app (slab class) climbing
  // Non-null iff config_.store_values: owns the payload bytes and listens
  // to every class queue's evictions.
  std::unique_ptr<ValueStore> value_store_;
};

class CacheServer {
 public:
  explicit CacheServer(const ServerConfig& config);
  ~CacheServer();
  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  AppCache& AddApp(uint32_t app_id, uint64_t reservation);
  // Tenant departure: tears down the app's queues, shadow nodes and value
  // slots eagerly (their destructors release everything), removes it from
  // the cross-app climber, and — in cross-app mode — redistributes its
  // current reservation to the surviving apps proportionally to theirs, so
  // the server-wide total is conserved. Returns false for an unknown app.
  // The app's values must hold no borrow lease (asserted): a lease names a
  // slot of the arena this frees.
  bool RemoveApp(uint32_t app_id);
  [[nodiscard]] AppCache* app(uint32_t app_id);
  [[nodiscard]] const AppCache* app(uint32_t app_id) const;

  // Routed operations (dispatch on item/app ids). Set returns true when the
  // item was cacheable (counted in the per-class statistics). All routed
  // verbs soft-fail on an unknown app (miss / not-admitted / no-op): on the
  // daemon path an in-flight op can race a RemoveApp, and by the time the
  // shard lock serializes it the tenant may already be gone.
  Outcome Get(uint32_t app_id, const ItemMeta& item);
  bool Set(uint32_t app_id, const ItemMeta& item);
  bool Touch(uint32_t app_id, const ItemMeta& item);
  void Delete(uint32_t app_id, const ItemMeta& item);

  // Value-mode verbs, routed by app id (ServerConfig::store_values only).
  ValueOutcome GetByKey(uint32_t app_id, uint64_t key, uint32_t key_size,
                        uint32_t now_s, uint32_t flush_at_s,
                        ValueLease* lease = nullptr);
  ValueOutcome PeekByKey(uint32_t app_id, uint64_t key, uint32_t now_s,
                         uint32_t flush_at_s);
  bool SetValue(uint32_t app_id, const ItemMeta& item, const void* data,
                uint32_t flags, uint64_t cas);
  ReplaceResult ReplaceValue(uint32_t app_id, uint64_t key, uint32_t key_size,
                             const void* data, uint32_t size, uint64_t cas,
                             uint32_t now_s);
  bool TouchByKey(uint32_t app_id, uint64_t key, uint32_t key_size,
                  uint32_t expiry_s, uint32_t now_s, uint32_t flush_at_s);
  bool DeleteByKey(uint32_t app_id, uint64_t key, uint32_t now_s,
                   uint32_t flush_at_s);

  [[nodiscard]] ClassStats TotalStats() const;
  [[nodiscard]] std::vector<uint32_t> app_ids() const;
  [[nodiscard]] size_t num_apps() const { return apps_.size(); }
  // Sum of the live reservations across all apps.
  [[nodiscard]] uint64_t total_reservation() const;
  // Runs every app's CheckInvariants. Test/debug only.
  [[nodiscard]] bool CheckInvariants() const;

 private:
  friend class AppCache;
  class AppAdapter;
  // Aggregate per-app shadow signal feeding the cross-app climber. `weight`
  // is the cliff-aware gradient amplification (1.0 off-cliff).
  void OnAppShadowHit(size_t app_index, double weight);
  // Split `bytes` across the surviving apps proportionally to their current
  // reservations (largest-remainder; deterministic app_id tiebreak).
  void RedistributeReservation(uint64_t bytes);

  ServerConfig config_;
  std::map<uint32_t, std::unique_ptr<AppCache>> apps_;
  // Points at the apps' cross_adapter_s: declared after apps_, so it is
  // destroyed first and never reads a destroyed adapter.
  std::unique_ptr<HillClimber> cross_climber_;
};

}  // namespace cliffhanger
