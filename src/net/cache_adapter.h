// Maps memcached ASCII commands onto a ShardedCacheServer.
//
// Since the core grew in-arena value storage (ServerConfig::store_values,
// cache/value_store.h), the adapter is a thin protocol shim: value bytes,
// item attributes (flags, cas, store time) and presence all live in the
// core's per-shard ValueStore, and every verb below is one or two core
// value-verb calls under the owning shard's lock. There is no side table,
// no lazy reclamation, and no per-key metadata retained after eviction —
// when the core evicts an item, its value slot is freed eagerly via the
// eviction listener, and the adapter learns nothing and needs nothing.
//
//  - Key mapping. A text key maps to the core's 64-bit key id via Fnv1a64
//    over the full key string (stable, process-independent). 64-bit FNV
//    collisions alias two text keys to one cache slot (last writer wins);
//    at memcached-realistic key counts the probability is negligible.
//  - App routing. Keys of the form "app<digits>:<rest>" route to that
//    registered application; everything else goes to the default app (the
//    listen port's tenant). Ops for unregistered apps fail softly (miss /
//    SERVER_ERROR) rather than mutating anything.
//  - Presence. add/replace/cas/incr/decr/append/prepend/touch decide
//    presence from the core directly (PeekValue: resident, unexpired,
//    unflushed — statistics-neutral). There is no window between an
//    eviction and the next GET where the adapter believes a dead key is
//    alive: eviction frees the slot synchronously.
//  - One execution path. Every get/store/arith/touch/delete runs through
//    ExecuteShardedRun: a run of such commands is expanded into per-key
//    ops, stable-sorted by shard and executed under one ShardBatch per
//    shard. HandleBatch feeds it whole bursts; Handle() feeds it one
//    command. Only the barrier verbs (stats/version/flush_all/quit/
//    protocol errors) have handlers of their own.
//  - Zero-copy GET. A hit hands back a ValueView borrowing the payload
//    bytes straight from the value arena, valid until the owning shard
//    next mutates. A burst consisting solely of get/gets pins the touched
//    shards' ShardBatch objects (ascending shard order) until the
//    response segments are flushed, so the writev/SENDMSG scatter-gathers
//    directly from arena memory — the value bytes are never copied. Mixed
//    bursts and Handle() copy the payload into the response text instead
//    (the batch cannot outlive the call).
//  - Time. Every core operation is stamped with `now` from an injectable
//    clock (CacheAdapterConfig::clock; defaults to the wall clock), so
//    expiry is lazy and fully deterministic under test. Expiry is
//    enforced by the core queues; `flush_all` keeps its cutoff second
//    here and passes it into every core value verb, which compares it
//    against the slot's stored_s. Both are O(1) per access; there is no
//    background sweeper thread.
//  - Arithmetic and re-slabbing. incr/decr rewrite the decimal value
//    (incr wraps mod 2^64, decr saturates at 0); append/prepend splice
//    bytes. The core's ReplaceValue rewrites in place when the new value
//    stays in the same slab class (recency moves, statistics do not) and
//    re-slabs through a Delete + counted Set when it does not, so the
//    paper's per-class accounting (and the climbers feeding on it) stays
//    truthful.
//
// Determinism contract (relied on by the e2e test): for a single
// connection, the sequence of core value-verb calls — including the
// ItemMeta sizes — is a pure function of the command stream and the
// injected clock. GET probes the stored size when the key is resident and
// the class-for-size-0 footprint otherwise; a store whose size moves the
// item across slab classes deletes the old incarnation first.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/sharded_server.h"
#include "net/socket_server.h"

namespace cliffhanger {
namespace net {

inline constexpr std::string_view kServerVersion = "cliffhanger-0.6.0";

// memcached's relative/absolute exptime boundary: a positive exptime up to
// 30 days is relative to now; anything larger is an absolute unix second.
inline constexpr int64_t kRelativeExptimeCutoff = 60 * 60 * 24 * 30;

struct CacheAdapterConfig {
  uint32_t default_app_id = 1;
  // Recognize the "app<digits>:" key-namespace prefix for app routing.
  bool parse_app_prefix = true;
  // Injectable second-resolution clock for expiry/flush determinism under
  // test. Must never report 0 (second 0 means "no expiry evaluation" in
  // the cache layers); the default wall clock cannot. Called outside the
  // shard locks, once per command.
  std::function<uint32_t()> clock;
};

// Resolves a protocol exptime against `now` into the absolute expiry
// second stored with the item: 0 stays 0 (never), a negative value means
// already expired, values up to kRelativeExptimeCutoff are relative to
// now, larger values are absolute unix seconds (clamped to uint32).
[[nodiscard]] uint32_t AbsoluteExpiry(int64_t exptime, uint32_t now_s);

class CacheAdapter final : public CommandHandler {
 public:
  // `server` must be constructed with ServerConfig::store_values = true
  // and outlive the adapter; its apps must be registered before traffic
  // starts (same contract as ShardedCacheServer::AddApp).
  CacheAdapter(ShardedCacheServer* server, const CacheAdapterConfig& config);
  ~CacheAdapter() override;
  CacheAdapter(const CacheAdapter&) = delete;
  CacheAdapter& operator=(const CacheAdapter&) = delete;

  // One command, response text appended to *out: barrier verbs run their
  // own handler, every other verb a one-command unpinned ExecuteShardedRun
  // (so a GET hit copies its payload). The socket server only calls
  // HandleBatch; this is for callers that hold a single parsed command.
  bool Handle(const Command& cmd, std::string* out) override;
  // Burst entry point (both socket backends): consecutive shardable
  // commands are grouped by shard and executed under ONE core ShardBatch
  // per shard per run, instead of one lock acquisition per op. Response
  // slots are claimed in command/key order, so the segment sequence is
  // byte-identical to handling the commands one at a time: ops on
  // different shards touch disjoint state, and same-key ops always hash
  // to the same shard, where the stable grouping preserves their order
  // (read-your-write within a pipelined burst included). A burst that is
  // entirely get/gets keeps its ShardBatches pinned until
  // ReleaseBurstPins() so the response segments can borrow the payload
  // bytes from the value arena (zero-copy writev). Barrier commands
  // (stats/version/flush_all/quit/errors) go to Handle() in place.
  bool HandleBatch(const Command* cmds, size_t count,
                   std::vector<ResponseSegment>* segments) override;
  // Unlocks and destroys the ShardBatches pinned by a pure-GET burst.
  // Must run on the thread that called HandleBatch, after the segments
  // are flushed (the socket server's burst cycle guarantees both).
  void ReleaseBurstPins() override;

  // Tenant lifecycle on the daemon path. AddApp registers the app on the
  // core server and publishes it to the routing snapshot; RemoveApp
  // withdraws it from routing first, then tears it down in the core (the
  // core's routed verbs soft-fail any op that already routed). Both swap
  // the immutable app-id snapshot atomically, so concurrent connection
  // threads keep routing against a consistent list with no locks on the
  // hot path. Serialize lifecycle calls themselves (one admin caller).
  void AddApp(uint32_t app_id, uint64_t reservation);
  bool RemoveApp(uint32_t app_id);

  // Protocol-level counters (what `stats` reports, memcached names).
  struct Counters {
    uint64_t cmd_get = 0;        // keys requested via get/gets
    uint64_t get_hits = 0;
    uint64_t get_misses = 0;
    uint64_t get_expired = 0;    // misses caused by expiry/flush reclaim
    uint64_t cmd_set = 0;        // set/add/replace/cas/append/prepend
    uint64_t store_rejected = 0; // NOT_STORED + SERVER_ERROR outcomes
    uint64_t cas_hits = 0;
    uint64_t cas_misses = 0;
    uint64_t cas_badval = 0;     // EXISTS outcomes
    uint64_t incr_hits = 0;
    uint64_t incr_misses = 0;
    uint64_t decr_hits = 0;
    uint64_t decr_misses = 0;
    uint64_t cmd_touch = 0;
    uint64_t touch_hits = 0;
    uint64_t touch_misses = 0;
    uint64_t cmd_flush = 0;
    uint64_t cmd_delete = 0;
    uint64_t delete_hits = 0;
    uint64_t protocol_errors = 0;
    uint64_t bytes_stored = 0;   // live value bytes in the core arenas
    uint64_t bytes_read = 0;     // payload bytes accepted by stores
    uint64_t bytes_written = 0;  // payload bytes served by get hits
  };
  [[nodiscard]] Counters counters() const;

 private:
  struct BurstOp;
  struct RoutedKey {
    uint32_t app_id = 0;
    uint64_t key_id = 0;
    bool app_known = false;
  };

  [[nodiscard]] RoutedKey Route(std::string_view key) const;
  [[nodiscard]] uint32_t Now() const { return config_.clock(); }
  [[nodiscard]] uint64_t NextCas() {
    return cas_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  [[nodiscard]] uint32_t FlushAt() const {
    return flush_at_s_.load(std::memory_order_relaxed);
  }

  // Counts the command and, when its app is unknown, emits the verb's
  // soft-failure response (ExecuteShardedRun runs it at collection, before
  // taking any lock). Returns true when the command should proceed to its
  // shard op.
  bool CountAndAdmit(const Command& cmd, const RoutedKey& rk,
                     std::string* out);

  // Locked per-op executors: the memcached semantics of one operation,
  // expressed over the core value verbs through the ShardBatch that
  // ExecuteShardedRun holds for rk's shard. Pre for all: rk.app_known
  // true, CountAndAdmit (or the per-key get admission) already ran, `core`
  // targets rk's shard.
  //
  // GetKeyLocked serves a hit either zero-copy (`zc` non-null: the VALUE
  // header goes into zc->text and the payload span borrows the arena
  // bytes — only legal when the caller keeps the batch pinned until the
  // segments are flushed) or by copying the payload into *out.
  void GetKeyLocked(ShardedCacheServer::ShardBatch& core,
                    std::string_view key, const RoutedKey& rk,
                    uint32_t now_s, bool with_cas, std::string* out,
                    ResponseSegment* zc);
  void StoreLocked(ShardedCacheServer::ShardBatch& core, const Command& cmd,
                   const RoutedKey& rk, uint32_t now_s, std::string* out);
  void ConcatLocked(ShardedCacheServer::ShardBatch& core, const Command& cmd,
                    const RoutedKey& rk, uint32_t now_s, std::string* out);
  void ArithLocked(ShardedCacheServer::ShardBatch& core, const Command& cmd,
                   const RoutedKey& rk, uint32_t now_s, bool increment,
                   std::string* out);
  void TouchLocked(ShardedCacheServer::ShardBatch& core, const Command& cmd,
                   const RoutedKey& rk, uint32_t now_s, std::string* out);
  void DeleteLocked(ShardedCacheServer::ShardBatch& core, const Command& cmd,
                    const RoutedKey& rk, uint32_t now_s, std::string* out);
  void ExecuteOpLocked(ShardedCacheServer::ShardBatch& core,
                       const BurstOp& op, ResponseSegment* seg, bool pinned);
  // The burst engine: expands a run of shardable commands into per-key ops
  // with pre-claimed response slots, groups the ops by shard (stable), and
  // executes each group under one core ShardBatch. With `pinned`, the
  // batches are parked (ascending shard order) for ReleaseBurstPins
  // instead of being destroyed, keeping the zero-copy payload spans alive
  // through the flush.
  void ExecuteShardedRun(const Command* cmds, size_t count,
                         std::vector<ResponseSegment>* segments,
                         size_t* used, bool pinned);

  void HandleFlushAll(const Command& cmd, std::string* out);
  void HandleStats(std::string* out);

  // The registered-app list as an immutable, atomically swapped snapshot:
  // Route() loads it lock-free per command; AddApp/RemoveApp publish a new
  // sorted vector. (std::atomic_load/store on shared_ptr — the tools this
  // toolchain's libstdc++ offers; atomic<shared_ptr> is C++20.)
  [[nodiscard]] std::shared_ptr<const std::vector<uint32_t>> AppSnapshot()
      const {
    return std::atomic_load_explicit(&app_ids_, std::memory_order_acquire);
  }

  ShardedCacheServer* server_;
  CacheAdapterConfig config_;
  std::shared_ptr<const std::vector<uint32_t>> app_ids_;  // sorted

  std::atomic<uint64_t> cas_counter_{0};
  // flush_all point: items stored before it are dead once now reaches it.
  // 0 = no flush scheduled.
  std::atomic<uint32_t> flush_at_s_{0};

  std::atomic<uint64_t> cmd_get_{0};
  std::atomic<uint64_t> get_hits_{0};
  std::atomic<uint64_t> get_misses_{0};
  std::atomic<uint64_t> get_expired_{0};
  std::atomic<uint64_t> cmd_set_{0};
  std::atomic<uint64_t> store_rejected_{0};
  std::atomic<uint64_t> cas_hits_{0};
  std::atomic<uint64_t> cas_misses_{0};
  std::atomic<uint64_t> cas_badval_{0};
  std::atomic<uint64_t> incr_hits_{0};
  std::atomic<uint64_t> incr_misses_{0};
  std::atomic<uint64_t> decr_hits_{0};
  std::atomic<uint64_t> decr_misses_{0};
  std::atomic<uint64_t> cmd_touch_{0};
  std::atomic<uint64_t> touch_hits_{0};
  std::atomic<uint64_t> touch_misses_{0};
  std::atomic<uint64_t> cmd_flush_{0};
  std::atomic<uint64_t> cmd_delete_{0};
  std::atomic<uint64_t> delete_hits_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace net
}  // namespace cliffhanger
