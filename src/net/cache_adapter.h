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
//    application; everything else goes to the default app (the listen
//    port's tenant). Whether the app exists is decided by the shard's
//    CacheServer under its lock, so the adapter follows apps added and
//    removed while it runs. An op for an app the server does not hold
//    fails softly rather than mutating anything: a store is refused with
//    SERVER_ERROR before a cas is minted, and every other verb takes the
//    core's soft failure (a get misses, the rest reply NOT_FOUND).
//  - Presence. add/replace/cas/incr/decr/append/prepend/touch decide
//    presence from the core directly (PeekByKey: resident, unexpired,
//    unflushed — statistics-neutral). There is no window between an
//    eviction and the next GET where the adapter believes a dead key is
//    alive: eviction frees the slot synchronously.
//  - One execution path. Every get/store/arith/touch/delete runs through
//    ExecuteShardedRun: a run of such commands is expanded into per-key
//    ops, grouped by shard in one linear pass (stream order kept within a
//    shard) and executed on each shard's CacheServer under one ShardBatch
//    (the shard's lock) per shard. HandleBatch feeds it whole bursts;
//    Handle() is a one-command HandleBatch. Only the barrier verbs
//    (stats/version/flush_all/quit/protocol errors) have handlers of
//    their own.
//  - Free shards first. Each shard group first tries its shard's lock
//    (ShardedCacheServer::TryBeginBatch); a group whose shard another
//    worker holds is deferred, and the deferred groups wait for their
//    locks after every free shard is served. The thread holds one shard
//    lock at a time, so no lock order is needed. Uncontended, groups run
//    in ascending shard order. Under contention the order between shards
//    follows lock availability, and so does the order in which one
//    burst's stores on different shards draw their CAS values (the cas
//    counter is read under the shard lock); each shard's ops, and so each
//    key's, keep stream order. ReleaseBurstPins returns leases the same
//    way.
//  - Coalesced replies. Each op writes its reply into a thread-local
//    scratch slot (capacity reused across bursts) while its shard's group
//    runs; the run then copies the slots, in command order, into as few
//    response segments as the borrowed payloads allow. Every copied byte
//    (VALUE headers, small payloads, CRLFs, END, store/arith/touch/delete
//    and barrier replies) joins the open segment's text; only a borrowed
//    payload closes a segment. A burst of 64 copied GET hits leaves as one
//    iovec, and a borrowed hit costs two (text, payload): every extra
//    iovec cost 15-45 ns in a loopback writev probe on a 4-vCPU VM.
//  - Zero-copy GET. Every GET hit of at least kMinBorrowBytes, in every
//    burst, leaves straight from the value arena: the response segment's
//    payload span points at the stored bytes, and the writev/SENDMSG
//    scatter-gathers from there. The hit takes a borrow lease on its slot
//    under the shard lock (GetByKey with a lease, through the ShardBatch)
//    and records it in a thread-local borrow list; each shard lock is
//    released as soon as its group of ops finishes. Until ReleaseBurstPins() returns the
//    leases after the flush, an overwrite, rewrite, eviction or delete of
//    the key — in the same burst or on another worker — retires the slot
//    instead of reusing it, so the borrowed bytes stay exactly what the
//    GET saw (memcached pins an item with a reference count the same
//    way). Smaller payloads are copied into the header text under the
//    lock. Handle() copies every payload into its output, then returns
//    its leases.
//  - Per-worker statistics. Every thread that runs the adapter gets its
//    own cache-line-aligned block of the Counters fields, registered under
//    a mutex on first use and owned by the adapter (so counts outlive the
//    thread). Only the owner writes a block, with relaxed loads and
//    stores, and no two blocks share a cache line, so workers never
//    contend on a counter. counters() sums the blocks, as memcached sums
//    its per-thread stats on `stats`.
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
#include <mutex>
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

// GET-hit payloads of at least this many bytes are borrowed from the value
// arena; smaller ones are copied into the response text. A borrowed hit
// costs two more iovecs (payload, CRLF) and a lease taken and returned:
// 30-90 ns per hit in a loopback writev probe on a 4-vCPU VM. A copy costs
// about 0.06 ns per byte (borrowing saved 1.6-1.9 us per command on
// 26 KiB mean values), so the two meet near 1 KiB. Below it, on the ETC mix's
// 64/400 B values, borrowing cost 11% of closed-loop throughput.
inline constexpr uint32_t kMinBorrowBytes = 1024;

struct CacheAdapterConfig {
  // Keys without an "app<digits>:" prefix route to this application.
  uint32_t default_app_id = 1;
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
  // and outlive the adapter. Apps may be added and removed while the
  // adapter runs (see "App routing" above); an app may only be removed
  // once the adapter holds no borrow of its values
  // (CacheServer::RemoveApp).
  CacheAdapter(ShardedCacheServer* server, const CacheAdapterConfig& config);
  ~CacheAdapter() override;
  CacheAdapter(const CacheAdapter&) = delete;
  CacheAdapter& operator=(const CacheAdapter&) = delete;

  // One command, response text appended to *out: a one-command
  // HandleBatch whose borrowed GET payloads are copied into *out before
  // their leases are returned. The socket server only calls HandleBatch;
  // this is for callers that hold a single parsed command.
  bool Handle(const Command& cmd, std::string* out) override;
  // Burst entry point, called once per burst by the socket server:
  // consecutive shardable commands are grouped by shard and executed under
  // ONE core ShardBatch per shard per run, instead of one lock acquisition
  // per op, free shards first (see "Free shards first" above); each shard
  // lock is released when its group finishes. Reply slots are claimed in
  // command/key order and copied out in that order, so the byte stream is
  // identical to handling the commands one at a time: ops on different
  // shards touch disjoint state, and same-key ops always hash to the same
  // shard, where the grouping preserves their order (read-your-write
  // within a pipelined burst included). A GET hit of kMinBorrowBytes or
  // more borrows its payload from the value arena under a lease (see
  // "Zero-copy GET" above). The burst fills one segment per borrowed
  // payload plus one (see "Coalesced replies" above); barrier commands
  // (stats/version/flush_all/quit/errors) append their replies to the open
  // segment in place, and on `quit` the replies so far are in the segments
  // when false is returned.
  bool HandleBatch(const Command* cmds, size_t count,
                   std::vector<ResponseSegment>* segments) override;
  // Returns the borrow leases this thread's HandleBatch calls took, taking
  // each touched shard's lock once. Must run on the thread that called
  // HandleBatch, after the segments are flushed and before the thread runs
  // another adapter's burst (the socket server's burst cycle guarantees
  // all three): the payload spans die here.
  void ReleaseBurstPins() override;

  // Protocol-level counters (what `stats` reports, memcached names). Live
  // value bytes are not among them: `stats` reads those from the arenas
  // (ShardedCacheServer::MergedValueStats), under every shard lock.
  // counters() sums each field over the per-worker blocks. The sum is
  // exact once the writers are quiet (every burst whose counts should be
  // seen has returned); while workers run, each field is some recent value
  // of its own, not a snapshot across fields.
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
    uint64_t bytes_read = 0;     // payload bytes accepted by stores
    uint64_t bytes_written = 0;  // payload bytes served by get hits
  };
  [[nodiscard]] Counters counters() const;
  // Threads that have run this adapter: one counter block each.
  [[nodiscard]] size_t counter_blocks() const;

 private:
  struct BurstOp;
  struct OpReply;
  struct CounterBlock;
  struct RoutedKey {
    uint32_t app_id = 0;
    uint64_t key_id = 0;
  };

  [[nodiscard]] RoutedKey Route(std::string_view key) const;
  [[nodiscard]] uint32_t Now() const { return config_.clock(); }
  [[nodiscard]] uint64_t NextCas() {
    return cas_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  [[nodiscard]] uint32_t FlushAt() const {
    return flush_at_s_.load(std::memory_order_relaxed);
  }

  // This thread's counter block, registered on the thread's first burst
  // through this adapter. HandleBatch and Handle look it up once and pass
  // it down.
  CounterBlock& LocalCounters();

  // Locked per-op executors: the memcached semantics of one operation,
  // expressed over the value verbs of rk's shard's CacheServer (`core`),
  // reached through the ShardBatch that ExecuteShardedRun holds for that
  // shard. Pre for all: the batch holds rk's shard. Pre for StoreLocked
  // and ConcatLocked: rk's app exists (ExecuteOpLocked refuses a store to
  // an app the core does not hold).
  //
  // GetKeyLocked serves a hit: the VALUE header goes into reply->text; a
  // payload of kMinBorrowBytes or more is borrowed from the arena under a
  // lease recorded in the thread's borrow list, a smaller one is copied
  // after the header with its CRLF.
  void GetKeyLocked(ShardedCacheServer::ShardBatch& batch,
                    std::string_view key, const RoutedKey& rk,
                    uint32_t now_s, bool with_cas, CounterBlock& counts,
                    OpReply* reply);
  void StoreLocked(CacheServer& core, const Command& cmd,
                   const RoutedKey& rk, uint32_t now_s, CounterBlock& counts,
                   std::string* out);
  void ConcatLocked(CacheServer& core, const Command& cmd,
                    const RoutedKey& rk, uint32_t now_s, CounterBlock& counts,
                    std::string* out);
  void ArithLocked(CacheServer& core, const Command& cmd,
                   const RoutedKey& rk, uint32_t now_s, bool increment,
                   CounterBlock& counts, std::string* out);
  void TouchLocked(CacheServer& core, const Command& cmd,
                   const RoutedKey& rk, uint32_t now_s, CounterBlock& counts,
                   std::string* out);
  void DeleteLocked(CacheServer& core, const Command& cmd,
                    const RoutedKey& rk, uint32_t now_s, CounterBlock& counts,
                    std::string* out);
  void ExecuteOpLocked(ShardedCacheServer::ShardBatch& batch,
                       const BurstOp& op, CounterBlock& counts,
                       OpReply* reply);
  // The burst engine: expands a run of shardable commands into per-key ops
  // with pre-claimed reply slots, groups the ops by shard (keeping command
  // order within a shard), and executes each group under one core
  // ShardBatch, released when the group ends, free shards first. The
  // replies are then appended, in command order, to the open segment
  // (*segments)[*used - 1]; each borrowed payload closes the open segment
  // and claims the next.
  void ExecuteShardedRun(const Command* cmds, size_t count,
                         CounterBlock& counts,
                         std::vector<ResponseSegment>* segments,
                         size_t* used);
  // Returns the leases of this thread's borrow list from index `first` on,
  // one lock acquisition per touched shard, free shards first, and
  // truncates the list there.
  void ReleaseBorrowsFrom(size_t first);

  // stats/version/flush_all/quit/protocol errors; false on quit.
  bool HandleBarrier(const Command& cmd, CounterBlock& counts,
                     std::string* out);
  void HandleFlushAll(const Command& cmd, CounterBlock& counts,
                      std::string* out);
  void HandleStats(std::string* out);

  ShardedCacheServer* server_;
  CacheAdapterConfig config_;
  // Process-unique, never reused: the key of this adapter's entry in each
  // thread's counter-block list (an address could belong to a destroyed
  // adapter).
  const uint64_t id_;

  std::atomic<uint64_t> cas_counter_{0};
  // flush_all point: items stored before it are dead once now reaches it.
  // 0 = no flush scheduled.
  std::atomic<uint32_t> flush_at_s_{0};

  // One block per thread that has run the adapter; the mutex guards the
  // list (registration and counters()), not the counts.
  mutable std::mutex counters_mu_;
  std::vector<std::unique_ptr<CounterBlock>> counter_blocks_;
};

}  // namespace net
}  // namespace cliffhanger
