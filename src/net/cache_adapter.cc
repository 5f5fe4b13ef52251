#include "net/cache_adapter.h"

#include <time.h>

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/argparse.h"
#include "util/hashing.h"
#include "util/slab_geometry.h"

namespace cliffhanger {
namespace net {

namespace {

// "app<digits>:<rest>" -> app id. Returns false when the key does not use
// the namespace convention (including overflowing ids).
bool ParseAppPrefix(std::string_view key, uint32_t* app_id) {
  if (key.size() < 5 || key.compare(0, 3, "app") != 0) return false;
  uint64_t id = 0;
  size_t pos = 3;
  while (pos < key.size() && key[pos] >= '0' && key[pos] <= '9') {
    id = id * 10 + static_cast<uint64_t>(key[pos] - '0');
    if (id > UINT32_MAX) return false;
    ++pos;
  }
  if (pos == 3 || pos >= key.size() || key[pos] != ':') return false;
  *app_id = static_cast<uint32_t>(id);
  return true;
}

// Claims the next response slot, recycling a caller-Reset() element when
// one is available and growing the vector otherwise (see the HandleBatch
// contract in socket_server.h: the steady-state burst cycle reuses slots
// and their string capacities, so it does not touch the allocator).
ResponseSegment& ClaimSlot(std::vector<ResponseSegment>* segments,
                           size_t* used) {
  if (*used == segments->size()) segments->emplace_back();
  return (*segments)[(*used)++];
}

// One GET hit's borrow: the lease keeps the payload slot's bytes in place
// until ReleaseBurstPins() returns it under the owning shard's lock, after
// the flush. Thread-local because each socket worker runs its own bursts
// and calls HandleBatch and ReleaseBurstPins on the same thread, back to
// back; cleared, never shrunk, so the burst cycle reuses its capacity.
struct Borrow {
  size_t shard;
  ValueLease lease;
};
thread_local std::vector<Borrow> t_borrows;

std::atomic<uint64_t> g_next_adapter_id{1};

// Single-writer add: only the block's owning thread writes it, so a relaxed
// load and store do what fetch_add would, without the locked instruction.
void Add(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

uint64_t Load(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

}  // namespace

// One thread's Counters, as atomics only that thread writes (see Add), on
// cache lines no other block shares.
struct alignas(64) CacheAdapter::CounterBlock {
  std::atomic<uint64_t> cmd_get{0};
  std::atomic<uint64_t> get_hits{0};
  std::atomic<uint64_t> get_misses{0};
  std::atomic<uint64_t> get_expired{0};
  std::atomic<uint64_t> cmd_set{0};
  std::atomic<uint64_t> store_rejected{0};
  std::atomic<uint64_t> cas_hits{0};
  std::atomic<uint64_t> cas_misses{0};
  std::atomic<uint64_t> cas_badval{0};
  std::atomic<uint64_t> incr_hits{0};
  std::atomic<uint64_t> incr_misses{0};
  std::atomic<uint64_t> decr_hits{0};
  std::atomic<uint64_t> decr_misses{0};
  std::atomic<uint64_t> cmd_touch{0};
  std::atomic<uint64_t> touch_hits{0};
  std::atomic<uint64_t> touch_misses{0};
  std::atomic<uint64_t> cmd_flush{0};
  std::atomic<uint64_t> cmd_delete{0};
  std::atomic<uint64_t> delete_hits{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
};

// One op's reply, written under its shard lock: the copied bytes and, for a
// borrowed GET hit, the payload span, which a CRLF follows on the wire.
// `ends_get` appends the END of a get/gets after its last key's reply.
struct CacheAdapter::OpReply {
  std::string text;
  const char* payload = nullptr;
  size_t payload_size = 0;
  bool ends_get = false;
};

uint32_t AbsoluteExpiry(int64_t exptime, uint32_t now_s) {
  // Clamp below kKeepExpiry so a protocol exptime can never alias the
  // Touch keep-the-stored-expiry sentinel (cache/types.h).
  constexpr uint32_t kMaxExpiry = kKeepExpiry - 1;
  if (exptime == 0) return 0;
  if (exptime < 0) {
    // Already expired (memcached's -1): any stored second <= now reads as
    // expired; max(1, now) also covers a (contractually forbidden) now==0.
    return std::max<uint32_t>(1, now_s);
  }
  if (exptime <= kRelativeExptimeCutoff) {
    const uint64_t absolute = static_cast<uint64_t>(now_s) +
                              static_cast<uint64_t>(exptime);
    return absolute > kMaxExpiry ? kMaxExpiry
                                 : static_cast<uint32_t>(absolute);
  }
  return exptime > static_cast<int64_t>(kMaxExpiry)
             ? kMaxExpiry
             : static_cast<uint32_t>(exptime);
}

CacheAdapter::CacheAdapter(ShardedCacheServer* server,
                           const CacheAdapterConfig& config)
    : server_(server),
      config_(config),
      id_(g_next_adapter_id.fetch_add(1, std::memory_order_relaxed)) {
  if (!config_.clock) {
    config_.clock = [] { return static_cast<uint32_t>(::time(nullptr)); };
  }
}

CacheAdapter::~CacheAdapter() = default;

CacheAdapter::CounterBlock& CacheAdapter::LocalCounters() {
  // This thread's block of each adapter it has run, the latest last.
  // Entries of destroyed adapters are never matched again (ids are not
  // reused) and go when the thread exits.
  struct Entry {
    uint64_t adapter_id;
    CounterBlock* block;
  };
  static thread_local std::vector<Entry> entries;
  if (!entries.empty() && entries.back().adapter_id == id_) {
    return *entries.back().block;
  }
  for (Entry& entry : entries) {
    if (entry.adapter_id == id_) {
      std::swap(entry, entries.back());
      return *entries.back().block;
    }
  }
  CounterBlock* block = nullptr;
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    counter_blocks_.push_back(std::make_unique<CounterBlock>());
    block = counter_blocks_.back().get();
  }
  entries.push_back(Entry{id_, block});
  return *block;
}

CacheAdapter::RoutedKey CacheAdapter::Route(std::string_view key) const {
  RoutedKey rk;
  rk.key_id = Fnv1a64(key);
  rk.app_id = config_.default_app_id;
  uint32_t prefixed = 0;
  if (ParseAppPrefix(key, &prefixed)) rk.app_id = prefixed;
  return rk;
}

void CacheAdapter::GetKeyLocked(ShardedCacheServer::ShardBatch& batch,
                                std::string_view key, const RoutedKey& rk,
                                uint32_t now_s, bool with_cas,
                                CounterBlock& counts, OpReply* reply) {
  Add(counts.cmd_get);
  ValueLease lease;
  const ValueOutcome vo = batch.server(rk.key_id).GetByKey(
      rk.app_id, rk.key_id, static_cast<uint32_t>(key.size()), now_s,
      FlushAt(), &lease);
  if (vo.flush_reclaimed) {
    // flush_all invalidation, reclaimed on this access without touching
    // the core statistics (the probe never ran).
    Add(counts.get_misses);
    Add(counts.get_expired);
    return;
  }
  if (vo.valid) {
    Add(counts.get_hits);
    Add(counts.bytes_written, vo.view.size);
    if (with_cas) {
      AppendValueHeaderCas(&reply->text, key, vo.view.flags, vo.view.size,
                           vo.view.cas);
    } else {
      AppendValueHeader(&reply->text, key, vo.view.flags, vo.view.size);
    }
    if (vo.view.size < kMinBorrowBytes) {
      // Cheaper to copy than to send as another iovec under a lease.
      batch.ReturnLease(lease);
      reply->text.append(vo.view.data, vo.view.size);
      reply->text.append(kCrlf);
      return;
    }
    t_borrows.push_back(Borrow{batch.shard_index(), lease});
    reply->payload = vo.view.data;
    reply->payload_size = vo.view.size;
    return;
  }
  Add(counts.get_misses);
  if (vo.outcome.expired) {
    Add(counts.get_expired);
  }
}

void CacheAdapter::StoreLocked(CacheServer& core,
                               const Command& cmd, const RoutedKey& rk,
                               uint32_t now_s, CounterBlock& counts,
                               std::string* out) {
  const bool is_cas = cmd.type == CommandType::kCas;
  const std::string_view key = cmd.key();
  const auto key_size = static_cast<uint32_t>(key.size());

  // The conditional verbs decide presence from the core directly
  // (resident, unexpired, unflushed) — a statistics-neutral peek that also
  // lazily reclaims an expired/flushed incarnation on this touch-point.
  if (cmd.type == CommandType::kAdd || cmd.type == CommandType::kReplace ||
      is_cas) {
    const ValueOutcome peek =
        core.PeekByKey(rk.app_id, rk.key_id, now_s, FlushAt());
    if ((cmd.type == CommandType::kAdd && peek.valid) ||
        (cmd.type == CommandType::kReplace && !peek.valid)) {
      Add(counts.store_rejected);
      if (!cmd.noreply) out->append(kNotStoredLine);
      return;
    }
    if (is_cas) {
      if (!peek.valid) {
        Add(counts.cas_misses);
        Add(counts.store_rejected);
        if (!cmd.noreply) out->append(kNotFoundLine);
        return;
      }
      if (peek.view.cas != cmd.cas_unique) {
        Add(counts.cas_badval);
        Add(counts.store_rejected);
        if (!cmd.noreply) out->append(kExistsLine);
        return;
      }
    }
  }

  const auto new_size = static_cast<uint32_t>(cmd.data.size());
  ItemMeta item{rk.key_id, key_size, new_size};
  item.expiry_s = AbsoluteExpiry(cmd.exptime, now_s);
  item.now_s = now_s;
  if (SlabClassFor(ExactFootprint(key_size, new_size)) < 0) {
    // No slab class fits. SetValue still runs to drop any old incarnation
    // (memcached erases the key on an oversized store attempt); no cas is
    // minted for a rejected store, keeping the cas stream identical to the
    // success-only sequence.
    core.SetValue(rk.app_id, item, cmd.data.data(), cmd.flags, 0);
    Add(counts.store_rejected);
    if (!cmd.noreply) AppendErrorLine(out, kErrTooLarge);
    return;
  }
  const uint64_t cas = NextCas();
  const bool admitted =
      core.SetValue(rk.app_id, item, cmd.data.data(), cmd.flags, cas);
  assert(admitted);
  (void)admitted;
  Add(counts.bytes_read, cmd.data.size());
  if (is_cas) Add(counts.cas_hits);
  if (!cmd.noreply) out->append(kStoredLine);
}

// append/prepend: splice onto an existing value. The command line's flags
// and exptime are parsed but ignored (memcached semantics); only existence
// gates the store, and the result re-slabs through the core when the size
// leaves the slab class.
void CacheAdapter::ConcatLocked(CacheServer& core,
                                const Command& cmd, const RoutedKey& rk,
                                uint32_t now_s, CounterBlock& counts,
                                std::string* out) {
  const std::string_view key = cmd.key();
  const auto key_size = static_cast<uint32_t>(key.size());
  const ValueOutcome peek =
      core.PeekByKey(rk.app_id, rk.key_id, now_s, FlushAt());
  if (!peek.valid) {
    Add(counts.store_rejected);
    if (!cmd.noreply) out->append(kNotStoredLine);
    return;
  }
  const uint64_t combined_size =
      static_cast<uint64_t>(peek.view.size) + cmd.data.size();
  if (combined_size > kMaxValueBytes) {
    // Reject the splice but keep the original item intact, as memcached
    // does when the concatenated object no longer fits.
    Add(counts.store_rejected);
    if (!cmd.noreply) AppendErrorLine(out, kErrTooLarge);
    return;
  }
  // The splice copies by necessity; the view stays stable while `core`
  // holds the shard lock. The scratch is per thread and keeps its capacity
  // (at most kMaxValueBytes), so a steady stream of splices allocates
  // nothing.
  static thread_local std::string combined;
  combined.clear();
  if (cmd.type == CommandType::kAppend) {
    combined.append(peek.view.data, peek.view.size);
    combined.append(cmd.data.data(), cmd.data.size());
  } else {
    combined.append(cmd.data.data(), cmd.data.size());
    combined.append(peek.view.data, peek.view.size);
  }
  const auto new_size = static_cast<uint32_t>(combined.size());
  if (SlabClassFor(ExactFootprint(key_size, new_size)) < 0) {
    // Under kMaxValueBytes but over the largest chunk once the key and
    // item overhead are added: the old incarnation dies (ReplaceValue
    // deletes it before failing), no cas is minted.
    core.ReplaceValue(rk.app_id, rk.key_id, key_size, combined.data(),
                      new_size, 0, now_s);
    Add(counts.store_rejected);
    if (!cmd.noreply) AppendErrorLine(out, kErrTooLarge);
    return;
  }
  const uint64_t cas = NextCas();
  const ReplaceResult r = core.ReplaceValue(
      rk.app_id, rk.key_id, key_size, combined.data(), new_size, cas, now_s);
  assert(r != ReplaceResult::kFailed);
  (void)r;
  Add(counts.bytes_read, cmd.data.size());
  if (!cmd.noreply) out->append(kStoredLine);
}

void CacheAdapter::ArithLocked(CacheServer& core,
                               const Command& cmd, const RoutedKey& rk,
                               uint32_t now_s, bool increment,
                               CounterBlock& counts, std::string* out) {
  std::atomic<uint64_t>& hits =
      increment ? counts.incr_hits : counts.decr_hits;
  std::atomic<uint64_t>& misses =
      increment ? counts.incr_misses : counts.decr_misses;
  const std::string_view key = cmd.key();
  const ValueOutcome peek =
      core.PeekByKey(rk.app_id, rk.key_id, now_s, FlushAt());
  if (!peek.valid) {
    Add(misses);
    if (!cmd.noreply) out->append(kNotFoundLine);
    return;
  }
  uint64_t value = 0;
  if (!ParseDecimalU64(std::string_view(peek.view.data, peek.view.size),
                       &value)) {
    // Neither a hit nor a miss in memcached's books: the key exists but
    // its payload is not a 64-bit decimal.
    if (!cmd.noreply) AppendErrorLine(out, kErrNonNumeric);
    return;
  }
  // memcached arithmetic: incr wraps modulo 2^64, decr saturates at 0.
  const uint64_t result = increment
                              ? value + cmd.delta
                              : (value < cmd.delta ? 0 : value - cmd.delta);
  char buf[20];
  char* p = buf + sizeof(buf);
  uint64_t v = result;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  const auto new_size = static_cast<size_t>(buf + sizeof(buf) - p);
  // A <=20-byte decimal always fits a slab class next to a protocol-legal
  // key, so the rewrite cannot fail.
  const uint64_t cas = NextCas();
  const ReplaceResult r = core.ReplaceValue(
      rk.app_id, rk.key_id, static_cast<uint32_t>(key.size()), p,
      static_cast<uint32_t>(new_size), cas, now_s);
  assert(r != ReplaceResult::kFailed);
  (void)r;
  Add(counts.bytes_read, new_size);
  Add(hits);
  if (!cmd.noreply) AppendNumericLine(out, result);
}

void CacheAdapter::TouchLocked(CacheServer& core,
                               const Command& cmd, const RoutedKey& rk,
                               uint32_t now_s, CounterBlock& counts,
                               std::string* out) {
  Add(counts.cmd_touch);
  const std::string_view key = cmd.key();
  // Refreshes the stored expiry and the item's recency standing; no GET
  // statistics move (memcached counts touches separately, and so does the
  // core — not at all). An expired/flushed item touches as NOT_FOUND and
  // is reclaimed on this access.
  const bool ok = core.TouchByKey(
      rk.app_id, rk.key_id, static_cast<uint32_t>(key.size()),
      AbsoluteExpiry(cmd.exptime, now_s), now_s, FlushAt());
  if (ok) {
    Add(counts.touch_hits);
    if (!cmd.noreply) out->append(kTouchedLine);
  } else {
    Add(counts.touch_misses);
    if (!cmd.noreply) out->append(kNotFoundLine);
  }
}

void CacheAdapter::DeleteLocked(CacheServer& core,
                                const Command& cmd, const RoutedKey& rk,
                                uint32_t now_s, CounterBlock& counts,
                                std::string* out) {
  Add(counts.cmd_delete);
  // The core reports whether a live, unexpired, unflushed item existed
  // (memcached's DELETED/NOT_FOUND split) and erases every trace either
  // way — including shadow state, which must not keep earning credit an
  // explicit delete revoked.
  const bool valid = core.DeleteByKey(rk.app_id, rk.key_id, now_s, FlushAt());
  if (valid) {
    Add(counts.delete_hits);
    if (!cmd.noreply) out->append(kDeletedLine);
  } else {
    if (!cmd.noreply) out->append(kNotFoundLine);
  }
}

void CacheAdapter::HandleFlushAll(const Command& cmd, CounterBlock& counts,
                                  std::string* out) {
  Add(counts.cmd_flush);
  const uint32_t now = Now();
  const uint64_t at = static_cast<uint64_t>(now) +
                      static_cast<uint64_t>(cmd.exptime);
  // Items with stored_s < flush point are dead once now reaches it; the
  // reclaim is lazy (first access), O(1) per key, no sweeper. Items stored
  // at or after the flush point — including later in the same second —
  // survive. A later flush_all overwrites an earlier one, as memcached's
  // single oldest_live does.
  flush_at_s_.store(at > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(at),
                    std::memory_order_relaxed);
  if (!cmd.noreply) out->append(kOkLine);
}

void CacheAdapter::HandleStats(std::string* out) {
  AppendStat(out, "version", kServerVersion);
  AppendStat(out, "pointer_size", static_cast<uint64_t>(8 * sizeof(void*)));
  AppendStat(out, "num_shards", static_cast<uint64_t>(server_->num_shards()));

  const Counters c = counters();
  AppendStat(out, "cmd_get", c.cmd_get);
  AppendStat(out, "get_hits", c.get_hits);
  AppendStat(out, "get_misses", c.get_misses);
  AppendStat(out, "get_expired", c.get_expired);
  AppendStat(out, "cmd_set", c.cmd_set);
  AppendStat(out, "store_rejected", c.store_rejected);
  AppendStat(out, "cas_hits", c.cas_hits);
  AppendStat(out, "cas_misses", c.cas_misses);
  AppendStat(out, "cas_badval", c.cas_badval);
  AppendStat(out, "incr_hits", c.incr_hits);
  AppendStat(out, "incr_misses", c.incr_misses);
  AppendStat(out, "decr_hits", c.decr_hits);
  AppendStat(out, "decr_misses", c.decr_misses);
  AppendStat(out, "cmd_touch", c.cmd_touch);
  AppendStat(out, "touch_hits", c.touch_hits);
  AppendStat(out, "touch_misses", c.touch_misses);
  AppendStat(out, "cmd_flush", c.cmd_flush);
  AppendStat(out, "cmd_delete", c.cmd_delete);
  AppendStat(out, "delete_hits", c.delete_hits);
  AppendStat(out, "protocol_errors", c.protocol_errors);

  // Real memory accounting, straight from the value arenas (a mutually
  // consistent snapshot: MergedValueStats holds every shard lock at once).
  // `bytes` is live payload bytes (what memcached reports for stored
  // data); bytes_stored keeps the pre-0.6 name for the same quantity;
  // bytes_read/bytes_written count payload bytes accepted by stores and
  // served by get hits.
  const ShardedCacheServer::ValueStats vs = server_->MergedValueStats();
  AppendStat(out, "bytes_stored", vs.value_bytes);
  AppendStat(out, "bytes", vs.value_bytes);
  AppendStat(out, "bytes_read", c.bytes_read);
  AppendStat(out, "bytes_written", c.bytes_written);

  // The paper's signals, straight from the core (exact snapshot: MergedStats
  // holds every shard lock at once).
  const ClassStats core = server_->MergedStats();
  AppendStat(out, "cliffhanger_gets", core.gets);
  AppendStat(out, "cliffhanger_hits", core.hits);
  AppendStat(out, "cliffhanger_sets", core.sets);
  AppendStat(out, "cliffhanger_tail_hits", core.tail_hits);
  AppendStat(out, "cliffhanger_cliff_shadow_hits", core.cliff_shadow_hits);
  AppendStat(out, "cliffhanger_hill_shadow_hits", core.hill_shadow_hits);

  // Per-class arena occupancy (memcached's `stats slabs` shape, inlined
  // into the general stats block): chunk geometry and chunks in use.
  for (const auto& [cls, use] : vs.classes) {
    const std::string prefix = "slabs:" + std::to_string(cls);
    AppendStat(out, prefix + ":chunk_size",
               static_cast<uint64_t>(use.chunk_size));
    AppendStat(out, prefix + ":used_chunks", use.used_chunks);
  }
  for (const uint32_t app_id : server_->app_ids()) {
    std::string name = "app_" + std::to_string(app_id) + "_reservation_bytes";
    AppendStat(out, name, server_->AppReservation(app_id));
  }
  out->append(kEndLine);
}

// ---------------------------------------------------------------------------
// Sharded execution: per-shard op batching, zero-copy GET
// ---------------------------------------------------------------------------

// One shard-routed operation of a burst, bound to its reply slot. A
// multiget expands into one BurstOp per key, the last key's slot marked to
// end the command, so copying the slots out in index order reproduces the
// sequential byte stream exactly.
struct CacheAdapter::BurstOp {
  const Command* cmd;
  size_t key_idx;  // which key of a multiget; 0 for single-key verbs
  size_t slot;     // reply slot index
  uint32_t now_s;  // stamped at collection, in command order (clock contract)
  RoutedKey rk;
  size_t shard;
};

namespace {

// One shard's share of a burst: positions [begin, end) of
// ShardBuckets::order.
struct ShardGroup {
  size_t shard;
  uint32_t begin;
  uint32_t end;
};

// Groups the items of a burst by shard without moving them: a counting
// sort of their indexes, one pass to count and one to place, so `order`
// lists every shard's items in stream order, shards ascending, and
// `groups` names each touched shard's span of it. Thread-local users keep
// the capacity, so a warm burst cycle does not allocate.
struct ShardBuckets {
  std::vector<uint32_t> order;
  std::vector<uint32_t> starts;
  std::vector<ShardGroup> groups;

  template <typename ShardOf>
  void Fill(size_t n, size_t num_shards, ShardOf shard_of) {
    starts.assign(num_shards + 1, 0);
    for (size_t i = 0; i < n; ++i) ++starts[shard_of(i) + 1];
    groups.clear();
    for (size_t s = 0; s < num_shards; ++s) {
      const uint32_t count = starts[s + 1];
      starts[s + 1] = starts[s] + count;
      if (count != 0) groups.push_back(ShardGroup{s, starts[s], starts[s + 1]});
    }
    order.resize(n);
    for (size_t i = 0; i < n; ++i) {
      order[starts[shard_of(i)]++] = static_cast<uint32_t>(i);
    }
  }
};

// Runs `run(batch, group)` for every group under its shard's ShardBatch,
// free shards first: each group tries its shard's lock in turn, a busy
// shard is deferred, and the deferred groups then wait for their locks in
// the same order. So a burst never idles behind one contended shard while
// it has work for others. Holds one shard lock at a time; consumes
// `groups` (the deferred ones are compacted to its front).
template <typename Run>
void RunGroupsFreeShardsFirst(ShardedCacheServer* server,
                              std::vector<ShardGroup>* groups, Run&& run) {
  size_t deferred = 0;
  for (const ShardGroup& group : *groups) {
    ShardedCacheServer::ShardBatch batch = server->TryBeginBatch(group.shard);
    if (batch.owns_lock()) {
      run(batch, group);
    } else {
      (*groups)[deferred++] = group;
    }
  }
  for (size_t g = 0; g < deferred; ++g) {
    const ShardGroup group = (*groups)[g];
    ShardedCacheServer::ShardBatch batch = server->BeginBatch(group.shard);
    run(batch, group);
  }
}

// Commands whose effects are confined to one key's shard. Everything else
// (stats/version/flush_all/quit/protocol errors) acts as a barrier and is
// handled in stream order.
bool IsShardable(CommandType type) {
  switch (type) {
    case CommandType::kGet:
    case CommandType::kGets:
    case CommandType::kSet:
    case CommandType::kAdd:
    case CommandType::kReplace:
    case CommandType::kCas:
    case CommandType::kAppend:
    case CommandType::kPrepend:
    case CommandType::kIncr:
    case CommandType::kDecr:
    case CommandType::kTouch:
    case CommandType::kDelete:
      return true;
    default:
      return false;
  }
}

}  // namespace

void CacheAdapter::ExecuteOpLocked(ShardedCacheServer::ShardBatch& batch,
                                   const BurstOp& op, CounterBlock& counts,
                                   OpReply* reply) {
  const Command& cmd = *op.cmd;
  std::string* out = &reply->text;
  CacheServer& core = batch.server(op.rk.key_id);
  switch (cmd.type) {
    case CommandType::kGet:
    case CommandType::kGets:
      GetKeyLocked(batch, cmd.keys[op.key_idx], op.rk, op.now_s,
                   /*with_cas=*/cmd.type == CommandType::kGets, counts,
                   reply);
      break;
    case CommandType::kSet:
    case CommandType::kAdd:
    case CommandType::kReplace:
    case CommandType::kCas:
    case CommandType::kAppend:
    case CommandType::kPrepend:
      Add(counts.cmd_set);
      if (core.app(op.rk.app_id) == nullptr) {
        // The app was never registered or is gone: refused before a cas is
        // minted, so nothing is stored and no bytes count as read.
        Add(counts.store_rejected);
        if (cmd.type == CommandType::kCas) Add(counts.cas_misses);
        if (!cmd.noreply) {
          AppendErrorLine(out, "SERVER_ERROR unknown application");
        }
      } else if (cmd.type == CommandType::kAppend ||
                 cmd.type == CommandType::kPrepend) {
        ConcatLocked(core, cmd, op.rk, op.now_s, counts, out);
      } else {
        StoreLocked(core, cmd, op.rk, op.now_s, counts, out);
      }
      break;
    case CommandType::kIncr:
    case CommandType::kDecr:
      ArithLocked(core, cmd, op.rk, op.now_s,
                  /*increment=*/cmd.type == CommandType::kIncr, counts, out);
      break;
    case CommandType::kTouch:
      TouchLocked(core, cmd, op.rk, op.now_s, counts, out);
      break;
    case CommandType::kDelete:
      DeleteLocked(core, cmd, op.rk, op.now_s, counts, out);
      break;
    default:
      break;  // unreachable: only shardable ops are collected
  }
}

void CacheAdapter::ExecuteShardedRun(const Command* cmds, size_t count,
                                     CounterBlock& counts,
                                     std::vector<ResponseSegment>* segments,
                                     size_t* used) {
  // Thread-local so the steady-state burst cycle reuses their capacity —
  // the reply slots' strings included: slots are reset, never destroyed —
  // and stays off the allocator (each worker runs its own bursts).
  static thread_local std::vector<BurstOp> ops;
  static thread_local std::vector<OpReply> replies;
  size_t claimed = 0;
  const auto claim = [&]() -> OpReply& {
    if (claimed == replies.size()) replies.emplace_back();
    OpReply& reply = replies[claimed++];
    reply.text.clear();
    reply.payload = nullptr;
    reply.payload_size = 0;
    reply.ends_get = false;
    return reply;
  };

  // Collection: expand commands into shard-routed ops — one per key of a
  // get/gets, one for every other verb — and claim their reply slots in
  // stream order. Now() is read once per command, in command order; the
  // counters move when the ops run.
  ops.clear();
  ops.reserve(count);
  for (size_t c = 0; c < count; ++c) {
    const Command& cmd = cmds[c];
    const uint32_t now = Now();
    for (size_t k = 0; k < cmd.keys.size(); ++k) {
      claim();
      const RoutedKey rk = Route(cmd.keys[k]);
      ops.push_back(BurstOp{&cmd, k, claimed - 1, now, rk,
                            server_->ShardForKey(rk.key_id)});
    }
    if (cmd.type == CommandType::kGet || cmd.type == CommandType::kGets) {
      if (cmd.keys.empty()) claim();  // the parser never emits one
      replies[claimed - 1].ends_get = true;
    }
  }

  // Group by shard, in stream order within a shard. Keeping same-shard —
  // and therefore same-key — op order is what makes the grouped execution
  // equivalent to the sequential stream, including read-your-write for a
  // pipelined `set k` ... `get k` in one burst.
  static thread_local ShardBuckets buckets;
  buckets.Fill(ops.size(), server_->num_shards(),
               [](size_t i) { return ops[i].shard; });

  // Execution: one core ShardBatch (shard lock) per shard per run, free
  // shards first, each released as soon as its group ends.
  RunGroupsFreeShardsFirst(
      server_, &buckets.groups,
      [&](ShardedCacheServer::ShardBatch& batch, const ShardGroup& group) {
        for (uint32_t k = group.begin; k < group.end; ++k) {
          const BurstOp& op = ops[buckets.order[k]];
          ExecuteOpLocked(batch, op, counts, &replies[op.slot]);
        }
      });

  // Coalescing, in command order: copied bytes join the open segment's
  // text; a borrowed payload closes the segment, and the CRLF after it
  // opens the next one.
  ResponseSegment* seg = &(*segments)[*used - 1];
  for (size_t r = 0; r < claimed; ++r) {
    const OpReply& reply = replies[r];
    seg->text.append(reply.text);
    if (reply.payload != nullptr) {
      seg->payload = reply.payload;
      seg->payload_size = reply.payload_size;
      seg = &ClaimSlot(segments, used);
      seg->text.append(kCrlf);
    }
    if (reply.ends_get) seg->text.append(kEndLine);
  }
}

bool CacheAdapter::HandleBatch(const Command* cmds, size_t count,
                               std::vector<ResponseSegment>* segments) {
  CounterBlock& counts = LocalCounters();
  size_t used = 0;
  ClaimSlot(segments, &used);  // the open segment
  size_t i = 0;
  while (i < count) {
    if (!IsShardable(cmds[i].type)) {
      if (!HandleBarrier(cmds[i], counts, &(*segments)[used - 1].text)) {
        return false;
      }
      ++i;
      continue;
    }
    size_t run_end = i + 1;
    while (run_end < count && IsShardable(cmds[run_end].type)) ++run_end;
    ExecuteShardedRun(cmds + i, run_end - i, counts, segments, &used);
    i = run_end;
  }
  // Slots beyond `used` were Reset by the caller and flush as zero bytes.
  return true;
}

void CacheAdapter::ReleaseBurstPins() { ReleaseBorrowsFrom(0); }

void CacheAdapter::ReleaseBorrowsFrom(size_t first) {
  // Group by shard so each touched shard's lock is taken once, even when
  // barrier commands split the burst into several runs, and free shards
  // first, as in ExecuteShardedRun.
  if (first == t_borrows.size()) return;
  static thread_local ShardBuckets buckets;
  const Borrow* borrows = t_borrows.data() + first;
  buckets.Fill(t_borrows.size() - first, server_->num_shards(),
               [borrows](size_t i) { return borrows[i].shard; });
  RunGroupsFreeShardsFirst(
      server_, &buckets.groups,
      [&](ShardedCacheServer::ShardBatch& batch, const ShardGroup& group) {
        for (uint32_t k = group.begin; k < group.end; ++k) {
          batch.ReturnLease(borrows[buckets.order[k]].lease);
        }
      });
  t_borrows.resize(first);
}

bool CacheAdapter::Handle(const Command& cmd, std::string* out) {
  // A one-command burst whose reply — borrowed GET payloads included — is
  // copied into *out before its own leases go back.
  static thread_local std::vector<ResponseSegment> segments;
  for (ResponseSegment& seg : segments) seg.Reset();
  const size_t borrows_before = t_borrows.size();
  const bool keep_open = HandleBatch(&cmd, 1, &segments);
  for (const ResponseSegment& seg : segments) {
    out->append(seg.text);
    if (seg.payload != nullptr) out->append(seg.payload, seg.payload_size);
  }
  ReleaseBorrowsFrom(borrows_before);
  return keep_open;
}

bool CacheAdapter::HandleBarrier(const Command& cmd, CounterBlock& counts,
                                 std::string* out) {
  switch (cmd.type) {
    case CommandType::kFlushAll:
      HandleFlushAll(cmd, counts, out);
      return true;
    case CommandType::kStats:
      HandleStats(out);
      return true;
    case CommandType::kVersion:
      out->append("VERSION ");
      out->append(kServerVersion);
      out->append(kCrlf);
      return true;
    case CommandType::kQuit:
      return false;
    case CommandType::kProtocolError:
      Add(counts.protocol_errors);
      // noreply is set only when the rejected command's line parsed
      // cleanly enough to carry it; like memcached, such a command gets
      // no reply at all — an unexpected error line would desync clients
      // that count one response per non-noreply command.
      if (!cmd.noreply) AppendErrorLine(out, cmd.error);
      return true;
    default:
      return true;  // unreachable: HandleBatch runs shardable verbs
  }
}

CacheAdapter::Counters CacheAdapter::counters() const {
  Counters c;
  std::lock_guard<std::mutex> lock(counters_mu_);
  for (const std::unique_ptr<CounterBlock>& block : counter_blocks_) {
    const CounterBlock& b = *block;
    c.cmd_get += Load(b.cmd_get);
    c.get_hits += Load(b.get_hits);
    c.get_misses += Load(b.get_misses);
    c.get_expired += Load(b.get_expired);
    c.cmd_set += Load(b.cmd_set);
    c.store_rejected += Load(b.store_rejected);
    c.cas_hits += Load(b.cas_hits);
    c.cas_misses += Load(b.cas_misses);
    c.cas_badval += Load(b.cas_badval);
    c.incr_hits += Load(b.incr_hits);
    c.incr_misses += Load(b.incr_misses);
    c.decr_hits += Load(b.decr_hits);
    c.decr_misses += Load(b.decr_misses);
    c.cmd_touch += Load(b.cmd_touch);
    c.touch_hits += Load(b.touch_hits);
    c.touch_misses += Load(b.touch_misses);
    c.cmd_flush += Load(b.cmd_flush);
    c.cmd_delete += Load(b.cmd_delete);
    c.delete_hits += Load(b.delete_hits);
    c.protocol_errors += Load(b.protocol_errors);
    c.bytes_read += Load(b.bytes_read);
    c.bytes_written += Load(b.bytes_written);
  }
  return c;
}

size_t CacheAdapter::counter_blocks() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counter_blocks_.size();
}

}  // namespace net
}  // namespace cliffhanger
