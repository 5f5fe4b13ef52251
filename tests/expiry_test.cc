// Lazy-expiration and touch semantics through the library layers: every
// queue implementation (SlabClassQueue / PartitionedSlabQueue / ArcQueue /
// GlobalLogQueue), the AppCache/CacheServer statistics
// discipline, the ShardedCacheServer, and a TTL-bearing simulator replay. All clocks are
// per-operation (ItemMeta::now_s) — nothing here sleeps, and every outcome
// is a deterministic function of the op stream. The exptime normalization
// grammar (relative / absolute / negative) is covered too.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cache/arc_queue.h"
#include "cache/global_log_queue.h"
#include "cache/slab_class_queue.h"
#include "core/sharded_server.h"
#include "net/cache_adapter.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace cliffhanger {
namespace {

ItemMeta At(uint64_t key, uint32_t now_s, uint32_t expiry_s = 0) {
  ItemMeta m;
  m.key = key;
  m.key_size = 14;
  m.value_size = 12;
  m.expiry_s = expiry_s;
  m.now_s = now_s;
  return m;
}

SlabQueueConfig SmallConfig() {
  SlabQueueConfig config;
  config.chunk_size = 64;
  config.tail_items = 4;
  config.cliff_shadow_items = 4;
  config.hill_shadow_bytes = 8 * 64;
  return config;
}

// --- SlabClassQueue -------------------------------------------------------

TEST(SlabQueueExpiry, ExpiredHitIsAFullMissAndErases) {
  SlabClassQueue q(SmallConfig());
  q.SetCapacityItems(16);
  q.Fill(At(1, 100, /*expiry=*/110));
  EXPECT_TRUE(q.Get(At(1, 109)).hit);  // second 109: alive
  const GetResult r = q.Get(At(1, 110));
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.expired);
  EXPECT_EQ(r.region, HitRegion::kMiss);  // no shadow credit for a corpse
  EXPECT_EQ(q.physical_items(), 0u);      // erased, not demoted
  EXPECT_TRUE(q.lru().CheckInvariants());
  // Re-fill resurrects with a fresh TTL.
  q.Fill(At(1, 110, 200));
  EXPECT_TRUE(q.Get(At(1, 150)).hit);
}

TEST(SlabQueueExpiry, ZeroExpiryNeverExpiresAndZeroNowDisablesChecking) {
  SlabClassQueue q(SmallConfig());
  q.SetCapacityItems(16);
  q.Fill(At(1, 100, 0));
  EXPECT_TRUE(q.Get(At(1, UINT32_MAX)).hit);
  q.Fill(At(2, 100, 110));
  EXPECT_TRUE(q.Get(At(2, 0)).hit);  // legacy callers: no expiry evaluation
}

TEST(SlabQueueExpiry, ExpiredShadowEntryIsErasedWithoutCredit) {
  SlabClassQueue q(SmallConfig());
  q.SetCapacityItems(8);
  q.Fill(At(1, 100, 110));
  // Push key 1 down into shadow territory.
  for (uint64_t k = 2; k <= 13; ++k) q.Fill(At(k, 100));
  EXPECT_EQ(q.Get(At(1, 105)).region, HitRegion::kHillShadow);
  EXPECT_EQ(q.Get(At(1, 110)).region, HitRegion::kMiss);  // expired shadow
  EXPECT_EQ(q.lru().Find(1), -1);
  EXPECT_TRUE(q.lru().CheckInvariants());
}

TEST(SlabQueueTouch, TouchUpdatesExpiryAndPromotes) {
  SlabClassQueue q(SmallConfig());
  q.SetCapacityItems(8);
  q.Fill(At(1, 100, 110));
  for (uint64_t k = 2; k <= 8; ++k) q.Fill(At(k, 100));
  // Key 1 is the LRU (in the tail); touch extends its life and promotes.
  EXPECT_TRUE(q.Touch(At(1, 105, /*expiry=*/200)));
  EXPECT_TRUE(q.Get(At(1, 150)).hit);  // would have died at 110
  // Fill two more: key 1 must not be the next eviction victim anymore.
  q.Fill(At(9, 150));
  EXPECT_TRUE(q.Get(At(1, 150)).hit);

  // Touching an expired item erases it and reports absent.
  q.Fill(At(20, 150, 160));
  EXPECT_FALSE(q.Touch(At(20, 160, 500)));
  EXPECT_FALSE(q.Get(At(20, 160)).hit);

  // A shadow-only entry is not touchable (memcached: NOT_FOUND).
  SlabClassQueue shadow_q(SmallConfig());
  shadow_q.SetCapacityItems(4);
  for (uint64_t k = 1; k <= 10; ++k) shadow_q.Fill(At(k, 100));
  ASSERT_GT(shadow_q.lru().Find(2), 2);  // in a shadow segment
  EXPECT_FALSE(shadow_q.Touch(At(2, 100, 500)));
  EXPECT_TRUE(shadow_q.lru().CheckInvariants());
}

TEST(PartitionedQueueExpiry, BothSidesHonorExpiry) {
  PartitionConfig pc;
  pc.queue = SmallConfig();
  pc.partition_enabled = true;
  PartitionedSlabQueue q(pc);
  q.SetCapacityBytes(32 * 64);
  for (uint64_t k = 1; k <= 20; ++k) {
    q.Fill(At(k, 100, k % 2 == 0 ? 110 : 0));
  }
  for (uint64_t k = 1; k <= 20; ++k) {
    const bool was_resident = q.Get(At(k, 105)).hit;
    if (!was_resident) continue;
    // Move the boundary so some lookups cross to the unrouted side; an
    // expired item must read as a miss regardless of which side holds it.
    q.SetRatio(k % 3 == 0 ? 0.1 : 0.9);
    EXPECT_EQ(q.Get(At(k, 110)).hit, k % 2 != 0) << "key " << k;
  }
  // Touch follows the same both-sides rule.
  q.SetRatio(0.5);
  q.Fill(At(50, 100, 0));
  q.SetRatio(q.Route(50) == Side::kLeft ? 0.0 : 1.0);  // force cross-side
  EXPECT_TRUE(q.Touch(At(50, 100, 300)));
  EXPECT_FALSE(q.Get(At(50, 300)).hit);  // the touch set a real TTL
}

// --- ARC / GlobalLog ------------------------------------------------------

TEST(ArcQueueExpiry, ExpiredResidentIsAFullMissNotAGhostHit) {
  ArcQueue q(64);
  q.SetCapacityBytes(16 * 64);
  q.Fill(At(1, 100, 110));
  const GetResult live = q.Get(At(1, 105));
  EXPECT_TRUE(live.hit);
  EXPECT_FALSE(live.expired);
  const GetResult r = q.Get(At(1, 110));
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.expired);
  EXPECT_EQ(r.region, HitRegion::kMiss);  // not kHillShadow: never evicted
  // The miss re-admitted the key (ARC admits in Get), expiry from the op.
  const GetResult again = q.Get(At(1, 111));
  EXPECT_TRUE(again.hit);
  EXPECT_FALSE(again.expired);
  EXPECT_TRUE(q.CheckInvariants());
}

TEST(ArcQueueExpiry, TouchPromotesAndExpiredTouchErases) {
  ArcQueue q(64);
  q.SetCapacityBytes(16 * 64);
  q.Fill(At(1, 100, 110));
  EXPECT_TRUE(q.Touch(At(1, 105, 300)));
  EXPECT_TRUE(q.Get(At(1, 200)).hit);  // extended past 110
  EXPECT_FALSE(q.Touch(At(1, 300, 400)));  // expired at 300: erased
  EXPECT_TRUE(q.CheckInvariants());
}

TEST(GlobalLogExpiry, LazyExpiryAndTouch) {
  GlobalLogQueue q(1 << 16);
  q.Fill(At(1, 100, 110));
  EXPECT_TRUE(q.Get(At(1, 109)).hit);
  const GetResult r = q.Get(At(1, 110));
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.expired);
  EXPECT_FALSE(q.Get(At(1, 110)).expired);  // erased: a plain miss now
  q.Fill(At(2, 100, 110));
  EXPECT_TRUE(q.Touch(At(2, 105, 0)));  // make permanent
  EXPECT_TRUE(q.Get(At(2, UINT32_MAX)).hit);
}

// --- Core: statistics discipline --------------------------------------------

TEST(CoreExpiry, ExpiredGetCountsAsMissAndTouchCountsNothing) {
  ServerConfig config;
  CacheServer server(config);
  AppCache& app = server.AddApp(1, 1 << 20);
  ASSERT_TRUE(server.Set(1, At(1, 100, 110)));
  EXPECT_TRUE(server.Get(1, At(1, 105)).hit);

  const ClassStats before = app.TotalStats();
  // Touch is statistics-silent at the core (memcached counts touches in
  // its own counters, which live in the adapter).
  EXPECT_TRUE(server.Touch(1, At(1, 105, 300)));
  ClassStats after = app.TotalStats();
  EXPECT_EQ(after.gets, before.gets);
  EXPECT_EQ(after.sets, before.sets);
  EXPECT_EQ(after.hits, before.hits);

  // The touched expiry (300) governs: expired GET = one get, zero hits.
  EXPECT_FALSE(server.Get(1, At(1, 300)).hit);
  after = app.TotalStats();
  EXPECT_EQ(after.gets, before.gets + 1);
  EXPECT_EQ(after.hits, before.hits);
}

TEST(CoreExpiry, TouchNeverMaterializesAClass) {
  ServerConfig config;
  CacheServer server(config);
  AppCache& app = server.AddApp(1, 1 << 20);
  EXPECT_FALSE(server.Touch(1, At(42, 100, 500)));
  EXPECT_TRUE(app.ClassInfos().empty());
}

// --- Core: the value-mode verbs share one liveness rule --------------------

// What the verbs should find under the key: no resident value, or a
// resident value that is live, expired, or stored before a passed flush
// point.
enum class Want : uint8_t { kAbsent, kLive, kExpired, kFlushed };

constexpr uint32_t kValueApp = 1;
constexpr uint64_t kValueKey = 7;
const uint32_t kValueKeySize = At(kValueKey, 0).key_size;

// Stores an At() item with a payload of its value size.
void StoreValue(CacheServer& server, uint64_t key, uint32_t now_s,
                uint32_t expiry_s) {
  const ItemMeta item = At(key, now_s, expiry_s);
  const std::string value(item.value_size, 'v');
  ASSERT_TRUE(server.SetValue(kValueApp, item, value.data(), 0, 1));
}

struct KeyState {
  const char* name;
  Want want;
  uint32_t now_s;       // the second the verbs run at
  uint32_t flush_at_s;  // the flush point they pass (0 = none)
  void (*prepare)(CacheServer&);
};

const KeyState kKeyStates[] = {
    {"absent", Want::kAbsent, 100, 0, [](CacheServer&) {}},
    {"shadow-only", Want::kAbsent, 100, 0,
     [](CacheServer& server) {
       StoreValue(server, kValueKey, 100, 0);
       // One 4 KiB page holds a few dozen of these items: later stores of
       // the same size push the key out into the shadow queues.
       for (uint64_t k = 1000; k < 1100; ++k) StoreValue(server, k, 100, 0);
       const ValueStore::Ref ref =
           server.app(kValueApp)->value_store()->Find(kValueKey);
       ASSERT_TRUE(ref.found && !ref.has_slot());
     }},
    {"live", Want::kLive, 100, 0,
     [](CacheServer& server) { StoreValue(server, kValueKey, 100, 0); }},
    {"expired", Want::kExpired, 120, 0,
     [](CacheServer& server) { StoreValue(server, kValueKey, 100, 110); }},
    {"stored before a passed flush point", Want::kFlushed, 110, 105,
     [](CacheServer& server) { StoreValue(server, kValueKey, 100, 0); }},
    {"stored in the flush second", Want::kLive, 110, 105,
     [](CacheServer& server) { StoreValue(server, kValueKey, 105, 0); }},
    {"flush point still ahead", Want::kLive, 110, 200,
     [](CacheServer& server) { StoreValue(server, kValueKey, 100, 0); }},
    {"expired and flushed", Want::kExpired, 110, 105,
     [](CacheServer& server) { StoreValue(server, kValueKey, 100, 108); }},
};

TEST(CoreExpiry, ValueVerbsShareOneLivenessRule) {
  enum Verb : int { kGet, kPeek, kTouch, kDelete, kVerbs };
  for (const KeyState& state : kKeyStates) {
    for (int verb = kGet; verb < kVerbs; ++verb) {
      SCOPED_TRACE(std::string(state.name) + ", verb " +
                   std::to_string(verb));
      ServerConfig config;
      config.store_values = true;
      config.page_size = 4096;
      CacheServer server(config);
      AppCache& app = server.AddApp(kValueApp, 4096);
      state.prepare(server);
      const ValueStore& store = *app.value_store();
      ASSERT_EQ(store.Find(kValueKey).has_slot(),
                state.want != Want::kAbsent);

      const bool live = state.want == Want::kLive;
      const ClassStats before = app.TotalStats();
      const uint32_t now = state.now_s;
      const uint32_t flush = state.flush_at_s;
      switch (verb) {
        case kGet: {
          const ValueOutcome vo =
              server.GetByKey(kValueApp, kValueKey, kValueKeySize, now, flush);
          EXPECT_EQ(vo.valid, live);
          EXPECT_EQ(vo.outcome.expired, state.want == Want::kExpired);
          EXPECT_EQ(vo.flush_reclaimed, state.want == Want::kFlushed);
          // An expired GET is a counted miss; a flushed one is reclaimed
          // without touching the statistics.
          const ClassStats after = app.TotalStats();
          EXPECT_EQ(after.gets - before.gets,
                    state.want == Want::kFlushed ? 0u : 1u);
          EXPECT_EQ(after.hits - before.hits, live ? 1u : 0u);
          break;
        }
        case kPeek: {
          const ValueOutcome vo =
              server.PeekByKey(kValueApp, kValueKey, now, flush);
          EXPECT_EQ(vo.valid, live);
          EXPECT_EQ(vo.outcome.expired, state.want == Want::kExpired);
          EXPECT_EQ(vo.flush_reclaimed, state.want == Want::kFlushed);
          if (live) {
            EXPECT_EQ(vo.view.size, At(kValueKey, 0).value_size);
          }
          break;
        }
        case kTouch:
          EXPECT_EQ(server.TouchByKey(kValueApp, kValueKey, kValueKeySize,
                                      /*expiry_s=*/0, now, flush),
                    live);
          break;
        case kDelete:
          EXPECT_EQ(server.DeleteByKey(kValueApp, kValueKey, now, flush),
                    live);
          break;
      }
      if (verb != kGet) {
        EXPECT_EQ(app.TotalStats().gets, before.gets);  // uncounted verbs
      }
      // Whichever verb meets an expired or flushed value reclaims it; a
      // live one survives every verb but delete.
      EXPECT_EQ(store.Find(kValueKey).has_slot(), live && verb != kDelete);
      EXPECT_TRUE(app.CheckInvariants());
    }
  }
}

TEST(ShardedExpiry, TouchAndMutateRouteThroughShards) {
  ShardedServerConfig config;
  config.server = ServerConfig{};
  config.num_shards = 4;
  ShardedCacheServer server(config);
  server.AddApp(1, 4 << 20);
  for (uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(server.Set(1, At(k, 100, 110)));
  }
  for (uint64_t k = 0; k < 64; ++k) {
    // Extend the even keys; let the odd ones die at 110.
    if (k % 2 == 0) {
      EXPECT_TRUE(server.Touch(1, At(k, 105, 400)));
    }
  }
  uint64_t alive = 0;
  for (uint64_t k = 0; k < 64; ++k) {
    alive += server.Get(1, At(k, 110)).hit ? 1 : 0;
  }
  EXPECT_EQ(alive, 32u);
  // Touch moved no statistics on any shard.
  const ClassStats merged = server.MergedStats();
  EXPECT_EQ(merged.sets, 64u);
  EXPECT_EQ(merged.gets, 64u);
  EXPECT_EQ(merged.hits, 32u);
}

// --- Simulator: the trace's virtual time is the expiry clock --------------

TEST(SimulatorExpiry, TtlTraceReplaysDeterministically) {
  // Two passes over the same TTL-bearing trace must agree exactly, and
  // TTLs must actually bite: every key is stored with a 5-second TTL and
  // re-read after 10 virtual seconds.
  Trace trace;
  for (uint64_t k = 0; k < 50; ++k) {
    Request set;
    set.key = k;
    set.op = Op::kSet;
    set.value_size = 100;
    set.time_us = k * 1000;
    set.expiry_s = 5;  // absolute second 5
    trace.Append(set);
  }
  for (uint64_t k = 0; k < 50; ++k) {
    Request get;
    get.key = k;
    get.op = Op::kGet;
    get.value_size = 100;
    get.time_us = 10 * 1000000 + k * 1000;  // virtual second 10
    trace.Append(get);
  }
  for (int pass = 0; pass < 2; ++pass) {
    CacheServer server(DefaultServerConfig());
    server.AddApp(0, 1 << 20);
    SimOptions options;
    options.demand_fill = false;
    const SimResult result = Replay(server, trace, options);
    EXPECT_EQ(result.total.gets, 50u);
    EXPECT_EQ(result.total.hits, 0u) << "TTL did not bite";
    EXPECT_EQ(result.total.sets, 50u);
  }
}

TEST(SimulatorExpiry, TouchOpsExtendLifetimes) {
  Trace trace;
  Request set;
  set.key = 1;
  set.op = Op::kSet;
  set.value_size = 100;
  set.time_us = 0;
  set.expiry_s = 5;
  trace.Append(set);
  Request touch = set;
  touch.op = Op::kTouch;
  touch.time_us = 2 * 1000000;
  touch.expiry_s = 100;  // extend to second 100
  trace.Append(touch);
  Request get = set;
  get.op = Op::kGet;
  get.time_us = 50 * 1000000;
  get.expiry_s = 0;
  trace.Append(get);

  CacheServer server(DefaultServerConfig());
  server.AddApp(0, 1 << 20);
  SimOptions options;
  options.demand_fill = false;
  const SimResult result = Replay(server, trace, options);
  EXPECT_EQ(result.total.gets, 1u);
  EXPECT_EQ(result.total.hits, 1u);  // alive only because of the touch
}

// --- exptime normalization (shared by the adapter and its tests) ----------

TEST(AbsoluteExpiryTest, FollowsMemcachedRules) {
  using net::AbsoluteExpiry;
  EXPECT_EQ(AbsoluteExpiry(0, 1000), 0u);                  // never
  EXPECT_EQ(AbsoluteExpiry(10, 1000), 1010u);              // relative
  EXPECT_EQ(AbsoluteExpiry(net::kRelativeExptimeCutoff, 1000),
            1000u + static_cast<uint32_t>(net::kRelativeExptimeCutoff));
  EXPECT_EQ(AbsoluteExpiry(net::kRelativeExptimeCutoff + 1, 1000),
            static_cast<uint32_t>(net::kRelativeExptimeCutoff) + 1);  // abs
  EXPECT_EQ(AbsoluteExpiry(-1, 1000), 1000u);              // already dead
  EXPECT_TRUE(ExpiredAt(AbsoluteExpiry(-1, 1000), 1000));
  EXPECT_EQ(AbsoluteExpiry(-1, 0), 1u);                    // degenerate now
  // Clamped below the Touch keep-expiry sentinel, never onto it.
  EXPECT_EQ(AbsoluteExpiry(int64_t{UINT32_MAX} + 5, 1000), kKeepExpiry - 1);
  EXPECT_EQ(AbsoluteExpiry(10, UINT32_MAX - 3), kKeepExpiry - 1);
}

TEST(TouchKeepExpiry, SentinelPreservesTheStoredTtlInEveryQueue) {
  // The incr/decr replay path: a touch with kKeepExpiry bumps recency but
  // must not clear (or change) the stored TTL.
  SlabClassQueue slab(SmallConfig());
  slab.SetCapacityItems(16);
  slab.Fill(At(1, 100, 110));
  EXPECT_TRUE(slab.Touch(At(1, 105, kKeepExpiry)));
  EXPECT_FALSE(slab.Get(At(1, 110)).hit);  // still dies at 110

  ArcQueue arc(64);
  arc.SetCapacityBytes(16 * 64);
  arc.Fill(At(1, 100, 110));
  EXPECT_TRUE(arc.Touch(At(1, 105, kKeepExpiry)));
  EXPECT_FALSE(arc.Get(At(1, 110)).hit);

  GlobalLogQueue log(1 << 16);
  log.Fill(At(1, 100, 110));
  EXPECT_TRUE(log.Touch(At(1, 105, kKeepExpiry)));
  EXPECT_FALSE(log.Get(At(1, 110)).hit);
}

TEST(SimulatorExpiry, ArithmeticOpsDoNotClearTheTtl) {
  // SET with a 5-second TTL, INC at second 2 (row expiry 0), GET at 200:
  // the INC must not resurrect the item past its stored expiry.
  Trace trace;
  Request set;
  set.key = 1;
  set.op = Op::kSet;
  set.value_size = 100;
  set.time_us = 0;
  set.expiry_s = 5;
  trace.Append(set);
  Request inc = set;
  inc.op = Op::kIncr;
  inc.time_us = 2 * 1000000;
  inc.expiry_s = 0;
  trace.Append(inc);
  Request get = set;
  get.op = Op::kGet;
  get.time_us = 200 * 1000000;
  get.expiry_s = 0;
  trace.Append(get);

  CacheServer server(DefaultServerConfig());
  server.AddApp(0, 1 << 20);
  SimOptions options;
  options.demand_fill = false;
  const SimResult result = Replay(server, trace, options);
  EXPECT_EQ(result.total.gets, 1u);
  EXPECT_EQ(result.total.hits, 0u) << "incr cleared the stored TTL";
}

}  // namespace
}  // namespace cliffhanger
