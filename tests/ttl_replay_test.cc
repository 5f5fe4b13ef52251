// Differential TTL replay: one TTL-bearing multi-app trace, four execution
// paths — Simulator Replay() over a CacheServer, a hand-rolled CacheServer
// loop with the same op mapping, and ShardedCacheServer at 1 and 4 shards —
// must agree on per-app hit counts exactly. Reservations are ample (no
// evictions), so every miss is compulsory, delete-driven, or expiry-driven;
// any divergence is a TTL-semantics bug in one of the layers, not cache
// pressure. A zero-expiry control run proves the TTLs actually mattered.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/sharded_server.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace cliffhanger {
namespace {

constexpr uint32_t kApps[] = {1, 2};
constexpr uint64_t kReservation = 4ULL << 20;  // ample: nothing evicts
constexpr size_t kOps = 40000;
constexpr uint64_t kUniverse = 500;  // keys per app

// Seeded multi-app trace over the full op set, with short TTLs relative to
// the trace's virtual-time span (now_s runs 1..~101 s, TTLs are 1-10 s), so
// a large fraction of GETs land on expired items.
Trace MakeTtlTrace() {
  Rng rng(0x77A9D3);
  Trace trace;
  trace.Reserve(kOps);
  uint64_t time_us = 1000000;
  for (size_t i = 0; i < kOps; ++i) {
    time_us += 2500;
    Request r;
    r.time_us = time_us;
    r.app_id = kApps[rng.NextBounded(2)];
    r.key = (static_cast<uint64_t>(r.app_id) << 32) | rng.NextBounded(kUniverse);
    r.key_size = 16;
    const uint64_t size_pick = rng.NextBounded(3);
    r.value_size = size_pick == 0 ? 24 : (size_pick == 1 ? 64 : 200);
    // 40% immortal, 60% expiring 1-10 s out. GETs carry the same TTL: the
    // simulator's demand fill stores at the request's expiry (the app
    // re-fetches and re-stores with its own TTL policy).
    const uint32_t now_s = static_cast<uint32_t>(r.time_us / 1000000);
    r.expiry_s = rng.NextBounded(10) < 4
                     ? 0
                     : now_s + 1 + static_cast<uint32_t>(rng.NextBounded(10));
    const uint64_t pick = rng.NextBounded(100);
    if (pick < 56) {
      r.op = Op::kGet;
    } else if (pick < 72) {
      r.op = Op::kSet;
    } else if (pick < 75) {
      r.op = Op::kCas;
    } else if (pick < 78) {
      r.op = Op::kAppend;
    } else if (pick < 80) {
      r.op = Op::kPrepend;
    } else if (pick < 85) {
      r.op = Op::kTouch;
    } else if (pick < 88) {
      r.op = Op::kIncr;
    } else if (pick < 90) {
      r.op = Op::kDecr;
    } else {
      r.op = Op::kDelete;
    }
    trace.Append(r);
  }
  return trace;
}

// Same trace with every TTL stripped — the control: identical op stream,
// no expiry-driven misses.
Trace StripExpiry(const Trace& trace) {
  Trace out;
  out.Reserve(trace.size());
  for (Request r : trace) {
    r.expiry_s = 0;
    out.Append(r);
  }
  return out;
}

// Mirrors sim/simulator.cc's op mapping verb for verb (demand fill on a
// cacheable GET miss; store-shaped verbs are fills; touch refreshes expiry;
// incr/decr are size-preserving rewrites that must NOT touch the stored
// TTL, hence kKeepExpiry). Templated so CacheServer and ShardedCacheServer
// replay through literally the same code.
template <typename Server>
void ReplayLikeSimulator(Server& server, const Trace& trace) {
  for (const Request& r : trace) {
    ItemMeta meta;
    meta.key = r.key;
    meta.key_size = r.key_size;
    meta.value_size = r.value_size;
    meta.expiry_s = r.expiry_s;
    meta.now_s = static_cast<uint32_t>(r.time_us / 1000000);
    switch (r.op) {
      case Op::kGet: {
        const Outcome outcome = server.Get(r.app_id, meta);
        if (!outcome.hit && outcome.cacheable) server.Set(r.app_id, meta);
        break;
      }
      case Op::kSet:
      case Op::kCas:
      case Op::kAppend:
      case Op::kPrepend:
        server.Set(r.app_id, meta);
        break;
      case Op::kTouch:
        server.Touch(r.app_id, meta);
        break;
      case Op::kIncr:
      case Op::kDecr: {
        ItemMeta keep = meta;
        keep.expiry_s = kKeepExpiry;
        server.Touch(r.app_id, keep);
        break;
      }
      case Op::kDelete:
        server.Delete(r.app_id, meta);
        break;
    }
  }
}

ClassStats AppStatsOf(CacheServer& server, uint32_t app_id) {
  return server.app(app_id)->TotalStats();
}

ClassStats AppStatsOf(ShardedCacheServer& server, uint32_t app_id) {
  return server.AppStats(app_id);
}

ClassStats RunDirect(const Trace& trace, uint32_t app_id) {
  CacheServer server(DefaultServerConfig());
  for (const uint32_t app : kApps) server.AddApp(app, kReservation);
  ReplayLikeSimulator(server, trace);
  return AppStatsOf(server, app_id);
}

ClassStats RunSharded(const Trace& trace, uint32_t app_id,
                      size_t num_shards) {
  ShardedServerConfig config;
  config.server = DefaultServerConfig();
  config.num_shards = num_shards;
  ShardedCacheServer server(config);
  for (const uint32_t app : kApps) server.AddApp(app, kReservation);
  ReplayLikeSimulator(server, trace);
  return AppStatsOf(server, app_id);
}

// The simulator's Replay() and the hand-rolled loop are two implementations
// of the same mapping — every per-app counter must agree exactly,
// including the shadow signals.
TEST(TtlReplay, SimulatorAndDirectLoopAgreeExactly) {
  const Trace trace = MakeTtlTrace();

  CacheServer via_sim(DefaultServerConfig());
  for (const uint32_t app : kApps) via_sim.AddApp(app, kReservation);
  const SimResult result = Replay(via_sim, trace);

  for (const uint32_t app : kApps) {
    const ClassStats sim = result.apps.at(app).total;
    const ClassStats direct = RunDirect(trace, app);
    EXPECT_EQ(sim.gets, direct.gets) << "app " << app;
    EXPECT_EQ(sim.hits, direct.hits) << "app " << app;
    EXPECT_EQ(sim.sets, direct.sets) << "app " << app;
    EXPECT_EQ(sim.tail_hits, direct.tail_hits) << "app " << app;
    EXPECT_EQ(sim.cliff_shadow_hits, direct.cliff_shadow_hits)
        << "app " << app;
    EXPECT_EQ(sim.hill_shadow_hits, direct.hill_shadow_hits) << "app " << app;
  }
}

// With no evictions, residency is a pure function of the per-key op/TTL
// history — splitting the key space across shards must not move a single
// hit.
TEST(TtlReplay, ShardingPreservesPerAppTtlHitCounts) {
  const Trace trace = MakeTtlTrace();
  for (const uint32_t app : kApps) {
    const ClassStats direct = RunDirect(trace, app);
    ASSERT_GT(direct.gets, 0u) << "app " << app;
    ASSERT_GT(direct.hits, 0u) << "app " << app;
    ASSERT_LT(direct.hits, direct.gets) << "app " << app;
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      const ClassStats sharded = RunSharded(trace, app, shards);
      EXPECT_EQ(sharded.gets, direct.gets)
          << "app " << app << ", " << shards << " shards";
      EXPECT_EQ(sharded.hits, direct.hits)
          << "app " << app << ", " << shards << " shards";
      EXPECT_EQ(sharded.sets, direct.sets)
          << "app " << app << ", " << shards << " shards";
    }
  }
}

// Control: the identical op stream with TTLs stripped hits strictly more —
// proof the differential above actually exercised expiry-driven misses
// (not just compulsory/delete misses, which exist in both runs).
TEST(TtlReplay, StrippingTtlsStrictlyRaisesHits) {
  const Trace trace = MakeTtlTrace();
  const Trace immortal = StripExpiry(trace);
  for (const uint32_t app : kApps) {
    const ClassStats with_ttl = RunDirect(trace, app);
    const ClassStats without_ttl = RunDirect(immortal, app);
    ASSERT_EQ(with_ttl.gets, without_ttl.gets) << "app " << app;
    EXPECT_GT(without_ttl.hits, with_ttl.hits + 100)
        << "app " << app << ": expiry-driven misses should be plentiful";
  }
}

}  // namespace
}  // namespace cliffhanger
