// Tenant arrival/departure lifecycle on CacheServer: RemoveApp teardown,
// cross-app reservation redistribution (largest-remainder, total-conserving),
// soft-fail semantics for requests racing a departure, the floor AppAdapter
// derives from the registered reservation, and the invariant that only
// cross-app climbing moves a live reservation off the registered one.
#include <gtest/gtest.h>

#include <cstring>

#include "core/cache_server.h"
#include "core/sharded_server.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "workload/zipf.h"

namespace cliffhanger {
namespace {

ItemMeta Item(uint64_t key, uint32_t value_size = 12) {
  ItemMeta item;
  item.key = key;
  item.key_size = 16;
  item.value_size = value_size;
  return item;
}

ServerConfig CrossAppConfig() {
  ServerConfig config;
  config.allocation = AllocationMode::kCliffhanger;
  config.knobs.cross_app = true;
  config.page_size = 4096;
  return config;
}

TEST(TenantLifecycle, RemoveAppRedistributesLargestRemainder) {
  // No traffic: reservations sit at their registered values, so the
  // redistribution arithmetic is pinned exactly. Removing app 3 (3 bytes)
  // across survivors of 1000 bytes each grants floor(3*1000/2000) = 1 byte
  // apiece; the 1 leftover byte goes to the larger remainder, tie broken
  // by ascending app id.
  CacheServer server(CrossAppConfig());
  AppCache& a = server.AddApp(1, 1000);
  AppCache& b = server.AddApp(2, 1000);
  server.AddApp(3, 3);
  ASSERT_EQ(server.total_reservation(), 2003u);

  EXPECT_TRUE(server.RemoveApp(3));
  EXPECT_EQ(server.num_apps(), 2u);
  EXPECT_EQ(server.total_reservation(), 2003u);  // conserved, not released
  EXPECT_EQ(a.reservation(), 1002u);
  EXPECT_EQ(b.reservation(), 1001u);
  EXPECT_FALSE(server.RemoveApp(3));  // already gone
}

TEST(TenantLifecycle, RemoveAppConservesTotalUnderTraffic) {
  CacheServer server(CrossAppConfig());
  const uint64_t kEach = 64 * 4096;
  for (uint32_t id = 1; id <= 4; ++id) server.AddApp(id, kEach);
  Rng rng(29);
  ZipfTable zipf(8000, 0.9);
  // Skewed load so the cross-app climber has actually moved memory around
  // before the departure.
  for (int i = 0; i < 60000; ++i) {
    const uint32_t app_id = rng.NextBernoulli(0.7) ? 1 : 2 + rng.NextBounded(3);
    const ItemMeta m = Item(HashCombine(app_id, zipf.Sample(rng)));
    if (!server.Get(app_id, m).hit) server.Set(app_id, m);
  }
  ASSERT_EQ(server.total_reservation(), 4 * kEach);
  ASSERT_TRUE(server.CheckInvariants());

  EXPECT_TRUE(server.RemoveApp(2));
  EXPECT_EQ(server.total_reservation(), 4 * kEach);
  EXPECT_TRUE(server.CheckInvariants());

  // An arrival after the departure joins the climber and serves traffic.
  server.AddApp(5, kEach);
  EXPECT_EQ(server.total_reservation(), 5 * kEach);
  for (int i = 0; i < 5000; ++i) {
    const ItemMeta m = Item(HashCombine(5u, zipf.Sample(rng)));
    if (!server.Get(5, m).hit) server.Set(5, m);
  }
  EXPECT_GT(server.app(5)->TotalStats().hits, 0u);
  EXPECT_TRUE(server.CheckInvariants());
}

TEST(TenantLifecycle, RoutedVerbsSoftFailOnUnknownApp) {
  // A request racing a RemoveApp must degrade to a miss/no-op, never
  // crash: by the time the lock serializes it the tenant may be gone.
  CacheServer server(CrossAppConfig());
  server.AddApp(1, 1 << 20);
  server.RemoveApp(1);

  const Outcome get = server.Get(1, Item(7));
  EXPECT_FALSE(get.hit);
  EXPECT_FALSE(get.cacheable);
  EXPECT_FALSE(server.Set(1, Item(7)));
  EXPECT_FALSE(server.Touch(1, Item(7)));
  server.Delete(1, Item(7));  // no-op, must not crash
}

TEST(TenantLifecycle, VerbsOnUnknownAppAgreeAcrossLayers) {
  // An op racing a RemoveApp may land on a bare CacheServer, a routed
  // ShardedCacheServer verb or an open ShardBatch's CacheServer; all three
  // must read it the same way: an uncacheable miss, a refused store, an
  // absent touch target.
  CacheServer bare(CrossAppConfig());
  ShardedServerConfig sharded_config;
  sharded_config.server = CrossAppConfig();
  sharded_config.num_shards = 4;
  ShardedCacheServer sharded(sharded_config);
  bare.AddApp(1, 1 << 20);
  bare.RemoveApp(1);
  sharded.AddApp(1, 1 << 20);
  sharded.RemoveApp(1);

  const ItemMeta item = Item(7);
  const Outcome expected = bare.Get(1, item);
  EXPECT_FALSE(expected.cacheable);
  EXPECT_FALSE(expected.hit);
  EXPECT_FALSE(bare.Set(1, item));
  EXPECT_FALSE(bare.Touch(1, item));
  bare.Delete(1, item);

  const Outcome routed = sharded.Get(1, item);
  EXPECT_FALSE(sharded.Set(1, item));
  EXPECT_FALSE(sharded.Touch(1, item));
  sharded.Delete(1, item);
  Outcome batched;
  {
    ShardedCacheServer::ShardBatch batch =
        sharded.BeginBatch(sharded.ShardForKey(item.key));
    CacheServer& shard = batch.server(item.key);
    batched = shard.Get(1, item);
    EXPECT_FALSE(shard.Set(1, item));
    EXPECT_FALSE(shard.Touch(1, item));
    shard.Delete(1, item);
  }
  for (const Outcome& got : {routed, batched}) {
    EXPECT_EQ(got.cacheable, expected.cacheable);
    EXPECT_EQ(got.hit, expected.hit);
    EXPECT_EQ(got.region, expected.region);
    EXPECT_EQ(got.slab_class, expected.slab_class);
    EXPECT_EQ(got.expired, expected.expired);
  }
  EXPECT_TRUE(sharded.CheckInvariants());
}

TEST(TenantLifecycle, RemoveAppReclaimsValueStorageEagerly) {
  ServerConfig config = CrossAppConfig();
  config.store_values = true;
  CacheServer server(config);
  server.AddApp(1, 1 << 20);
  server.AddApp(2, 1 << 20);
  char payload[64];
  std::memset(payload, 'x', sizeof(payload));
  for (uint64_t k = 0; k < 500; ++k) {
    ItemMeta item = Item(HashCombine(1u, k), sizeof(payload));
    ASSERT_TRUE(server.SetValue(1, item, payload, 0, 0));
  }
  ASSERT_TRUE(server.GetByKey(1, HashCombine(1u, 0u), 16, 0, 0).outcome.hit);

  EXPECT_TRUE(server.RemoveApp(1));
  // Value-mode verbs soft-fail too once the arena is gone.
  EXPECT_FALSE(server.GetByKey(1, HashCombine(1u, 0u), 16, 0, 0).outcome.hit);
  EXPECT_FALSE(server.SetValue(1, Item(HashCombine(1u, 0u), 64), payload, 0, 0));
  EXPECT_TRUE(server.CheckInvariants());

  // The id is immediately reusable and starts cold.
  server.AddApp(1, 1 << 20);
  EXPECT_FALSE(server.GetByKey(1, HashCombine(1u, 0u), 16, 0, 0).outcome.hit);
  ItemMeta item = Item(HashCombine(1u, 0u), sizeof(payload));
  EXPECT_TRUE(server.SetValue(1, item, payload, 0, 0));
  EXPECT_TRUE(server.GetByKey(1, HashCombine(1u, 0u), 16, 0, 0).outcome.hit);
  EXPECT_TRUE(server.CheckInvariants());
}

TEST(TenantLifecycle, OneAppCrossAppMatchesSingleAppBitExactly) {
  // With a single tenant the cross-app climber has nobody to trade
  // against, so enabling it must not change a single observable bit —
  // stats or per-class capacities — versus the same replay with it off.
  ServerConfig cross = CrossAppConfig();
  ServerConfig solo = CrossAppConfig();
  solo.knobs.cross_app = false;
  CacheServer cross_server(cross);
  CacheServer solo_server(solo);
  cross_server.AddApp(1, 64 * 4096);
  solo_server.AddApp(1, 64 * 4096);

  Rng cross_rng(31), solo_rng(31);
  ZipfTable zipf(6000, 0.9);
  for (int i = 0; i < 120000; ++i) {
    // Mixed Zipf + scan so the replay crosses the cliff machinery, the
    // hill shadow, and several slab classes.
    const bool scan = i % 3 == 0;
    const uint64_t cross_key =
        scan ? 1000000 + (i / 3) % 2500 : zipf.Sample(cross_rng);
    const uint64_t solo_key =
        scan ? 1000000 + (i / 3) % 2500 : zipf.Sample(solo_rng);
    const uint32_t value_size = scan ? 200 : 12;
    if (!cross_server.Get(1, Item(cross_key, value_size)).hit) {
      cross_server.Set(1, Item(cross_key, value_size));
    }
    if (!solo_server.Get(1, Item(solo_key, value_size)).hit) {
      solo_server.Set(1, Item(solo_key, value_size));
    }
  }

  const ClassStats cs = cross_server.TotalStats();
  const ClassStats ss = solo_server.TotalStats();
  EXPECT_EQ(cs.gets, ss.gets);
  EXPECT_EQ(cs.hits, ss.hits);
  EXPECT_EQ(cs.sets, ss.sets);
  EXPECT_EQ(cs.tail_hits, ss.tail_hits);
  EXPECT_EQ(cs.cliff_shadow_hits, ss.cliff_shadow_hits);
  EXPECT_EQ(cs.hill_shadow_hits, ss.hill_shadow_hits);

  const auto cross_infos = cross_server.app(1)->ClassInfos();
  const auto solo_infos = solo_server.app(1)->ClassInfos();
  ASSERT_EQ(cross_infos.size(), solo_infos.size());
  for (size_t i = 0; i < cross_infos.size(); ++i) {
    EXPECT_EQ(cross_infos[i].slab_class, solo_infos[i].slab_class);
    EXPECT_EQ(cross_infos[i].capacity_bytes, solo_infos[i].capacity_bytes);
    EXPECT_EQ(cross_infos[i].used_bytes, solo_infos[i].used_bytes);
  }
  EXPECT_EQ(cross_server.app(1)->reservation(),
            solo_server.app(1)->reservation());
}

TEST(TenantLifecycle, AdapterFloorTracksRegisteredReservation) {
  // The cross-app climber may never shrink a tenant below
  // max(4 pages, registered/8): an idle tenant beside a busy one ends up
  // pinned at that floor.
  CacheServer server(CrossAppConfig());
  server.AddApp(1, 64 * 4096);
  AppCache& idle = server.AddApp(2, 64 * 4096);
  Rng rng(37);
  ZipfTable zipf(8000, 0.9);
  for (int i = 0; i < 200000; ++i) {
    const ItemMeta m = Item(zipf.Sample(rng));
    if (!server.Get(1, m).hit) server.Set(1, m);
  }
  const uint64_t kFloor = 8 * 4096;  // 64*4096 / 8
  EXPECT_GE(idle.reservation(), kFloor);
  EXPECT_LE(idle.reservation(), kFloor + 4096);  // pinned at the floor
  EXPECT_TRUE(server.CheckInvariants());
}

TEST(TenantLifecycle, OnlyCrossAppMovesAReservationOffItsRegisteredSize) {
  // Without the cross-app climber nothing resizes a tenant after AddApp,
  // so a live reservation that drifted off the registered one is a broken
  // invariant. Each drift below keeps allocated + free == reservation, so
  // only that rule can catch it.
  constexpr uint64_t kReservation = 64 * 4096;
  ServerConfig fcfs;
  fcfs.page_size = 4096;

  CacheServer bare(fcfs);
  bare.AddApp(1, kReservation).SetReservation(kReservation / 2);
  EXPECT_FALSE(bare.CheckInvariants());

  ShardedServerConfig sharded_config;
  sharded_config.server = fcfs;
  sharded_config.num_shards = 4;
  ShardedCacheServer sharded(sharded_config);
  sharded.AddApp(1, kReservation);
  ASSERT_TRUE(sharded.CheckInvariants());
  uint64_t key = 0;
  while (sharded.ShardForKey(key) != 0) ++key;
  {
    ShardedCacheServer::ShardBatch batch = sharded.BeginBatch(0);
    AppCache* shard_app = batch.server(key).app(1);
    ASSERT_NE(shard_app, nullptr);
    shard_app->SetReservation(shard_app->reservation() / 2);
  }
  EXPECT_FALSE(sharded.CheckInvariants());

  CacheServer cross(CrossAppConfig());
  cross.AddApp(1, kReservation).SetReservation(kReservation / 2);
  EXPECT_TRUE(cross.CheckInvariants());
}

}  // namespace
}  // namespace cliffhanger
