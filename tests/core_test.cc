// Tests for the core algorithms: hill climbing (Algorithm 1), cliff scaling
// (Algorithms 2-3) and the CacheServer that combines them.
#include <gtest/gtest.h>

#include <string>

#include "core/cache_server.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "workload/zipf.h"

namespace cliffhanger {
namespace {

class FakeQueue final : public ClimbableQueue {
 public:
  explicit FakeQueue(uint64_t capacity, uint64_t min = 0)
      : capacity_(capacity), min_(min) {}
  [[nodiscard]] uint64_t capacity_bytes() const override { return capacity_; }
  void SetCapacityBytes(uint64_t bytes) override { capacity_ = bytes; }
  [[nodiscard]] uint64_t min_capacity_bytes() const override { return min_; }

 private:
  uint64_t capacity_;
  uint64_t min_;
};

TEST(HillClimber, ShadowHitMovesMemoryTowardHitter) {
  HillClimberConfig config;
  config.credit_bytes = 1024;
  config.quantum_bytes = 1024;
  HillClimber climber(config, 1);
  FakeQueue a(100 * 1024), b(100 * 1024);
  climber.AddQueue(&a);
  climber.AddQueue(&b);
  for (int i = 0; i < 50; ++i) climber.OnShadowHit(0);
  EXPECT_EQ(a.capacity_bytes(), 100 * 1024 + 50 * 1024u);
  EXPECT_EQ(b.capacity_bytes(), 100 * 1024 - 50 * 1024u);
  EXPECT_EQ(climber.total_transfers(), 50u);
}

TEST(HillClimber, ConservesTotalCapacity) {
  HillClimberConfig config;
  HillClimber climber(config, 2);
  std::vector<std::unique_ptr<FakeQueue>> queues;
  uint64_t total = 0;
  for (int i = 0; i < 5; ++i) {
    queues.push_back(std::make_unique<FakeQueue>(1 << 20, 1 << 16));
    total += queues.back()->capacity_bytes();
    climber.AddQueue(queues.back().get());
  }
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    climber.OnShadowHit(rng.NextBounded(5));
  }
  uint64_t after = 0;
  for (const auto& q : queues) after += q->capacity_bytes();
  EXPECT_EQ(after, total);
}

TEST(HillClimber, RespectsMinCapacity) {
  HillClimberConfig config;
  config.credit_bytes = 4096;
  config.quantum_bytes = 4096;
  HillClimber climber(config, 4);
  FakeQueue winner(64 * 1024, 0);
  FakeQueue donor(16 * 1024, 8 * 1024);
  climber.AddQueue(&winner);
  climber.AddQueue(&donor);
  for (int i = 0; i < 100; ++i) climber.OnShadowHit(0);
  EXPECT_GE(donor.capacity_bytes(), 8 * 1024u);
}

TEST(HillClimber, SingleQueueIsNoOp) {
  HillClimber climber({}, 5);
  FakeQueue only(1 << 20);
  climber.AddQueue(&only);
  climber.OnShadowHit(0);
  EXPECT_EQ(only.capacity_bytes(), 1u << 20);
}

TEST(HillClimber, EquilibriumTracksHitRatios) {
  // Queue 0 gets shadow hits 3x as often as queue 1: it should end with
  // more memory.
  HillClimberConfig config;
  HillClimber climber(config, 6);
  FakeQueue a(1 << 20, 1 << 16), b(1 << 20, 1 << 16);
  climber.AddQueue(&a);
  climber.AddQueue(&b);
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    climber.OnShadowHit(rng.NextBernoulli(0.75) ? 0 : 1);
  }
  EXPECT_GT(a.capacity_bytes(), b.capacity_bytes());
}

TEST(HillClimber, LargerQuantumBatchesTransfers) {
  HillClimberConfig config;
  config.credit_bytes = 1024;
  config.quantum_bytes = 8 * 1024;  // transfer only every 8 credits
  HillClimber climber(config, 8);
  FakeQueue a(1 << 20), b(1 << 20);
  climber.AddQueue(&a);
  climber.AddQueue(&b);
  for (int i = 0; i < 7; ++i) climber.OnShadowHit(0);
  EXPECT_EQ(climber.total_transfers(), 0u);
  climber.OnShadowHit(0);
  EXPECT_EQ(climber.total_transfers(), 1u);
  EXPECT_EQ(a.capacity_bytes(), (1 << 20) + 8 * 1024u);
}

TEST(HillClimber, CreditClampBoundsPostUnfloorBurst) {
  // While every donor sits at its floor the winner's balance accumulates;
  // without a clamp the backlog drains as one burst the moment a donor
  // frees up. max_credit_quanta bounds that burst.
  HillClimberConfig config;
  config.credit_bytes = 1024;
  config.quantum_bytes = 1024;
  config.max_credit_quanta = 4;
  HillClimber climber(config, 11);
  FakeQueue winner(64 * 1024, 0);
  FakeQueue donor(16 * 1024, 16 * 1024);  // floored: cannot donate
  climber.AddQueue(&winner);
  climber.AddQueue(&donor);
  for (int i = 0; i < 100; ++i) climber.OnShadowHit(0);
  EXPECT_EQ(climber.total_transfers(), 0u);
  EXPECT_EQ(climber.credits(0), 4 * 1024);  // clamped, not 100 * 1024

  donor.SetCapacityBytes(64 * 1024);  // unfloor: 48 KiB of spare room
  climber.OnShadowHit(0);
  EXPECT_EQ(climber.total_transfers(), 4u);  // burst capped at the clamp
  EXPECT_EQ(winner.capacity_bytes(), 64 * 1024 + 4 * 1024u);
}

TEST(HillClimber, UnclampedFlooredBacklogBurstsOnUnfloor) {
  // The regression the clamp fixes, pinned so the contrast stays visible:
  // with max_credit_quanta == 0 the same scenario drains the entire
  // 100-hit backlog the moment the donor unfloors.
  HillClimberConfig config;
  config.credit_bytes = 1024;
  config.quantum_bytes = 1024;
  config.max_credit_quanta = 0;  // unbounded (the golden-pinned default)
  HillClimber climber(config, 11);
  FakeQueue winner(64 * 1024, 0);
  FakeQueue donor(16 * 1024, 16 * 1024);
  climber.AddQueue(&winner);
  climber.AddQueue(&donor);
  for (int i = 0; i < 100; ++i) climber.OnShadowHit(0);
  EXPECT_EQ(climber.total_transfers(), 0u);
  EXPECT_EQ(climber.credits(0), 100 * 1024);

  donor.SetCapacityBytes(64 * 1024);
  climber.OnShadowHit(0);  // drains until the donor re-floors: 48 quanta
  EXPECT_EQ(climber.total_transfers(), 48u);
  EXPECT_EQ(donor.capacity_bytes(), 16 * 1024u);
}

TEST(HillClimber, WeightedShadowHitScalesCredit) {
  // Cross-app cliff scaling reports amplified gradients by passing
  // weight > 1: one weighted hit must move as much memory as that many
  // unit hits would.
  HillClimberConfig config;
  config.credit_bytes = 1024;
  config.quantum_bytes = 1024;
  HillClimber climber(config, 12);
  FakeQueue a(1 << 20), b(1 << 20);
  climber.AddQueue(&a);
  climber.AddQueue(&b);
  climber.OnShadowHit(0, 3.0);
  EXPECT_EQ(climber.total_transfers(), 3u);
  EXPECT_EQ(a.capacity_bytes(), (1 << 20) + 3 * 1024u);
  climber.OnShadowHit(0, 0.0);  // zero weight is a no-op
  EXPECT_EQ(climber.total_transfers(), 3u);
}

TEST(HillClimber, RemoveQueueTombstonesAndReusesLowestSlot) {
  HillClimberConfig config;
  config.credit_bytes = 1024;
  config.quantum_bytes = 1024;
  HillClimber climber(config, 13);
  FakeQueue a(1 << 20), b(1 << 20), c(1 << 20), d(1 << 20), e(1 << 20);
  ASSERT_EQ(climber.AddQueue(&a), 0u);
  ASSERT_EQ(climber.AddQueue(&b), 1u);
  ASSERT_EQ(climber.AddQueue(&c), 2u);

  climber.RemoveQueue(1);
  EXPECT_EQ(climber.num_queues(), 2u);
  EXPECT_FALSE(climber.has_queue(1));

  // With only a and c live, every debit and donation must land on c: the
  // tombstone is skipped by both victim selection and donor search.
  for (int i = 0; i < 10; ++i) climber.OnShadowHit(0);
  EXPECT_EQ(a.capacity_bytes(), (1 << 20) + 10 * 1024u);
  EXPECT_EQ(c.capacity_bytes(), (1 << 20) - 10 * 1024u);

  // Arrivals refill the table front-to-back, lowest freed slot first.
  EXPECT_EQ(climber.AddQueue(&d), 1u);
  climber.RemoveQueue(2);
  climber.RemoveQueue(0);
  EXPECT_EQ(climber.AddQueue(&e), 0u);
  EXPECT_EQ(climber.num_queues(), 2u);
}

// --- CliffScaler ---

PartitionConfig ScalerQueueConfig() {
  PartitionConfig pc;
  pc.queue.chunk_size = 64;
  pc.queue.tail_items = 8;
  pc.queue.cliff_shadow_items = 8;
  pc.queue.hill_shadow_bytes = 16 * 64;
  return pc;
}

CliffScalerConfig ScalerCfg() {
  CliffScalerConfig config;
  config.credit_bytes = 64 * 4;  // 4 items per event
  config.min_active_items = 100;
  config.min_pointer_items = 16;
  config.stable_accesses_to_engage = 0;  // no warm-up in unit tests
  return config;
}

TEST(CliffScaler, InactiveBelowThreshold) {
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(50 * 64);  // 50 items < threshold 100
  CliffScaler scaler(&q, ScalerCfg());
  EXPECT_FALSE(scaler.active());
  EXPECT_FALSE(q.partition_enabled());
}

TEST(CliffScaler, ActiveAboveThresholdButUnsplitUntilCliff) {
  // Lazy partitioning: detection runs on the whole queue; the physical
  // split happens only once a cliff is confirmed.
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScaler scaler(&q, ScalerCfg());
  EXPECT_TRUE(scaler.active());
  EXPECT_FALSE(scaler.on_cliff());
  EXPECT_FALSE(q.partition_enabled());
  EXPECT_DOUBLE_EQ(scaler.left_pointer(), 1000.0);
  EXPECT_DOUBLE_EQ(scaler.right_pointer(), 1000.0);
  EXPECT_EQ(q.left().capacity_items(), 1000u);
}

GetResult Event(Side side, HitRegion region) {
  GetResult r;
  r.side = side;
  r.region = region;
  r.hit = region == HitRegion::kPhysical || region == HitRegion::kPhysicalTail;
  return r;
}

TEST(CliffScaler, DetectionShadowHitsSpreadPointers) {
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScaler scaler(&q, ScalerCfg());  // credit = 4 items
  for (int i = 0; i < 10; ++i) {
    scaler.OnAccess(Event(Side::kLeft, HitRegion::kCliffShadow));
  }
  EXPECT_DOUBLE_EQ(scaler.right_pointer(), 1040.0);
  EXPECT_DOUBLE_EQ(scaler.left_pointer(), 960.0);
}

TEST(CliffScaler, DetectionTailHitsPullPointersHome) {
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScaler scaler(&q, ScalerCfg());
  for (int i = 0; i < 5; ++i) {
    scaler.OnAccess(Event(Side::kLeft, HitRegion::kCliffShadow));
  }
  scaler.OnAccess(Event(Side::kLeft, HitRegion::kPhysicalTail));
  EXPECT_DOUBLE_EQ(scaler.right_pointer(), 1016.0);
  EXPECT_DOUBLE_EQ(scaler.left_pointer(), 984.0);
}

TEST(CliffScaler, TailHitsAtOperatingPointAreGuarded) {
  // Algorithm 2's guards: pointers must not cross the operating point.
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScaler scaler(&q, ScalerCfg());
  scaler.OnAccess(Event(Side::kLeft, HitRegion::kPhysicalTail));
  EXPECT_DOUBLE_EQ(scaler.right_pointer(), 1000.0);
  EXPECT_DOUBLE_EQ(scaler.left_pointer(), 1000.0);
}

TEST(CliffScaler, ConfirmedCliffSplitsQueueAndSetsRatio) {
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScalerConfig config = ScalerCfg();
  config.credit_bytes = 64 * 100;  // 100 items per event
  CliffScaler scaler(&q, config);
  // Five shadow hits: rp = 1500, lp = 500; both distances (500) exceed the
  // enter threshold max(4 * 100, 6% of 1000) = 400 -> on cliff.
  for (int i = 0; i < 5; ++i) {
    scaler.OnAccess(Event(Side::kLeft, HitRegion::kCliffShadow));
  }
  EXPECT_TRUE(scaler.on_cliff());
  EXPECT_TRUE(q.partition_enabled());
  // Symmetric distances -> ratio 0.5.
  EXPECT_NEAR(scaler.ratio(), 0.5, 1e-9);
  // Algorithm 3 sizes apply on the next miss: left = lp * ratio = 250.
  scaler.OnMiss();
  EXPECT_EQ(q.left().capacity_items(), 250u);
  EXPECT_EQ(q.right().capacity_items(), 750u);
}

TEST(CliffScaler, RatioFollowsAlgorithm3OnSkewedCliff) {
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScalerConfig config = ScalerCfg();
  config.credit_bytes = 64 * 100;
  CliffScaler scaler(&q, config);
  for (int i = 0; i < 5; ++i) {
    scaler.OnAccess(Event(Side::kLeft, HitRegion::kCliffShadow));
  }
  ASSERT_TRUE(scaler.on_cliff());
  // Per-side phase: two more right-shadow hits push rp to 1700.
  scaler.OnAccess(Event(Side::kRight, HitRegion::kCliffShadow));
  scaler.OnAccess(Event(Side::kRight, HitRegion::kCliffShadow));
  EXPECT_DOUBLE_EQ(scaler.right_pointer(), 1700.0);
  // distRight = 700, distLeft = 500 -> ratio = 7/12.
  EXPECT_NEAR(scaler.ratio(), 700.0 / 1200.0, 1e-9);
  scaler.OnMiss();
  // left = lp * ratio = 500 * 7/12 ~= 292.
  EXPECT_EQ(q.left().capacity_items(), 292u);
  EXPECT_EQ(q.right().capacity_items(), 708u);
}

TEST(CliffScaler, ResizeOnlyAppliedOnMiss) {
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScalerConfig config = ScalerCfg();
  config.credit_bytes = 64 * 100;
  CliffScaler scaler(&q, config);
  for (int i = 0; i < 5; ++i) {
    scaler.OnAccess(Event(Side::kLeft, HitRegion::kCliffShadow));
  }
  ASSERT_TRUE(q.partition_enabled());
  // The split starts even; the skewed Algorithm 3 sizes wait for a miss.
  EXPECT_EQ(q.left().capacity_items(), 500u);
  scaler.OnMiss();
  EXPECT_EQ(q.left().capacity_items(), 250u);
}

TEST(CliffScaler, CollapsesBackWhenPointersComeHome) {
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScalerConfig config = ScalerCfg();
  config.credit_bytes = 64 * 100;
  CliffScaler scaler(&q, config);
  for (int i = 0; i < 5; ++i) {
    scaler.OnAccess(Event(Side::kLeft, HitRegion::kCliffShadow));
  }
  ASSERT_TRUE(q.partition_enabled());
  // Tail hits on both sides walk the pointers back to the operating point.
  for (int i = 0; i < 10; ++i) {
    scaler.OnAccess(Event(Side::kRight, HitRegion::kPhysicalTail));
    scaler.OnAccess(Event(Side::kLeft, HitRegion::kPhysicalTail));
  }
  EXPECT_FALSE(scaler.on_cliff());
  EXPECT_FALSE(q.partition_enabled());
  EXPECT_EQ(q.left().capacity_items(), 1000u);
}

TEST(CliffScaler, PartitionSumStaysAtOperatingPoint) {
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScaler scaler(&q, ScalerCfg());
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const Side side = rng.NextBernoulli(0.5) ? Side::kLeft : Side::kRight;
    const HitRegion region = rng.NextBernoulli(0.5)
                                 ? HitRegion::kCliffShadow
                                 : HitRegion::kPhysicalTail;
    scaler.OnAccess(Event(side, region));
    if (rng.NextBernoulli(0.3)) scaler.OnMiss();
    ASSERT_EQ(q.left().capacity_items() + q.right().capacity_items(), 1000u);
  }
}

TEST(CliffScaler, CapacityChangeReclamps) {
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScalerConfig config = ScalerCfg();
  config.credit_bytes = 64 * 100;
  CliffScaler scaler(&q, config);
  for (int i = 0; i < 5; ++i) {
    scaler.OnAccess(Event(Side::kLeft, HitRegion::kCliffShadow));
  }
  EXPECT_DOUBLE_EQ(scaler.left_pointer(), 500.0);
  q.SetCapacityBytes(400 * 64);
  scaler.OnCapacityChanged();
  // Left pointer may not exceed the new operating point.
  EXPECT_LE(scaler.left_pointer(), 400.0);
  EXPECT_GE(scaler.right_pointer(), 400.0);
}

TEST(CliffScaler, DeactivatesWhenShrunkBelowThreshold) {
  PartitionedSlabQueue q(ScalerQueueConfig());
  q.SetCapacityBytes(1000 * 64);
  CliffScaler scaler(&q, ScalerCfg());
  EXPECT_TRUE(scaler.active());
  q.SetCapacityBytes(50 * 64);
  scaler.OnCapacityChanged();
  EXPECT_FALSE(scaler.active());
  EXPECT_FALSE(q.partition_enabled());
}

// --- CacheServer ---

ItemMeta Item(uint64_t key, uint32_t value_size = 12) {
  ItemMeta m;
  m.key = key;
  m.key_size = 14;
  m.value_size = value_size;
  return m;
}

TEST(CacheServer, FcfsGrantsPagesUntilPoolExhausted) {
  ServerConfig config;
  config.page_size = 4096;
  CacheServer server(config);
  AppCache& app = server.AddApp(1, 16 * 4096);
  // Fill small items: the class grows page by page.
  for (uint64_t k = 0; k < 4096; ++k) {
    const Outcome o = server.Get(1, Item(k));
    if (!o.hit) server.Set(1, Item(k));
  }
  EXPECT_EQ(app.free_bytes(), 0u);
  EXPECT_EQ(app.allocated_bytes(), 16 * 4096u);
}

TEST(CacheServer, FcfsLargeClassCrowdsOutSmall) {
  // The Table 1 pathology: a large-item churn class grabs most pages even
  // though a small hot class would use them better.
  ServerConfig config;
  config.page_size = 4096;
  CacheServer server(config);
  server.AddApp(1, 64 * 4096);
  Rng rng(17);
  uint64_t big_key = 1 << 20;
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBernoulli(0.5)) {
      const ItemMeta small = Item(rng.NextBounded(3000), 12);
      if (!server.Get(1, small).hit) server.Set(1, small);
    } else {
      const ItemMeta big = Item(big_key++, 1900);  // class 5, never reused
      if (!server.Get(1, big).hit) server.Set(1, big);
    }
  }
  const AppCache* app = server.app(1);
  uint64_t small_cap = 0, big_cap = 0;
  for (const auto& info : app->ClassInfos()) {
    if (info.slab_class == 0) small_cap = info.capacity_bytes;
    if (info.slab_class == 5) big_cap = info.capacity_bytes;
  }
  EXPECT_GT(big_cap, small_cap * 4);
}

TEST(CacheServer, StaticAllocationIsFixed) {
  ServerConfig config;
  config.allocation = AllocationMode::kStatic;
  CacheServer server(config);
  AppCache& app = server.AddApp(1, 1 << 20);
  app.SetStaticAllocation({{0, 64 * 1024}, {5, 128 * 1024}});
  for (uint64_t k = 0; k < 5000; ++k) {
    if (!server.Get(1, Item(k)).hit) server.Set(1, Item(k));
  }
  uint64_t class0_cap = 0;
  for (const auto& info : app.ClassInfos()) {
    if (info.slab_class == 0) class0_cap = info.capacity_bytes;
  }
  EXPECT_EQ(class0_cap, 64 * 1024u);
}

TEST(CacheServer, CliffhangerShiftsMemoryToHotClass) {
  // Class 0 is hot (small Zipf working set), class 5 is one-hit churn.
  // The hill climber should move memory from the churn class to the hot
  // class, raising its capacity above the FCFS outcome.
  const auto run = [](AllocationMode mode) {
    ServerConfig config;
    config.allocation = mode;
    config.page_size = 4096;
    config.hill_shadow_bytes = 64 * 1024;
    CacheServer server(config);
    server.AddApp(1, 48 * 4096);
    Rng rng(21);
    ZipfTable zipf(6000, 1.1);
    uint64_t churn_key = 1 << 20;
    uint64_t gets = 0, hits = 0;
    for (int i = 0; i < 120000; ++i) {
      if (rng.NextBernoulli(0.7)) {
        const ItemMeta m = Item(zipf.Sample(rng), 12);
        ++gets;
        const Outcome o = server.Get(1, m);
        hits += o.hit ? 1 : 0;
        if (!o.hit) server.Set(1, m);
      } else {
        const ItemMeta m = Item(churn_key++, 1900);
        if (!server.Get(1, m).hit) server.Set(1, m);
      }
    }
    return static_cast<double>(hits) / static_cast<double>(gets);
  };
  const double fcfs = run(AllocationMode::kFcfs);
  const double cliffhanger = run(AllocationMode::kCliffhanger);
  EXPECT_GT(cliffhanger, fcfs + 0.03);
}

TEST(CacheServer, CrossAppClimbingMovesReservations) {
  ServerConfig config = ServerConfig{};
  config.allocation = AllocationMode::kCliffhanger;
  config.knobs.cross_app = true;
  config.page_size = 4096;
  CacheServer server(config);
  AppCache& hungry = server.AddApp(1, 32 * 4096);
  AppCache& idle = server.AddApp(2, 32 * 4096);
  Rng rng(23);
  ZipfTable zipf(8000, 0.9);
  // App 1 is under-provisioned and hot; app 2 idles with a tiny working set.
  for (int i = 0; i < 150000; ++i) {
    if (rng.NextBernoulli(0.9)) {
      const ItemMeta m = Item(zipf.Sample(rng), 12);
      if (!server.Get(1, m).hit) server.Set(1, m);
    } else {
      const ItemMeta m = Item(rng.NextBounded(16), 12);
      if (!server.Get(2, m).hit) server.Set(2, m);
    }
  }
  EXPECT_GT(hungry.reservation(), 32 * 4096u);
  EXPECT_LT(idle.reservation(), 32 * 4096u);
  EXPECT_EQ(hungry.reservation() + idle.reservation(), 64 * 4096u);
}

TEST(CacheServer, UncacheableItemsAreRejected) {
  ServerConfig config;
  CacheServer server(config);
  server.AddApp(1, 1 << 20);
  const Outcome o = server.Get(1, Item(1, 2 << 20));  // 2 MiB value
  EXPECT_FALSE(o.cacheable);
  server.Set(1, Item(1, 2 << 20));  // must not crash
}

TEST(CacheServer, DeleteRemovesItem) {
  ServerConfig config;
  CacheServer server(config);
  server.AddApp(1, 1 << 20);
  server.Set(1, Item(5));
  EXPECT_TRUE(server.Get(1, Item(5)).hit);
  server.Delete(1, Item(5));
  EXPECT_FALSE(server.Get(1, Item(5)).hit);
}

TEST(CacheServer, StatsAccumulate) {
  ServerConfig config;
  CacheServer server(config);
  server.AddApp(1, 1 << 20);
  server.Set(1, Item(1));
  (void)server.Get(1, Item(1));
  (void)server.Get(1, Item(2));
  const ClassStats stats = server.TotalStats();
  EXPECT_EQ(stats.gets, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.sets, 1u);
  EXPECT_NEAR(stats.hit_rate(), 0.5, 1e-12);
}

TEST(CacheServer, ShadowOverheadStaysUnderPaperBound) {
  // §5.7: worst case ~0.5 MB per application.
  ServerConfig config;
  config.allocation = AllocationMode::kCliffhanger;
  CacheServer server(config);
  AppCache& app = server.AddApp(1, 8 << 20);
  Rng rng(29);
  for (int i = 0; i < 100000; ++i) {
    const ItemMeta m = Item(rng.NextBounded(100000), 12);
    if (!server.Get(1, m).hit) server.Set(1, m);
  }
  EXPECT_LT(app.shadow_overhead_bytes(), 600u * 1024u);
}

// A value-mode GET hit can lose its slot inside the access that found it:
// a cliff-scaler step that collapses the partition empties the right
// queue, the hit key possibly with it. GetByKey must then serve nothing
// rather than the slot it found before the probe, and count a miss. The
// scaler here splits and collapses readily (a scan mixed with a hot set,
// no hill climbing to move the capacity), so such hits happen; every
// served hit must be the resident value, and the statistics must count
// exactly the hits served.
TEST(CacheServer, ValueHitWhoseSlotTheScalerDropsIsNotServed) {
  ServerConfig config;
  config.allocation = AllocationMode::kCliffhanger;
  config.knobs.hill_climbing = false;
  config.knobs.scaler.stable_accesses_to_engage = 0;
  config.knobs.scaler.exit_confirmations = 1;
  config.store_values = true;
  CacheServer server(config);
  server.AddApp(1, 1 << 20);
  constexpr uint32_t kNow = 1;
  const auto value_of = [](uint64_t key) {
    return std::string(100, static_cast<char>('a' + key % 26));
  };
  Rng rng(41);
  uint64_t dropped = 0;
  uint64_t served = 0;
  for (uint64_t i = 0; i < 400000; ++i) {
    const uint64_t key =
        i % 2 == 0 ? 100000 + (i / 2) % 6000 : rng.NextBounded(2000);
    // Peeks move no statistics and no recency.
    const bool resident = server.PeekByKey(1, key, kNow, 0).valid;
    const ValueOutcome vo = server.GetByKey(1, key, 14, kNow, 0);
    const ValueOutcome peek = server.PeekByKey(1, key, kNow, 0);
    if (vo.valid) {
      ++served;
      ASSERT_TRUE(peek.valid);
      ASSERT_EQ(vo.view.data, peek.view.data);
      ASSERT_EQ(std::string(vo.view.data, vo.view.size), value_of(key));
      continue;
    }
    if (resident) {
      // Resident before the GET, so the queue hit it; the access lost it.
      ++dropped;
      ASSERT_FALSE(peek.valid);
      ASSERT_FALSE(vo.outcome.hit);
    }
    const std::string value = value_of(key);
    ItemMeta item = Item(key, static_cast<uint32_t>(value.size()));
    item.now_s = kNow;
    server.SetValue(1, item, value.data(), 0, i + 1);
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(served, 0u);
  const ClassStats stats = server.TotalStats();
  EXPECT_EQ(stats.gets, 400000u);
  EXPECT_EQ(stats.hits, served);
  EXPECT_TRUE(server.CheckInvariants());
}

}  // namespace
}  // namespace cliffhanger
