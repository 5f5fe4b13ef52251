// Tests for the alternative eviction schemes: ARC and the log-structured
// global LRU.
#include <gtest/gtest.h>

#include "cache/arc_queue.h"
#include "cache/global_log_queue.h"
#include "util/rng.h"

namespace cliffhanger {
namespace {

ItemMeta Item(uint64_t key, uint32_t value_size = 12) {
  ItemMeta m;
  m.key = key;
  m.key_size = 14;
  m.value_size = value_size;
  return m;
}

TEST(ArcQueue, BasicHitAfterAdmission) {
  ArcQueue q(64);
  q.SetCapacityBytes(10 * 64);
  EXPECT_FALSE(q.Get(Item(1)).hit);  // miss admits into T1
  EXPECT_TRUE(q.Get(Item(1)).hit);   // now resident, promoted to T2
  EXPECT_EQ(q.t2_items(), 1u);
  EXPECT_TRUE(q.CheckInvariants());
}

TEST(ArcQueue, EvictsUnderCapacity) {
  ArcQueue q(64);
  q.SetCapacityBytes(4 * 64);
  for (uint64_t k = 1; k <= 100; ++k) (void)q.Get(Item(k));
  EXPECT_LE(q.physical_items(), 4u);
  EXPECT_TRUE(q.CheckInvariants());
}

TEST(ArcQueue, GhostHitAdaptsTarget) {
  ArcQueue q(64);
  q.SetCapacityBytes(4 * 64);
  // Put something in T2 first (ARC only demotes T1 -> B1 via REPLACE, which
  // requires a resident T2 alternative; with T1 full and B1 empty, pure
  // one-timer streams evict T1's LRU outright — that *is* ARC).
  (void)q.Get(Item(100));
  (void)q.Get(Item(100));  // 100 now in T2
  // Stream one-timers: REPLACE demotes T1's LRU into B1.
  for (uint64_t k = 1; k <= 10; ++k) (void)q.Get(Item(k));
  const double p_before = q.p();
  EXPECT_GT(q.b1_items(), 0u);
  // Re-touch an item that fell into B1: p should grow (favor recency).
  (void)q.Get(Item(7));
  EXPECT_GE(q.p(), p_before);
  EXPECT_TRUE(q.CheckInvariants());
}

TEST(ArcQueue, ScanResistanceBeatsNothing) {
  // Frequently-reused hot set + one-timer scan: ARC should keep hitting the
  // hot set (the whole point of T2).
  ArcQueue q(64);
  q.SetCapacityBytes(16 * 64);
  Rng rng(5);
  uint64_t hot_hits = 0, hot_gets = 0;
  uint64_t scan_key = 1000;
  // Warm the hot set.
  for (uint64_t k = 1; k <= 8; ++k) (void)q.Get(Item(k));
  for (uint64_t k = 1; k <= 8; ++k) (void)q.Get(Item(k));
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBernoulli(0.5)) {
      const uint64_t k = 1 + rng.NextBounded(8);
      ++hot_gets;
      hot_hits += q.Get(Item(k)).hit ? 1 : 0;
    } else {
      (void)q.Get(Item(scan_key++));  // never repeats
    }
  }
  EXPECT_GT(static_cast<double>(hot_hits) / hot_gets, 0.95);
  EXPECT_TRUE(q.CheckInvariants());
}

TEST(ArcQueue, InvariantsUnderRandomWorkload) {
  ArcQueue q(64);
  q.SetCapacityBytes(32 * 64);
  Rng rng(9);
  for (int i = 0; i < 50000; ++i) {
    (void)q.Get(Item(rng.NextBounded(200)));
    if (i % 1000 == 0) {
      q.SetCapacityBytes((16 + rng.NextBounded(32)) * 64);
      ASSERT_TRUE(q.CheckInvariants()) << "iteration " << i;
    }
  }
  EXPECT_TRUE(q.CheckInvariants());
}

TEST(ArcQueue, DeleteRemoves) {
  ArcQueue q(64);
  q.SetCapacityBytes(8 * 64);
  (void)q.Get(Item(1));
  q.Delete(1);
  EXPECT_FALSE(q.Get(Item(1)).hit);
}

TEST(GlobalLogQueue, UsesExactFootprints) {
  GlobalLogQueue q(1000);
  // key 14 + value 100 + overhead 32 = 146 exact bytes (no chunk rounding).
  q.Fill(Item(1, 100));
  EXPECT_EQ(q.used_bytes(), 146u);
}

TEST(GlobalLogQueue, MixedSizesShareOneLru) {
  GlobalLogQueue q(400);
  q.Fill(Item(1, 100));  // 146 B
  q.Fill(Item(2, 100));  // 146 B
  q.Fill(Item(3, 100));  // 146 B -> evicts 1 (438 > 400)
  EXPECT_FALSE(q.Get(Item(1, 100)).hit);
  EXPECT_TRUE(q.Get(Item(2, 100)).hit);
}

TEST(GlobalLogQueue, LargeItemEvictsManySmall) {
  GlobalLogQueue q(1000);
  for (uint64_t k = 1; k <= 15; ++k) q.Fill(Item(k, 14));  // 60 B each
  EXPECT_EQ(q.physical_items(), 15u);
  q.Fill(Item(100, 900));  // 946 B: nearly everything must go
  EXPECT_LE(q.used_bytes(), 1000u);
  EXPECT_TRUE(q.Get(Item(100, 900)).hit);
}

TEST(GlobalLogQueue, ResizeEvicts) {
  GlobalLogQueue q(1000);
  for (uint64_t k = 1; k <= 10; ++k) q.Fill(Item(k, 14));
  q.SetCapacityBytes(120);
  EXPECT_LE(q.used_bytes(), 120u);
  EXPECT_EQ(q.physical_items(), 2u);
}

}  // namespace
}  // namespace cliffhanger
