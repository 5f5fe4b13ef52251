// Property-style parameterized tests (TEST_P) for the paper's design
// claims:
//   1. Two evenly split queues at half traffic behave like one big queue
//      (§4.2 — the basis of the cliff scaler's no-op behaviour on concave
//      curves).
//   2. The shadow-queue hit rate approximates the hit-rate curve gradient
//      (§3.4 — the basis of hill climbing).
//   3. LRU simulation agrees with Mattson stack distances at any capacity
//      (inclusion property).
//   4. The Talus split realizes the concave hull on step-cliff workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/hit_rate_curve.h"
#include "analysis/stack_distance.h"
#include "cache/arc_queue.h"
#include "cache/global_log_queue.h"
#include "cache/slab_class_queue.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "workload/zipf.h"

namespace cliffhanger {
namespace {

ItemMeta Item(uint64_t key) {
  ItemMeta m;
  m.key = key;
  m.key_size = 14;
  m.value_size = 12;
  return m;
}

SlabQueueConfig QueueCfg() {
  SlabQueueConfig config;
  config.chunk_size = 64;
  config.tail_items = 16;
  config.cliff_shadow_items = 16;
  config.hill_shadow_bytes = 64 * 64;
  return config;
}

// --- Property 1: even split == single queue (hit-rate-wise) ---

struct SplitParam {
  double zipf_alpha;
  uint64_t universe;
  uint64_t capacity_items;
};

class EvenSplitEquivalence : public ::testing::TestWithParam<SplitParam> {};

TEST_P(EvenSplitEquivalence, HitRatesMatchWithinTolerance) {
  const SplitParam p = GetParam();
  ZipfTable zipf(p.universe, p.zipf_alpha);

  PartitionConfig pc;
  pc.queue = QueueCfg();
  PartitionedSlabQueue single(pc);
  single.SetCapacityBytes(p.capacity_items * 64);

  PartitionedSlabQueue split(pc);
  split.SetCapacityBytes(p.capacity_items * 64);
  split.EnablePartition(true);  // even halves, ratio 0.5

  Rng rng(1234);
  uint64_t gets = 0, single_hits = 0, split_hits = 0;
  for (int i = 0; i < 150000; ++i) {
    const ItemMeta item = Item(zipf.Sample(rng));
    ++gets;
    const GetResult a = single.Get(item);
    if (a.hit) {
      ++single_hits;
    } else {
      single.Fill(item);
    }
    const GetResult b = split.Get(item);
    if (b.hit) {
      ++split_hits;
    } else {
      split.Fill(item);
    }
  }
  const double single_rate = static_cast<double>(single_hits) / gets;
  const double split_rate = static_cast<double>(split_hits) / gets;
  EXPECT_NEAR(split_rate, single_rate, 0.03)
      << "alpha=" << p.zipf_alpha << " universe=" << p.universe
      << " capacity=" << p.capacity_items;
}

INSTANTIATE_TEST_SUITE_P(
    ZipfSweep, EvenSplitEquivalence,
    ::testing::Values(SplitParam{0.7, 20000, 2000},
                      SplitParam{0.9, 20000, 2000},
                      SplitParam{1.1, 20000, 2000},
                      SplitParam{0.9, 50000, 4000},
                      SplitParam{1.0, 10000, 5000},
                      SplitParam{1.2, 5000, 1000}));

// --- Property 2: shadow hit rate ~ request-weighted gradient ---

struct GradientParam {
  double zipf_alpha;
  uint64_t universe;
  uint64_t capacity_items;
  uint64_t shadow_items;
};

class ShadowGradient : public ::testing::TestWithParam<GradientParam> {};

TEST_P(ShadowGradient, ShadowHitRateApproximatesCurveSlope) {
  const GradientParam p = GetParam();
  ZipfTable zipf(p.universe, p.zipf_alpha);

  SlabQueueConfig config = QueueCfg();
  config.tail_items = 0;
  config.cliff_shadow_items = 0;
  config.hill_shadow_bytes = p.shadow_items * 64;
  SlabClassQueue queue(config);
  queue.SetCapacityItems(p.capacity_items);

  StackDistanceAnalyzer analyzer;
  Rng rng(99);
  uint64_t gets = 0, shadow_hits = 0;
  // Warm up, then measure.
  for (int i = 0; i < 50000; ++i) {
    const ItemMeta item = Item(zipf.Sample(rng));
    if (!queue.Get(item).hit) queue.Fill(item);
  }
  for (int i = 0; i < 300000; ++i) {
    const ItemMeta item = Item(zipf.Sample(rng));
    ++gets;
    const GetResult r = queue.Get(item);
    if (r.region == HitRegion::kHillShadow) ++shadow_hits;
    if (!r.hit) queue.Fill(item);
    analyzer.Record(item.key);
  }
  // Ground truth: h(c + s) - h(c) from exact stack distances.
  const PiecewiseCurve curve =
      CurveFromHistogram(analyzer.histogram(), analyzer.total_accesses(),
                         1 << 20);
  const double expected =
      curve.Eval(static_cast<double>(p.capacity_items + p.shadow_items)) -
      curve.Eval(static_cast<double>(p.capacity_items));
  const double observed = static_cast<double>(shadow_hits) / gets;
  EXPECT_NEAR(observed, expected, std::max(0.01, expected * 0.35))
      << "alpha=" << p.zipf_alpha << " cap=" << p.capacity_items;
}

INSTANTIATE_TEST_SUITE_P(
    GradientSweep, ShadowGradient,
    ::testing::Values(GradientParam{0.8, 20000, 2000, 500},
                      GradientParam{1.0, 20000, 2000, 500},
                      GradientParam{1.0, 20000, 5000, 1000},
                      GradientParam{1.2, 10000, 1000, 250},
                      GradientParam{0.9, 40000, 8000, 1000}));

// --- Property 3: LRU inclusion — simulated hit rate equals the stack
// distance CDF at the queue's capacity ---

class LruInclusion : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LruInclusion, SimulationMatchesMattson) {
  const uint64_t capacity = GetParam();
  SlabQueueConfig config = QueueCfg();
  config.tail_items = 0;
  config.cliff_shadow_items = 0;
  config.hill_shadow_bytes = 0;
  SlabClassQueue queue(config);
  queue.SetCapacityItems(capacity);

  StackDistanceAnalyzer analyzer;
  ZipfTable zipf(15000, 0.95);
  Rng rng(7);
  uint64_t gets = 0, hits = 0;
  for (int i = 0; i < 200000; ++i) {
    const ItemMeta item = Item(zipf.Sample(rng));
    ++gets;
    const GetResult r = queue.Get(item);
    hits += r.hit ? 1 : 0;
    if (!r.hit) queue.Fill(item);
    analyzer.Record(item.key);
  }
  const PiecewiseCurve curve = CurveFromHistogram(
      analyzer.histogram(), analyzer.total_accesses(), 1 << 20);
  EXPECT_NEAR(static_cast<double>(hits) / gets,
              curve.Eval(static_cast<double>(capacity)), 0.01)
      << "capacity=" << capacity;
}

INSTANTIATE_TEST_SUITE_P(CapacitySweep, LruInclusion,
                         ::testing::Values(500, 1000, 2000, 4000, 8000));

// --- Property 4: a manual Talus split beats a single queue on a cliff ---

struct CliffParam {
  uint64_t scan_size;       // items in the cyclic scan
  uint64_t capacity_items;  // below the cliff
};

class ManualTalusSplit : public ::testing::TestWithParam<CliffParam> {};

TEST_P(ManualTalusSplit, PartitionBeatsSingleQueueOnScan) {
  const CliffParam p = GetParam();
  ASSERT_LT(p.capacity_items, p.scan_size);

  PartitionConfig pc;
  pc.queue = QueueCfg();

  // Single queue at capacity < scan size: LRU yields ~0 hits.
  PartitionedSlabQueue single(pc);
  single.SetCapacityBytes(p.capacity_items * 64);

  // Ideal Talus split for a step cliff at scan_size: anchors 0 and
  // scan_size. Left queue vanishes; right queue simulates the full scan by
  // taking a fraction capacity/scan_size of the requests. A 6% margin on
  // the simulated size keeps the right queue's key subset safely under its
  // physical capacity (hash routing is binomial, and a subset exceeding
  // capacity thrashes to zero hits).
  PartitionedSlabQueue talus(pc);
  talus.SetCapacityBytes(p.capacity_items * 64);
  talus.EnablePartition(true);
  const double rho = 1.0 - static_cast<double>(p.capacity_items) /
                               (1.06 * static_cast<double>(p.scan_size));
  talus.SetRatio(rho);  // rho of traffic to the (empty) left queue
  talus.SetPartitionItems(0, p.capacity_items);

  uint64_t gets = 0, single_hits = 0, talus_hits = 0;
  for (int cycle = 0; cycle < 30; ++cycle) {
    for (uint64_t k = 0; k < p.scan_size; ++k) {
      const ItemMeta item = Item(k);
      ++gets;
      if (single.Get(item).hit) {
        ++single_hits;
      } else {
        single.Fill(item);
      }
      if (talus.Get(item).hit) {
        ++talus_hits;
      } else {
        talus.Fill(item);
      }
    }
  }
  const double single_rate = static_cast<double>(single_hits) / gets;
  const double talus_rate = static_cast<double>(talus_hits) / gets;
  const double hull_rate = static_cast<double>(p.capacity_items) /
                           static_cast<double>(p.scan_size);
  EXPECT_LT(single_rate, 0.02);
  // The split should realize most of the concave-hull value.
  EXPECT_GT(talus_rate, hull_rate * 0.75)
      << "scan=" << p.scan_size << " cap=" << p.capacity_items;
}

INSTANTIATE_TEST_SUITE_P(CliffSweep, ManualTalusSplit,
                         ::testing::Values(CliffParam{4000, 2000},
                                           CliffParam{4000, 1000},
                                           CliffParam{8000, 3000},
                                           CliffParam{2000, 1500},
                                           CliffParam{10000, 2500}));

// --- Property 5: shard routing is stable, in-range, and balanced ---

TEST(ShardRouting, SameKeyAlwaysRoutesToSameShard) {
  Rng rng(0x5AAD);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t key = rng();
    const size_t first = ShardIndexForKey(key, 8);
    EXPECT_LT(first, 8u);
    EXPECT_EQ(ShardIndexForKey(key, 8), first);
  }
  // Edge keys and the degenerate shard count stay in range; the routing
  // function is constexpr, so compile-time and run-time agree by checking
  // a constant-evaluated result against a runtime-evaluated one.
  constexpr size_t kMaxKeyShard = ShardIndexForKey(~uint64_t{0}, 16);
  for (const uint64_t key : {uint64_t{0}, ~uint64_t{0}, uint64_t{1}}) {
    EXPECT_EQ(ShardIndexForKey(key, 1), 0u);
    EXPECT_LT(ShardIndexForKey(key, 16), 16u);
  }
  volatile uint64_t runtime_max_key = ~uint64_t{0};
  EXPECT_EQ(ShardIndexForKey(runtime_max_key, 16), kMaxKeyShard);
}

class ShardBalance : public ::testing::TestWithParam<size_t> {};

// Both sequential key ids (what the trace generators emit) and random
// 64-bit keys must spread within 2x of the ideal per-shard load — the
// routing hash, not the key distribution, provides the balance.
TEST_P(ShardBalance, LoadWithinTwiceIdealFor10kKeys) {
  const size_t num_shards = GetParam();
  constexpr size_t kKeys = 20000;
  const double ideal = static_cast<double>(kKeys) / num_shards;

  std::vector<size_t> sequential(num_shards, 0);
  std::vector<size_t> random(num_shards, 0);
  Rng rng(0xBA1A);
  for (size_t i = 0; i < kKeys; ++i) {
    ++sequential[ShardIndexForKey(i, num_shards)];
    ++random[ShardIndexForKey(rng(), num_shards)];
  }
  for (size_t s = 0; s < num_shards; ++s) {
    EXPECT_LT(sequential[s], 2.0 * ideal)
        << "sequential keys, shard " << s << "/" << num_shards;
    EXPECT_GT(sequential[s], 0.5 * ideal)
        << "sequential keys, shard " << s << "/" << num_shards;
    EXPECT_LT(random[s], 2.0 * ideal)
        << "random keys, shard " << s << "/" << num_shards;
    EXPECT_GT(random[s], 0.5 * ideal)
        << "random keys, shard " << s << "/" << num_shards;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardBalance,
                         ::testing::Values(2, 3, 4, 8, 16));

// --- Property 6: expiry-driven erases preserve queue invariants ---
//
// Lazy expiry splices nodes out of arbitrary queue positions — not just the
// eviction tail — which is exactly the operation most likely to corrupt the
// arena/flat-index structures. Run a TTL-heavy churn against each of the
// five queue types and check the full structural invariants after EVERY
// erase a Get or Touch observes (a physical-item count that dropped on a
// miss is an expiry-driven erase; eviction only happens on Fill).
template <typename Queue, typename CheckFn>
void ExpiryChurn(Queue& queue, CheckFn check, const char* what) {
  Rng rng(0xE49B2);
  uint32_t now = 100;
  int expiry_erases = 0;
  for (int i = 0; i < 6000; ++i) {
    if (i % 5 == 0) ++now;
    ItemMeta item = Item(rng.NextBounded(400));
    item.now_s = now;
    const uint64_t action = rng.NextBounded(10);
    if (action < 5) {
      // Short TTLs so a steady fraction of the queue is expired at any time.
      item.expiry_s = now + 1 + static_cast<uint32_t>(rng.NextBounded(6));
      queue.Fill(item);
    } else if (action < 8) {
      const size_t before = queue.physical_items();
      const GetResult r = queue.Get(item);
      if (!r.hit && queue.physical_items() < before) {
        ASSERT_TRUE(check()) << what << ": invariants broken after "
                             << "expiry-driven erase on Get, op " << i;
        ++expiry_erases;
      }
    } else {
      item.expiry_s = kKeepExpiry;
      const size_t before = queue.physical_items();
      if (!queue.Touch(item) && queue.physical_items() < before) {
        ASSERT_TRUE(check()) << what << ": invariants broken after "
                             << "expiry-driven erase on Touch, op " << i;
        ++expiry_erases;
      }
    }
  }
  // The property is vacuous unless the churn actually exercised the path.
  EXPECT_GT(expiry_erases, 50) << what;
}

TEST(ExpiryInvariants, AllFiveQueuesSurviveExpiryChurn) {
  SlabClassQueue slab(QueueCfg());
  slab.SetCapacityBytes(300 * 64);
  ExpiryChurn(slab, [&] { return slab.CheckInvariants(); }, "SlabClassQueue");

  PartitionConfig pc;
  pc.queue = QueueCfg();
  PartitionedSlabQueue partitioned(pc);
  partitioned.SetCapacityBytes(300 * 64);
  partitioned.EnablePartition(true);
  ExpiryChurn(partitioned, [&] { return partitioned.CheckInvariants(); },
              "PartitionedSlabQueue");

  ArcQueue arc(64);
  arc.SetCapacityBytes(300 * 64);
  ExpiryChurn(arc, [&] { return arc.CheckInvariants(); }, "ArcQueue");

  GlobalLogQueue log(300 * 64);
  ExpiryChurn(log, [&] { return log.CheckInvariants(); }, "GlobalLogQueue");
}

}  // namespace
}  // namespace cliffhanger
