// Thread-safety battery for ShardedCacheServer: several threads hammer
// Get/Set/Delete on one shared server (run under ThreadSanitizer in CI via
// the `concurrency` ctest label), then the test asserts the invariants that
// concurrency must not break:
//   - every cacheable operation is counted exactly once (no lost updates),
//   - the merged snapshot equals the sum of the per-shard and of the
//     per-app snapshots,
//   - every app's per-shard shares stay exactly the largest-remainder split
//     AddApp made: memory moves only inside a shard, never across shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "core/sharded_server.h"
#include "sim/experiment.h"
#include "util/rng.h"
#include "workload/zipf.h"

namespace cliffhanger {
namespace {

constexpr uint32_t kAppA = 1;
constexpr uint32_t kAppB = 2;
constexpr uint64_t kReservationA = 4ULL << 20;  // 4 MiB
constexpr uint64_t kReservationB = 2ULL << 20;  // 2 MiB

ItemMeta MakeItem(uint64_t key) {
  ItemMeta item;
  item.key = key;
  item.key_size = 16;
  item.value_size = (key % 2 == 0) ? 64 : 400;
  return item;
}

void ExpectStatsEqual(const ClassStats& a, const ClassStats& b,
                      const char* label) {
  EXPECT_EQ(a.gets, b.gets) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.sets, b.sets) << label;
  EXPECT_EQ(a.tail_hits, b.tail_hits) << label;
  EXPECT_EQ(a.cliff_shadow_hits, b.cliff_shadow_hits) << label;
  EXPECT_EQ(a.hill_shadow_hits, b.hill_shadow_hits) << label;
}

// The split invariant under test: shard i holds AddApp's largest-remainder
// share of the registered total — floor(total / N), plus one byte on the
// first total % N shards — so the shares also sum to the total.
void ExpectAddAppSplit(const ShardedCacheServer& server, uint32_t app_id,
                       uint64_t total) {
  const size_t n = server.num_shards();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(server.AppShardReservation(app_id, i),
              total / n + (i < total % n ? 1 : 0))
        << "app " << app_id << ", shard " << i;
  }
}

ShardedServerConfig HammerConfig(size_t num_shards) {
  ShardedServerConfig config;
  config.server = CliffhangerServerConfig();
  config.num_shards = num_shards;
  return config;
}

// Worker mixing demand-fill GETs, explicit SETs and DELETEs over a Zipf
// key population, tallying what it issued so the main thread can check
// nothing was lost.
struct WorkerTally {
  uint64_t gets = 0;
  uint64_t sets = 0;
};

WorkerTally Hammer(ShardedCacheServer& server, uint32_t thread_id,
                   size_t num_ops, const ZipfTable& zipf) {
  Rng rng(0xBEEF0000ULL + thread_id);
  WorkerTally tally;
  for (size_t i = 0; i < num_ops; ++i) {
    const uint32_t app_id = rng.NextBernoulli(0.7) ? kAppA : kAppB;
    const ItemMeta item =
        MakeItem(HashCombine(app_id, zipf.Sample(rng)));
    const double dice = rng.NextDouble();
    if (dice < 0.80) {
      const Outcome outcome = server.Get(app_id, item);
      ++tally.gets;
      if (!outcome.hit && outcome.cacheable) {
        server.Set(app_id, item);
        ++tally.sets;
      }
    } else if (dice < 0.95) {
      server.Set(app_id, item);
      ++tally.sets;
    } else {
      server.Delete(app_id, item);
    }
  }
  return tally;
}

TEST(ShardedServerTest, ConcurrentHammerKeepsInvariants) {
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 25000;
  ShardedCacheServer server(HammerConfig(/*num_shards=*/4));
  server.AddApp(kAppA, kReservationA);
  server.AddApp(kAppB, kReservationB);

  const ZipfTable zipf(20000, 0.9);
  std::vector<WorkerTally> tallies(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        tallies[t] = Hammer(server, static_cast<uint32_t>(t),
                            kOpsPerThread, zipf);
      });
    }
    for (auto& thread : threads) thread.join();
  }

  // No lost updates: the counted operations equal the issued ones.
  WorkerTally issued;
  for (const WorkerTally& tally : tallies) {
    issued.gets += tally.gets;
    issued.sets += tally.sets;
  }
  const ClassStats total = server.MergedStats();
  EXPECT_EQ(total.gets, issued.gets);
  EXPECT_EQ(total.sets, issued.sets);
  EXPECT_GT(total.hits, 0u);
  EXPECT_LT(total.hits, total.gets);

  // The merged snapshot, the per-shard sums and the per-app sums all agree
  // once writers are quiescent.
  ClassStats per_shard_sum;
  for (size_t i = 0; i < server.num_shards(); ++i) {
    per_shard_sum += server.ShardStats(i);
  }
  ExpectStatsEqual(total, per_shard_sum, "total vs per-shard sum");
  ClassStats per_app_sum;
  per_app_sum += server.AppStats(kAppA);
  per_app_sum += server.AppStats(kAppB);
  ExpectStatsEqual(total, per_app_sum, "total vs per-app sum");

  // Each tenant keeps its registered total and AddApp's split of it.
  EXPECT_EQ(server.AppReservation(kAppA), kReservationA);
  EXPECT_EQ(server.AppReservation(kAppB), kReservationB);
  ExpectAddAppSplit(server, kAppA, kReservationA);
  ExpectAddAppSplit(server, kAppB, kReservationB);
}

// The hammer's stream, replayed on one thread with reservations small
// enough that the climbers trade memory inside every shard: no shard's
// share of either app moves, however uneven the shards' shadow signals.
TEST(ShardedServerTest, ShardSplitHoldsUnderMemoryPressure) {
  constexpr uint64_t kSmallA = 1ULL << 20;    // 1 MiB
  constexpr uint64_t kSmallB = 512ULL << 10;  // 512 KiB
  ShardedCacheServer server(HammerConfig(/*num_shards=*/4));
  server.AddApp(kAppA, kSmallA);
  server.AddApp(kAppB, kSmallB);

  const ZipfTable zipf(20000, 0.9);
  for (uint32_t stream = 0; stream < 4; ++stream) {
    Hammer(server, stream, 25000, zipf);
    ExpectAddAppSplit(server, kAppA, kSmallA);
    ExpectAddAppSplit(server, kAppB, kSmallB);
  }

  // The split held under pressure, not for want of it: every shard missed
  // and saw hill-shadow hits, the signal its climber moves memory on.
  for (size_t i = 0; i < server.num_shards(); ++i) {
    const ClassStats shard = server.ShardStats(i);
    EXPECT_LT(shard.hits * 10, shard.gets * 9) << "shard " << i;
    EXPECT_GT(shard.hill_shadow_hits, 0u) << "shard " << i;
  }
  EXPECT_TRUE(server.CheckInvariants());
}

// Readers taking snapshots race the writers; under ThreadSanitizer this
// validates the snapshot paths, and the monotonicity of the merged gets
// count and the consistency of each merged snapshot are asserted directly.
TEST(ShardedServerTest, SnapshotsAreSafeAndMonotonicDuringTraffic) {
  constexpr size_t kWriters = 2;
  constexpr size_t kOpsPerThread = 15000;
  ShardedCacheServer server(HammerConfig(/*num_shards=*/2));
  server.AddApp(kAppA, kReservationA);
  server.AddApp(kAppB, kReservationB);

  const ZipfTable zipf(10000, 0.9);
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    uint64_t last_gets = 0;
    while (!done.load(std::memory_order_acquire)) {
      const ClassStats total = server.MergedStats();
      if (total.gets < last_gets || total.hits > total.gets) {
        failed.store(true);
        break;
      }
      last_gets = total.gets;
      (void)server.ShardStats(0);
      (void)server.AppReservation(kAppA);
    }
  });
  {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (size_t t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        Hammer(server, 100 + static_cast<uint32_t>(t), kOpsPerThread, zipf);
      });
    }
    for (auto& thread : writers) thread.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(failed.load());
  ExpectAddAppSplit(server, kAppA, kReservationA);
  ExpectAddAppSplit(server, kAppB, kReservationB);
}

// --- Batch API equivalence -------------------------------------------------

struct GetOp {
  uint32_t app_id;
  ItemMeta item;
};
enum class MutationKind { kSet, kTouch, kDelete };
struct MutationOp {
  uint32_t app_id;
  MutationKind kind;
  ItemMeta item;
};

// Runs `op` through `server`'s verb of that kind (CacheServer and
// ShardedCacheServer name them alike). Returns what Set or Touch returned;
// false for a Delete.
template <typename Server>
bool Apply(Server& server, const MutationOp& op) {
  switch (op.kind) {
    case MutationKind::kSet:
      return server.Set(op.app_id, op.item);
    case MutationKind::kTouch:
      return server.Touch(op.app_id, op.item);
    case MutationKind::kDelete:
      server.Delete(op.app_id, op.item);
      return false;
  }
  return false;
}

// Groups a burst the way CacheAdapter::HandleBatch and the layer ledger do:
// a stable sort of the op indexes by ShardForKey, then one BeginBatch per
// shard touched, running `run(batch, op_index)` for each op in it.
template <typename Op, typename Run>
void RunShardGrouped(ShardedCacheServer& server, const std::vector<Op>& ops,
                     Run run) {
  const auto shard_of = [&](size_t i) {
    return server.ShardForKey(ops[i].item.key);
  };
  std::vector<size_t> order(ops.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shard_of(a) < shard_of(b);
  });
  size_t i = 0;
  while (i < order.size()) {
    const size_t shard = shard_of(order[i]);
    ShardedCacheServer::ShardBatch batch = server.BeginBatch(shard);
    for (; i < order.size() && shard_of(order[i]) == shard; ++i) {
      run(batch, order[i]);
    }
  }
}

// Two identical servers replay the same scripted op stream, one through the
// routed Get/Set/Touch/Delete and one shard-grouped through ShardBatch in
// bursts of awkward sizes. Batching groups ops by shard but must change
// nothing observable: every per-op result, and the counters at every
// aggregation level, must be bit-identical.
TEST(ShardedServerTest, BatchedOpsMatchSequentialBitExactly) {
  const ShardedServerConfig config = HammerConfig(/*num_shards=*/4);
  ShardedCacheServer sequential(config);
  ShardedCacheServer batched(config);
  for (ShardedCacheServer* server : {&sequential, &batched}) {
    server->AddApp(kAppA, kReservationA);
    server->AddApp(kAppB, kReservationB);
  }

  const ZipfTable zipf(3000, 0.9);
  Rng rng(0xBA7C4);
  // Alternate mutation bursts (demand fills + touches + erases) and get
  // bursts; awkward burst sizes so shard runs split at odd boundaries.
  const size_t kBurstSizes[] = {1, 7, 37, 64, 3, 50};
  size_t burst_pick = 0;
  std::vector<GetOp> gets;
  std::vector<MutationOp> mutations;
  for (int round = 0; round < 300; ++round) {
    const size_t burst = kBurstSizes[burst_pick++ % 6];
    const bool mutate_round = round % 2 == 1;
    gets.clear();
    mutations.clear();
    for (size_t i = 0; i < burst; ++i) {
      const uint32_t app = rng.NextBernoulli(0.7) ? kAppA : kAppB;
      const ItemMeta item = MakeItem(zipf.Sample(rng));
      if (mutate_round) {
        const uint64_t pick = rng.NextBounded(10);
        const MutationKind kind = pick < 7   ? MutationKind::kSet
                                  : pick < 9 ? MutationKind::kTouch
                                             : MutationKind::kDelete;
        mutations.push_back({app, kind, item});
      } else {
        gets.push_back({app, item});
      }
    }
    if (mutate_round) {
      std::vector<char> batch_out(mutations.size());
      RunShardGrouped(batched, mutations,
                      [&](ShardedCacheServer::ShardBatch& batch, size_t i) {
                        batch_out[i] = Apply(
                            batch.server(mutations[i].item.key), mutations[i]);
                      });
      for (size_t i = 0; i < mutations.size(); ++i) {
        EXPECT_EQ(batch_out[i] != 0, Apply(sequential, mutations[i]))
            << "round " << round;
      }
    } else {
      std::vector<Outcome> batch_out(gets.size());
      RunShardGrouped(batched, gets,
                      [&](ShardedCacheServer::ShardBatch& batch, size_t i) {
                        batch_out[i] = batch.server(gets[i].item.key)
                                           .Get(gets[i].app_id, gets[i].item);
                      });
      for (size_t i = 0; i < gets.size(); ++i) {
        const Outcome seq_out = sequential.Get(gets[i].app_id, gets[i].item);
        EXPECT_EQ(batch_out[i].hit, seq_out.hit) << "round " << round;
        EXPECT_EQ(batch_out[i].region, seq_out.region) << "round " << round;
      }
    }
  }

  ExpectStatsEqual(sequential.MergedStats(), batched.MergedStats(), "merged");
  ExpectStatsEqual(sequential.AppStats(kAppA), batched.AppStats(kAppA),
                   "appA");
  ExpectStatsEqual(sequential.AppStats(kAppB), batched.AppStats(kAppB),
                   "appB");
  for (size_t shard = 0; shard < sequential.num_shards(); ++shard) {
    ExpectStatsEqual(sequential.ShardStats(shard), batched.ShardStats(shard),
                     "shard");
  }
  // The stream must actually have exercised misses and shadow traffic for
  // the equality to mean anything.
  const ClassStats merged = batched.MergedStats();
  EXPECT_GT(merged.gets, 0u);
  EXPECT_LT(merged.hits, merged.gets);
}

// Concurrent batch hammer: several threads push overlapping batches at one
// server (the TSan job sanitizes this via the `concurrency` label). The
// shards' statistics must not lose updates: the exact MergedStats tally has
// to equal the sum of what threads issued.
TEST(ShardedServerTest, ConcurrentBatchesKeepCountersExact) {
  ShardedCacheServer server(HammerConfig(/*num_shards=*/4));
  server.AddApp(kAppA, kReservationA);
  server.AddApp(kAppB, kReservationB);

  constexpr int kThreads = 4;
  constexpr size_t kBursts = 120;
  constexpr size_t kBurstOps = 48;
  const ZipfTable zipf(2000, 0.9);
  std::atomic<uint64_t> issued_gets{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xC0FFEEULL + static_cast<uint64_t>(t));
      std::vector<GetOp> gets;
      std::vector<MutationOp> fills;
      std::vector<Outcome> outcomes(kBurstOps);
      uint64_t local_gets = 0;
      for (size_t b = 0; b < kBursts; ++b) {
        gets.clear();
        for (size_t i = 0; i < kBurstOps; ++i) {
          const uint32_t app = rng.NextBernoulli(0.5) ? kAppA : kAppB;
          gets.push_back({app, MakeItem(zipf.Sample(rng))});
        }
        RunShardGrouped(server, gets,
                        [&](ShardedCacheServer::ShardBatch& batch, size_t i) {
                          outcomes[i] = batch.server(gets[i].item.key)
                                            .Get(gets[i].app_id, gets[i].item);
                        });
        local_gets += gets.size();
        // Demand-fill the misses through a second round of batches.
        fills.clear();
        for (size_t i = 0; i < gets.size(); ++i) {
          if (!outcomes[i].hit) {
            fills.push_back(
                {gets[i].app_id, MutationKind::kSet, gets[i].item});
          }
        }
        RunShardGrouped(server, fills,
                        [&](ShardedCacheServer::ShardBatch& batch, size_t i) {
                          Apply(batch.server(fills[i].item.key), fills[i]);
                        });
      }
      issued_gets.fetch_add(local_gets);
    });
  }
  for (auto& thread : threads) thread.join();

  const ClassStats merged = server.MergedStats();
  EXPECT_EQ(merged.gets, issued_gets.load());
  ExpectAddAppSplit(server, kAppA, kReservationA);
  ExpectAddAppSplit(server, kAppB, kReservationB);
}

// Tenant churn races traffic: one thread adds and removes apps (holding
// all shard locks per wave) while workers hammer the whole id space —
// including ids mid-removal and ids never added, which must soft-fail.
// Afterwards every queue/arena invariant must hold, each surviving
// tenant's shards must still hold AddApp's split of its reservation, the
// server-wide total must match the arithmetic of the churn, and each
// survivor must have counted exactly the GETs that reached it.
TEST(ShardedServerTest, TenantChurnUnderTrafficKeepsInvariants) {
  constexpr size_t kThreads = 3;
  constexpr size_t kOpsPerThread = 20000;
  constexpr uint32_t kInitialApps = 8;
  constexpr uint32_t kWaves = 24;
  ShardedCacheServer server(HammerConfig(/*num_shards=*/4));
  const auto reservation_for = [](uint32_t id) {
    return (1ULL << 20) + id * 4096;
  };
  std::vector<uint32_t> live;
  uint64_t expected_total = 0;
  for (uint32_t id = 1; id <= kInitialApps; ++id) {
    server.AddApp(id, reservation_for(id));
    live.push_back(id);
    expected_total += reservation_for(id);
  }

  const ZipfTable zipf(20000, 0.9);
  constexpr uint32_t kIdSpace = kInitialApps + kWaves + 4;
  // Per worker, per app id: GETs that reached a registered app (their
  // outcome is cacheable) and their hits.
  std::vector<std::vector<uint64_t>> gets(
      kThreads, std::vector<uint64_t>(kIdSpace + 1, 0));
  std::vector<std::vector<uint64_t>> hits = gets;
  std::atomic<size_t> running{kThreads};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0xC0FFEE00ULL + t);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        const auto app_id =
            static_cast<uint32_t>(1 + rng.NextBounded(kIdSpace));
        const ItemMeta item =
            MakeItem(HashCombine(app_id, zipf.Sample(rng)));
        const Outcome outcome = server.Get(app_id, item);
        if (outcome.cacheable) {
          ++gets[t][app_id];
          if (outcome.hit) ++hits[t][app_id];
        }
        if (!outcome.hit && outcome.cacheable) server.Set(app_id, item);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  // Churn on the main thread while the workers run: retire the oldest
  // tenant, admit a fresh one.
  uint32_t next_id = kInitialApps + 1;
  for (uint32_t wave = 0; wave < kWaves; ++wave) {
    const uint32_t departing = live.front();
    live.erase(live.begin());
    EXPECT_TRUE(server.RemoveApp(departing));
    expected_total -= reservation_for(departing);
    server.AddApp(next_id, reservation_for(next_id));
    live.push_back(next_id);
    expected_total += reservation_for(next_id);
    ++next_id;
    if (running.load(std::memory_order_acquire) == 0) {
      // Workers already done — keep churning anyway; the remaining waves
      // still exercise removal with zero in-flight traffic.
    }
    std::this_thread::yield();
  }
  for (auto& worker : workers) worker.join();

  EXPECT_TRUE(server.CheckInvariants());
  EXPECT_EQ(server.TotalReservation(), expected_total);
  for (const uint32_t id : live) {
    EXPECT_EQ(server.AppReservation(id), reservation_for(id));
    ExpectAddAppSplit(server, id, reservation_for(id));
  }
  // Ops that raced a registration or a removal soft-failed uncounted, so
  // each survivor's statistics are exactly the GETs that reached it.
  uint64_t all_hits = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    for (const uint64_t h : hits[t]) all_hits += h;
  }
  EXPECT_GT(all_hits, 0u);
  for (const uint32_t id : live) {
    uint64_t app_gets = 0;
    uint64_t app_hits = 0;
    for (size_t t = 0; t < kThreads; ++t) {
      app_gets += gets[t][id];
      app_hits += hits[t][id];
    }
    const ClassStats stats = server.AppStats(id);
    EXPECT_EQ(stats.gets, app_gets) << "app " << id;
    EXPECT_EQ(stats.hits, app_hits) << "app " << id;
  }
}

}  // namespace
}  // namespace cliffhanger
