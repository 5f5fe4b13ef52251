// Smoke test: a CacheServer in every AllocationMode serves a small Zipf
// workload end-to-end, populates its hit-rate statistics, and never hands a
// tenant more memory than its reservation.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/slab_geometry.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace cliffhanger {
namespace {

constexpr uint32_t kAppId = 1;
constexpr uint64_t kReservation = 4ULL << 20;  // 4 MiB
constexpr size_t kRequests = 60000;

// Zipf GET stream over two value sizes (the shared canonical builder), so
// the server exercises (at least) two slab classes.
Trace MakeZipfTrace() {
  ZipfTraceSpec spec;
  spec.requests = kRequests;
  spec.app_id = kAppId;
  return MakeZipfMixTrace(spec);
}

struct ModeCase {
  AllocationMode mode;
  const char* name;
};

// gtest's printout of a parameter is part of each listed test name; without
// this it would print the raw bytes, `name`'s address included, so the
// names would change from build to build.
void PrintTo(const ModeCase& c, std::ostream* os) { *os << c.name; }

class AllocationModeSmoke : public ::testing::TestWithParam<ModeCase> {};

TEST_P(AllocationModeSmoke, ZipfReplayPopulatesStatsAndConservesCapacity) {
  ServerConfig config = GetParam().mode == AllocationMode::kCliffhanger
                            ? CliffhangerServerConfig()
                            : DefaultServerConfig();
  config.allocation = GetParam().mode;

  CacheServer server(config);
  AppCache& cache = server.AddApp(kAppId, kReservation);
  if (GetParam().mode == AllocationMode::kStatic) {
    // Split the reservation across the two classes the trace touches.
    const int small_class = SlabClassFor(16 + 64 + kItemOverhead);
    const int large_class = SlabClassFor(16 + 400 + kItemOverhead);
    ASSERT_NE(small_class, large_class);
    cache.SetStaticAllocation({{small_class, kReservation / 2},
                               {large_class, kReservation / 2}});
  }

  const Trace trace = MakeZipfTrace();
  const SimResult result = Replay(server, trace);

  // Hit-rate statistics are populated: every GET was counted, some hit and
  // some missed (the universe exceeds what the reservation can hold).
  EXPECT_EQ(result.total.gets, kRequests);
  EXPECT_GT(result.total.hits, 0u);
  EXPECT_LT(result.total.hits, result.total.gets);
  EXPECT_GT(result.hit_rate(), 0.0);
  EXPECT_LT(result.hit_rate(), 1.0);
  EXPECT_GT(result.app_hit_rate(kAppId), 0.0);

  // Per-class stats exist for both value-size populations.
  const auto infos = cache.ClassInfos();
  ASSERT_GE(infos.size(), 2u);
  for (const auto& info : infos) {
    EXPECT_GT(info.stats.gets, 0u) << "class " << info.slab_class;
    EXPECT_LE(info.used_bytes, info.capacity_bytes)
        << "class " << info.slab_class;
  }

  // Capacity conservation: the queues plus the unallocated pool account for
  // exactly the tenant's reservation, and no more.
  EXPECT_EQ(cache.allocated_bytes() + cache.free_bytes(), kReservation);
  EXPECT_LE(cache.allocated_bytes(), kReservation);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, AllocationModeSmoke,
    ::testing::Values(ModeCase{AllocationMode::kFcfs, "Fcfs"},
                      ModeCase{AllocationMode::kStatic, "Static"},
                      ModeCase{AllocationMode::kCliffhanger, "Cliffhanger"}),
    [](const ::testing::TestParamInfo<ModeCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cliffhanger
