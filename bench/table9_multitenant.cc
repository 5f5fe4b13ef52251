// Table 9 (this reproduction): thousand-tenant lifecycle under cross-app
// cliff scaling. For 20 / 200 / 2000 tenants the driver runs a warm phase,
// four churn waves (10% of the fleet departs, an equal number of fresh
// tenants arrives, traffic continues), and a steady phase, on a sharded
// server with cross-app climbing + cliff scaling enabled. A quarter of the
// tenants run scanning workloads whose working set overflows their
// reservation — the §3.3 case where the cross-app climber must see the
// concave-hull slope, not the raw (cliff-depressed) shadow gradient.
//
// Emitted per scale and phase: the aggregate hit rate and request count
// (bit-deterministic — seeded streams, clockless expiry, single thread;
// exact-match gated against bench/baselines/metrics/), the server-wide
// reserved bytes after the phase (pins reservation conservation through
// churn), and sampled per-op latency percentiles (wall-clock, exempt from
// the exact gate by field naming). The driver also self-checks
// ShardedCacheServer::CheckInvariants after every churn wave, so a
// reservation leak or arena corruption fails the run rather than skewing
// the metrics silently.
//
// Human table goes to stderr; stdout carries the machine-readable JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_server.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "workload/generators.h"

using namespace cliffhanger;
using namespace cliffhanger::bench;

namespace {

constexpr size_t kNumShards = 4;
constexpr int kChurnWaves = 4;
constexpr double kChurnFraction = 0.10;  // of the live fleet, per wave
constexpr size_t kLatencySampleEvery = 16;

// A quarter of the fleet scans past its reservation (cliff workloads); the
// rest are concave Zipf tenants of varying item sizes.
bool IsScanTenant(uint32_t id) { return id % 4 == 0; }

struct Tenant {
  uint32_t id = 0;
  uint64_t seed = 0;  // namespaces this tenant's keys
  uint32_t value_size = 0;
  uint64_t requests = 0;  // stream position (drives scan cycles)
  KeyStream stream;

  Tenant(uint32_t id_in, uint64_t suite_seed)
      : id(id_in),
        seed(HashCombine(suite_seed, id_in)),
        value_size(IsScanTenant(id_in) ? 240 : 64 + (id_in % 5) * 96),
        stream(SpecFor(id_in)) {}

  static StreamSpec SpecFor(uint32_t id_in) {
    StreamSpec spec;
    if (IsScanTenant(id_in)) {
      spec.kind = StreamKind::kScan;
      spec.universe = 600;  // ~150 KiB working set vs <=160 KiB reservation
      spec.scan_ramp = 0.2;
    } else {
      spec.kind = StreamKind::kZipf;
      spec.universe = 4000;
      spec.zipf_alpha = 0.9;
    }
    return spec;
  }
};

uint64_t ReservationFor(uint32_t id) {
  return (96 + (id % 3) * 32) * 1024ULL;  // 96/128/160 KiB
}

ShardedServerConfig MakeConfig() {
  ShardedServerConfig config;
  config.num_shards = kNumShards;
  config.server.allocation = AllocationMode::kCliffhanger;
  config.server.eviction = EvictionScheme::kLru;
  config.server.knobs.cross_app = true;
  // Tenants here are two orders of magnitude smaller than the paper-scale
  // apps, so the slab page, the shadow budget, and the scaler's engagement
  // thresholds are scaled down with them. The page size matters most: a
  // tenant's per-shard share (~24-40 KiB) is smaller than the default
  // 64 KiB slab page, so with default pages no class could ever be granted
  // memory and every GET would miss.
  config.server.page_size = 4096;
  config.server.hill_shadow_bytes = 32 * 1024;
  config.server.tail_items = 64;
  config.server.cliff_shadow_items = 64;
  config.server.knobs.scaler.min_active_items = 256;
  config.server.knobs.scaler.min_pointer_items = 16;
  config.server.knobs.scaler.stable_accesses_to_engage = 2000;
  config.server.seed = kSeed;
  return config;
}

struct PhaseResult {
  uint64_t gets = 0;
  uint64_t hits = 0;
  double seconds = 0.0;
  std::vector<double> sample_us;

  [[nodiscard]] double hit_rate() const {
    return gets == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(gets);
  }
  [[nodiscard]] double Percentile(double q) const {
    if (sample_us.empty()) return 0.0;
    const size_t idx = std::min(
        sample_us.size() - 1,
        static_cast<size_t>(q * static_cast<double>(sample_us.size())));
    return sample_us[idx];
  }
  [[nodiscard]] double Mean() const {
    if (sample_us.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : sample_us) sum += v;
    return sum / static_cast<double>(sample_us.size());
  }
};

// Runs `ops` GET-with-demand-fill requests round-robin-randomly over the
// live tenants, timing every kLatencySampleEvery-th op, and tallies the
// counted GETs and their hits into *result. The tally comes from the
// outcomes, not from the server's statistics: a departing tenant's
// statistics die with it, so a phase's stats delta could go backwards
// across churn.
void RunTraffic(ShardedCacheServer& server, std::deque<Tenant>& live,
                Rng& rng, uint64_t ops, PhaseResult* result) {
  using Clock = std::chrono::steady_clock;
  for (uint64_t i = 0; i < ops; ++i) {
    Tenant& tenant = live[rng.NextBounded(live.size())];
    const uint64_t rank = tenant.stream.Next(rng, tenant.requests++);
    ItemMeta item;
    item.key = HashCombine(tenant.seed, rank);
    item.key_size = 16;
    item.value_size = tenant.value_size;
    item.now_s = 1;
    const bool timed = i % kLatencySampleEvery == 0;
    const Clock::time_point start = timed ? Clock::now() : Clock::time_point();
    const Outcome outcome = server.Get(tenant.id, item);
    if (!outcome.hit && outcome.cacheable) server.Set(tenant.id, item);
    if (timed) {
      const std::chrono::duration<double, std::micro> us =
          Clock::now() - start;
      result->sample_us.push_back(us.count());
    }
    if (outcome.cacheable) {
      ++result->gets;
      if (outcome.hit) ++result->hits;
    }
  }
}

struct ScaleReport {
  size_t tenants = 0;
  PhaseResult warm, churn, steady;
  uint64_t reserved_warm = 0, reserved_churn = 0, reserved_steady = 0;
  uint64_t departed = 0, arrived = 0;
};

bool RunScale(size_t num_tenants, uint64_t phase_ops, ScaleReport* report) {
  ShardedCacheServer server(MakeConfig());
  Rng rng(HashCombine(kSeed, 0x7AB1E9 + num_tenants));

  std::deque<Tenant> live;
  uint32_t next_id = 1;
  const uint64_t suite_seed = HashCombine(kSeed, num_tenants);
  for (size_t i = 0; i < num_tenants; ++i, ++next_id) {
    server.AddApp(next_id, ReservationFor(next_id));
    live.emplace_back(next_id, suite_seed);
  }

  report->tenants = num_tenants;
  using Clock = std::chrono::steady_clock;

  // Warm: the climbers and scalers reach their operating points.
  Clock::time_point t0 = Clock::now();
  RunTraffic(server, live, rng, phase_ops, &report->warm);
  report->warm.seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  report->reserved_warm = server.TotalReservation();

  // Churn: waves of departures and arrivals under continuing traffic. The
  // oldest tenants leave; their reservations flow to the survivors
  // (cross-app redistribution) while the arrivals bring fresh memory.
  t0 = Clock::now();
  const size_t wave_size = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(num_tenants) *
                             kChurnFraction));
  for (int wave = 0; wave < kChurnWaves; ++wave) {
    for (size_t i = 0; i < wave_size && live.size() > 1; ++i) {
      const uint32_t departing = live.front().id;
      live.pop_front();
      server.RemoveApp(departing);
      ++report->departed;
    }
    for (size_t i = 0; i < wave_size; ++i, ++next_id) {
      server.AddApp(next_id, ReservationFor(next_id));
      live.emplace_back(next_id, suite_seed);
      ++report->arrived;
    }
    if (!server.CheckInvariants()) {
      std::fprintf(stderr, "invariant violation after churn wave %d at %zu "
                           "tenants\n", wave, num_tenants);
      return false;
    }
    RunTraffic(server, live, rng, phase_ops / kChurnWaves, &report->churn);
  }
  report->churn.seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  report->reserved_churn = server.TotalReservation();

  // Steady: the post-churn fleet settles.
  t0 = Clock::now();
  RunTraffic(server, live, rng, phase_ops / 2, &report->steady);
  report->steady.seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  report->reserved_steady = server.TotalReservation();
  if (!server.CheckInvariants()) {
    std::fprintf(stderr, "invariant violation at steady state, %zu tenants\n",
                 num_tenants);
    return false;
  }
  return true;
}

void EmitPhase(BenchJsonWriter& json, TablePrinter& table, size_t tenants,
               const char* phase, const PhaseResult& result,
               uint64_t reserved_bytes) {
  std::vector<double> sorted = result.sample_us;
  std::sort(sorted.begin(), sorted.end());
  PhaseResult view = result;
  view.sample_us = std::move(sorted);
  table.AddRow({std::to_string(tenants), phase,
                TablePrinter::Pct(view.hit_rate()),
                std::to_string(view.gets),
                std::to_string(reserved_bytes / 1024 / 1024) + " MiB",
                TablePrinter::Num(view.Percentile(0.50), 2) + " us",
                TablePrinter::Num(view.Percentile(0.99), 2) + " us"});
  json.AddRow("t" + std::to_string(tenants) + "/" + phase)
      .Add("tenants", static_cast<uint64_t>(tenants))
      .Add("phase", phase)
      .Add("hit_rate", view.hit_rate())
      .Add("gets", view.gets)
      .Add("reserved_bytes", reserved_bytes)
      .Add("seconds", view.seconds)
      .Add("mean_us", view.Mean())
      .Add("p50_us", view.Percentile(0.50))
      .Add("p95_us", view.Percentile(0.95))
      .Add("p99_us", view.Percentile(0.99));
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t app_requests = kAppTraceLen;
  if (!ParseAppRequests(argc, argv, &app_requests)) return 1;
  Banner("Table 9: multi-tenant lifecycle at 20/200/2000 tenants",
         "cross-app cliff scaling (paper 3.3) under tenant churn; "
         "hit rates exact-gated, latency fields informational",
         std::cerr);

  BenchJsonWriter json("table9_multitenant");
  json.Meta("app_requests", app_requests)
      .Meta("seed", kSeed)
      .Meta("mode", "cross_app_cliffhanger");
  TablePrinter table({"Tenants", "Phase", "Hit rate", "Gets", "Reserved",
                      "p50", "p99"});

  for (const size_t tenants : {size_t{20}, size_t{200}, size_t{2000}}) {
    ScaleReport report;
    if (!RunScale(tenants, app_requests, &report)) return 1;
    EmitPhase(json, table, tenants, "warm", report.warm,
              report.reserved_warm);
    EmitPhase(json, table, tenants, "churn", report.churn,
              report.reserved_churn);
    EmitPhase(json, table, tenants, "steady", report.steady,
              report.reserved_steady);
    std::fprintf(stderr, "  [%zu tenants: %llu departed, %llu arrived]\n",
                 tenants,
                 static_cast<unsigned long long>(report.departed),
                 static_cast<unsigned long long>(report.arrived));
  }
  table.Print(std::cerr);
  json.Print(std::cout);
  return 0;
}
