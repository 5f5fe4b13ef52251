// Table 6: per-operation latency overhead of the shadow-queue machinery in
// the paper's worst case — a unique-key all-miss stream (the cache is full,
// every GET walks the shadow queues, every SET evicts).
//
// Self-timed (no Google Benchmark dependency): measures the GET-miss,
// SET-miss and GET-hit paths with the algorithms off (baseline), hill
// climbing only, and full Cliffhanger. The overhead percentages correspond
// to the paper's Table 6 rows (paper: 1.4%-4.8% on misses, ~0 on hits).
// The GET_hit_value rows time the same hits with the values stored
// (ServerConfig::store_values): CacheServer::GetByKey, the path a daemon
// GET takes, which also fetches the payload's view from the value arena.
//
// Emits machine-readable JSON on stdout through bench::BenchJsonWriter (one
// object, `results` array, same shape as table7_throughput) for benchmark
// regression tracking via bench/compare_bench.py; human-readable progress
// goes to stderr.
//
// Flags: --requests N  measured requests per row (default 400000)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "sim/experiment.h"
#include "workload/facebook_workload.h"

namespace cliffhanger {
namespace {

constexpr uint32_t kAppId = 1;
constexpr uint64_t kReservation = 64ULL << 20;
constexpr uint64_t kWarmupSets = 400000;  // fill to capacity (paper: 100 s)

struct Row {
  std::string name;
  std::string op;    // "GET_miss", "SET_miss", "GET_hit", "GET_hit_value"
  std::string mode;  // "default", "hill_only", "cliffhanger"
  uint64_t requests = 0;
  double seconds = 0.0;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  double overhead_pct = 0.0;  // vs the "default" row of the same op
};

const char* ModeName(int mode) {
  switch (mode) {
    case 1:
      return "hill_only";
    case 2:
      return "cliffhanger";
    default:
      return "default";
  }
}

ServerConfig ConfigFor(int mode) {
  switch (mode) {
    case 1:
      return HillClimbingOnlyConfig();
    case 2:
      return CliffhangerServerConfig();
    default:
      return DefaultServerConfig();
  }
}

FacebookWorkload MissWorkload() {
  FacebookWorkloadConfig wl;
  wl.all_miss = true;
  wl.app_id = kAppId;
  return FacebookWorkload(wl);
}

void Warmup(CacheServer& server, FacebookWorkload& workload) {
  for (uint64_t i = 0; i < kWarmupSets; ++i) {
    const Request r = workload.Next();
    server.Set(kAppId, {r.key, r.key_size, r.value_size});
  }
}

Row Finish(Row row, std::chrono::steady_clock::time_point begin,
           std::chrono::steady_clock::time_point end, uint64_t requests) {
  row.requests = requests;
  row.seconds = std::chrono::duration<double>(end - begin).count();
  row.ns_per_op = row.seconds * 1e9 / static_cast<double>(requests);
  row.ops_per_sec = static_cast<double>(requests) / row.seconds;
  row.name = row.op + "/" + row.mode;
  return row;
}

// Worst case: all-miss GETs on a full cache (every GET walks the shadows).
Row RunGetMiss(int mode, uint64_t requests) {
  CacheServer server(ConfigFor(mode));
  server.AddApp(kAppId, kReservation);
  FacebookWorkload workload = MissWorkload();
  Warmup(server, workload);
  uint64_t sink = 0;
  const auto begin = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < requests; ++i) {
    const Request r = workload.Next();
    const Outcome o = server.Get(kAppId, {r.key, r.key_size, r.value_size});
    sink += o.hit ? 1 : 0;
  }
  const auto end = std::chrono::steady_clock::now();
  // Keep the measured loop from being optimized away.
  if (sink > requests) std::fprintf(stderr, "impossible\n");
  Row row;
  row.op = "GET_miss";
  row.mode = ModeName(mode);
  return Finish(row, begin, end, requests);
}

// All-miss SETs on a full cache (every SET evicts).
Row RunSetMiss(int mode, uint64_t requests) {
  CacheServer server(ConfigFor(mode));
  server.AddApp(kAppId, kReservation);
  FacebookWorkload workload = MissWorkload();
  Warmup(server, workload);
  const auto begin = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < requests; ++i) {
    const Request r = workload.Next();
    server.Set(kAppId, {r.key, r.key_size, r.value_size});
  }
  const auto end = std::chrono::steady_clock::now();
  Row row;
  row.op = "SET_miss";
  row.mode = ModeName(mode);
  return Finish(row, begin, end, requests);
}

// Hit path: hot keys — shadow queues are never consulted on a hit.
Row RunGetHit(int mode, uint64_t requests) {
  CacheServer server(ConfigFor(mode));
  server.AddApp(kAppId, kReservation);
  for (uint64_t k = 0; k < 1024; ++k) {
    server.Set(kAppId, {k, 16, 100});
  }
  uint64_t sink = 0;
  uint64_t k = 0;
  const auto begin = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < requests; ++i) {
    const Outcome o = server.Get(kAppId, {k++ & 1023, 16, 100});
    sink += o.hit ? 1 : 0;
  }
  const auto end = std::chrono::steady_clock::now();
  if (sink != requests) std::fprintf(stderr, "warning: hit path missed\n");
  Row row;
  row.op = "GET_hit";
  row.mode = ModeName(mode);
  return Finish(row, begin, end, requests);
}

// Value-mode hit path: the hot keys of RunGetHit with 100-byte values in
// the arena, read through GetByKey as the network front reads them.
Row RunGetHitValue(int mode, uint64_t requests) {
  ServerConfig config = ConfigFor(mode);
  config.store_values = true;
  CacheServer server(config);
  server.AddApp(kAppId, kReservation);
  const std::string value(100, 'v');
  for (uint64_t k = 0; k < 1024; ++k) {
    ItemMeta item{k, 16, static_cast<uint32_t>(value.size())};
    item.now_s = 1;
    server.SetValue(kAppId, item, value.data(), 0, k + 1);
  }
  uint64_t sink = 0;
  uint64_t k = 0;
  const auto begin = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < requests; ++i) {
    const ValueOutcome vo =
        server.GetByKey(kAppId, k++ & 1023, 16, /*now_s=*/1, /*flush_at_s=*/0);
    sink += vo.valid ? vo.view.size : 0;
  }
  const auto end = std::chrono::steady_clock::now();
  if (sink != requests * value.size()) {
    std::fprintf(stderr, "warning: value hit path missed\n");
  }
  Row row;
  row.op = "GET_hit_value";
  row.mode = ModeName(mode);
  return Finish(row, begin, end, requests);
}

int Main(int argc, char** argv) {
  uint64_t requests = 400000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--requests N]\n", argv[0]);
      return 1;
    }
  }
  if (requests == 0) {
    std::fprintf(stderr, "--requests must be > 0\n");
    return 1;
  }

  bench::BenchJsonWriter json("table6_latency");
  using Runner = Row (*)(int, uint64_t);
  const Runner runners[] = {&RunGetMiss, &RunSetMiss, &RunGetHit,
                            &RunGetHitValue};
  for (const Runner run : runners) {
    double baseline_ns = 0.0;
    for (int mode = 0; mode < 3; ++mode) {
      Row row = run(mode, requests);
      if (mode == 0) {
        baseline_ns = row.ns_per_op;
      } else if (baseline_ns > 0.0) {
        row.overhead_pct = (row.ns_per_op / baseline_ns - 1.0) * 100.0;
      }
      std::fprintf(stderr, "table6: %-22s %8.1f ns/op (%+.2f%%)\n",
                   row.name.c_str(), row.ns_per_op, row.overhead_pct);
      json.AddRow(row.name)
          .Add("op", row.op)
          .Add("mode", row.mode)
          .Add("requests", row.requests)
          .Add("seconds", row.seconds)
          .Add("ns_per_op", row.ns_per_op)
          .Add("ops_per_sec", row.ops_per_sec)
          .Add("overhead_pct", row.overhead_pct);
    }
  }
  json.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace cliffhanger

int main(int argc, char** argv) { return cliffhanger::Main(argc, argv); }
