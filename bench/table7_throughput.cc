// Table 7: throughput overhead when the cache is full and CPU bound, for
// three GET/SET mixes (96.7/3.3 = Facebook's ETC mix, 50/50, 10/90),
// comparing the default server against Cliffhanger — extended with a
// multi-threaded variant that drives a ShardedCacheServer with 1/2/4/8
// threads, one contiguous partition of the same Zipf replay per thread,
// so the speedup over the single-thread baseline is measured, not asserted.
// The adapter_burst rows run the same replay one layer up: pre-parsed
// 64-command bursts of memcached ASCII through one net::CacheAdapter
// (HandleBatch + ReleaseBurstPins, a socket worker's cycle without the
// socket) over a 4-shard server storing values, at 1/2/4 threads; each
// thread runs its share of the bursts kAdapterPasses times. Their speedup
// is against the 1-thread adapter row.
//
// Emits machine-readable JSON on stdout through bench::BenchJsonWriter (one
// object, `results` array) for benchmark regression tracking;
// human-readable progress goes to stderr.
//
// Flags: --requests N     per-mix measured requests   (default 200000)
//        --mt-requests N  zipf_mt/adapter_burst trace length (default 400000)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_server.h"
#include "net/ascii_protocol.h"
#include "net/cache_adapter.h"
#include "net/socket_server.h"
#include "sim/experiment.h"
#include "workload/facebook_workload.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace cliffhanger {
namespace {

constexpr uint32_t kAppId = 1;
constexpr uint64_t kReservation = 64ULL << 20;
constexpr size_t kNumShards = 8;
// GET fraction of the multi-threaded Zipf replay (ETC-like mix); single
// source of truth for the trace, the runs, and the JSON metadata.
constexpr double kMtGetFraction = 0.967;

struct Row {
  std::string name;
  std::string section;  // "table7" (paper mixes), "zipf_mt" (sharded) or
                        // "adapter_burst"
  std::string mode;     // "default" or "cliffhanger"
  double get_fraction = 0.0;
  size_t threads = 1;
  size_t shards = 1;
  uint64_t fill = 0;  // warm-up SETs before timing (table7 rows only)
  uint64_t requests = 0;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
  double speedup = 0.0;  // vs the single-thread baseline; 0 = not applicable
};

double Secs(std::chrono::steady_clock::time_point begin,
            std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

// --- Part 1: the paper's Table 7 (single-thread, all-miss worst case) ---

Row RunMix(double get_fraction, bool cliffhanger, uint64_t requests) {
  const ServerConfig config =
      cliffhanger ? CliffhangerServerConfig() : DefaultServerConfig();
  CacheServer server(config);
  server.AddApp(kAppId, kReservation);

  FacebookWorkloadConfig wl;
  wl.all_miss = true;  // worst case: every request misses / evicts
  wl.get_fraction = get_fraction;
  wl.app_id = kAppId;
  FacebookWorkload workload(wl);
  // Fill to capacity; scaled with the measured portion so a reduced
  // --requests smoke run is not dominated by warm-up.
  const uint64_t fill = std::min<uint64_t>(300000, 3 * requests);
  for (uint64_t i = 0; i < fill; ++i) {
    const Request r = workload.Next();
    server.Set(kAppId, {r.key, r.key_size, r.value_size});
  }

  const auto begin = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < requests; ++i) {
    const Request r = workload.Next();
    const ItemMeta item{r.key, r.key_size, r.value_size};
    if (r.is_get()) {
      const Outcome o = server.Get(kAppId, item);
      if (!o.hit && o.cacheable) server.Set(kAppId, item);
    } else {
      server.Set(kAppId, item);
    }
  }
  const auto end = std::chrono::steady_clock::now();

  Row row;
  char name[64];
  std::snprintf(name, sizeof(name), "mix_%.3gget/%s", get_fraction * 100,
                cliffhanger ? "cliffhanger" : "default");
  row.name = name;
  row.section = "table7";
  row.mode = cliffhanger ? "cliffhanger" : "default";
  row.get_fraction = get_fraction;
  row.fill = fill;
  row.requests = requests;
  row.seconds = Secs(begin, end);
  row.ops_per_sec = static_cast<double>(requests) / row.seconds;
  return row;
}

// --- Part 2: multi-threaded Zipf replay over the sharded server ---

// One fixed Zipf trace (ETC-like GET/SET mix, two slab classes, via the
// shared canonical builder); thread t replays the t-th contiguous
// partition. The single-thread baseline replays the identical trace
// through a plain CacheServer.
Trace MakeZipfTrace(uint64_t requests, double get_fraction) {
  ZipfTraceSpec spec;
  spec.requests = requests;
  spec.universe = 200000;
  spec.zipf_alpha = 0.99;
  spec.seed = 0x7AB7E7;
  spec.app_id = kAppId;
  spec.get_fraction = get_fraction;
  return MakeZipfMixTrace(spec);
}

template <typename ServerT>
void ReplayRange(ServerT& server, const Trace& trace, size_t begin,
                 size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const Request& r = trace[i];
    const ItemMeta item{r.key, r.key_size, r.value_size};
    if (r.is_get()) {
      const Outcome o = server.Get(r.app_id, item);
      if (!o.hit && o.cacheable) server.Set(r.app_id, item);
    } else {
      server.Set(r.app_id, item);
    }
  }
}

Row RunSingleThreadBaseline(const Trace& trace, bool cliffhanger) {
  const ServerConfig config =
      cliffhanger ? CliffhangerServerConfig() : DefaultServerConfig();
  CacheServer server(config);
  server.AddApp(kAppId, kReservation);
  const auto begin = std::chrono::steady_clock::now();
  ReplayRange(server, trace, 0, trace.size());
  const auto end = std::chrono::steady_clock::now();

  Row row;
  row.name = std::string("zipf_replay/single_thread/") +
             (cliffhanger ? "cliffhanger" : "default");
  row.section = "zipf_mt";
  row.mode = cliffhanger ? "cliffhanger" : "default";
  row.get_fraction = kMtGetFraction;
  row.requests = trace.size();
  row.seconds = Secs(begin, end);
  row.ops_per_sec = static_cast<double>(trace.size()) / row.seconds;
  return row;
}

Row RunSharded(const Trace& trace, bool cliffhanger, size_t threads,
               double baseline_ops_per_sec) {
  ShardedServerConfig config;
  config.server =
      cliffhanger ? CliffhangerServerConfig() : DefaultServerConfig();
  config.num_shards = kNumShards;
  ShardedCacheServer server(config);
  server.AddApp(kAppId, kReservation);

  const size_t chunk = (trace.size() + threads - 1) / threads;
  const auto begin = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      const size_t lo = t * chunk;
      const size_t hi = std::min(trace.size(), lo + chunk);
      workers.emplace_back(
          [&server, &trace, lo, hi] { ReplayRange(server, trace, lo, hi); });
    }
    for (auto& worker : workers) worker.join();
  }
  const auto end = std::chrono::steady_clock::now();

  Row row;
  char name[64];
  std::snprintf(name, sizeof(name), "zipf_replay/sharded/%s/t%zu",
                cliffhanger ? "cliffhanger" : "default", threads);
  row.name = name;
  row.section = "zipf_mt";
  row.mode = cliffhanger ? "cliffhanger" : "default";
  row.get_fraction = kMtGetFraction;
  row.threads = threads;
  row.shards = kNumShards;
  row.requests = trace.size();
  row.seconds = Secs(begin, end);
  row.ops_per_sec = static_cast<double>(trace.size()) / row.seconds;
  if (baseline_ops_per_sec > 0) {
    row.speedup = row.ops_per_sec / baseline_ops_per_sec;
  }
  return row;
}

// --- Part 3: the same replay through the network adapter's burst path ---

constexpr size_t kAdapterShards = 4;
constexpr size_t kBurstCommands = net::kMaxBurstFrames;
// Each thread runs its share of the replay this many times, so a row at the
// CI size (100000 requests) lasts long enough to time.
constexpr size_t kAdapterPasses = 8;

// Request text and its parsed commands, which alias the text.
struct ParsedRequests {
  std::string text;
  std::vector<net::Command> cmds;
};

ParsedRequests Parse(std::string text) {
  ParsedRequests parsed;
  parsed.text = std::move(text);
  net::AsciiParser parser;
  const std::string_view buffer(parsed.text);
  for (size_t offset = 0; offset < buffer.size();) {
    net::Command cmd;
    size_t consumed = 0;
    const net::ParseStatus status =
        parser.Next(buffer.substr(offset), &consumed, &cmd);
    offset += consumed;
    if (status != net::ParseStatus::kCommand) break;
    parsed.cmds.push_back(std::move(cmd));
  }
  return parsed;
}

// The key id in hex, zero-padded to the trace's key size.
void AppendKey(std::string* text, const Request& r) {
  char hex[17];
  const int n = std::snprintf(hex, sizeof(hex), "%llx",
                              static_cast<unsigned long long>(r.key));
  if (r.key_size > static_cast<uint32_t>(n)) {
    text->append(r.key_size - static_cast<uint32_t>(n), '0');
  }
  text->append(hex, static_cast<size_t>(n));
}

void AppendSet(std::string* text, const Request& r) {
  *text += "set ";
  AppendKey(text, r);
  *text += " 0 0 " + std::to_string(r.value_size) + "\r\n";
  text->append(r.value_size, 'v');
  *text += "\r\n";
}

// One SET per distinct key, in first-seen order: the cache warm-up.
ParsedRequests MakeFillRequests(const Trace& trace) {
  std::string text;
  std::unordered_set<uint64_t> seen;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (seen.insert(trace[i].key).second) AppendSet(&text, trace[i]);
  }
  return Parse(std::move(text));
}

// The trace itself: a get per GET, a set per SET.
ParsedRequests MakeReplayRequests(const Trace& trace) {
  std::string text;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Request& r = trace[i];
    if (r.is_get()) {
      text += "get ";
      AppendKey(&text, r);
      text += "\r\n";
    } else {
      AppendSet(&text, r);
    }
  }
  return Parse(std::move(text));
}

void RunBursts(net::CacheAdapter& adapter,
               const std::vector<net::Command>& cmds, size_t begin,
               size_t end) {
  std::vector<net::ResponseSegment> segments;
  for (size_t i = begin; i < end; i += kBurstCommands) {
    for (net::ResponseSegment& seg : segments) seg.Reset();
    adapter.HandleBatch(cmds.data() + i, std::min(kBurstCommands, end - i),
                        &segments);
    adapter.ReleaseBurstPins();
  }
}

Row RunAdapterBursts(const ParsedRequests& fill, const ParsedRequests& replay,
                     size_t threads, double baseline_ops_per_sec) {
  ShardedServerConfig config;
  config.server = CliffhangerServerConfig();
  config.server.store_values = true;
  config.num_shards = kAdapterShards;
  ShardedCacheServer server(config);
  server.AddApp(kAppId, kReservation);
  net::CacheAdapterConfig adapter_config;
  adapter_config.default_app_id = kAppId;
  net::CacheAdapter adapter(&server, adapter_config);
  RunBursts(adapter, fill.cmds, 0, fill.cmds.size());

  // Thread t runs the t-th contiguous share of the bursts.
  const size_t count = replay.cmds.size();
  const size_t bursts = (count + kBurstCommands - 1) / kBurstCommands;
  const size_t chunk = (bursts + threads - 1) / threads * kBurstCommands;
  const auto begin = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      const size_t lo = std::min(count, t * chunk);
      const size_t hi = std::min(count, lo + chunk);
      workers.emplace_back([&adapter, &replay, lo, hi] {
        for (size_t pass = 0; pass < kAdapterPasses; ++pass) {
          RunBursts(adapter, replay.cmds, lo, hi);
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  const auto end = std::chrono::steady_clock::now();

  Row row;
  row.name = "adapter_burst/cliffhanger/t" + std::to_string(threads);
  row.section = "adapter_burst";
  row.mode = "cliffhanger";
  row.get_fraction = kMtGetFraction;
  row.threads = threads;
  row.shards = kAdapterShards;
  row.requests = count * kAdapterPasses;
  row.seconds = Secs(begin, end);
  row.ops_per_sec = static_cast<double>(row.requests) / row.seconds;
  row.speedup = baseline_ops_per_sec > 0
                    ? row.ops_per_sec / baseline_ops_per_sec
                    : 1.0;
  return row;
}

void PrintJson(const std::vector<Row>& rows) {
  bench::BenchJsonWriter json("table7_throughput");
  const unsigned cpus = std::thread::hardware_concurrency();
  json.Meta("hardware_concurrency", static_cast<uint64_t>(cpus));
  if (cpus <= 1) {
    // Keep the interpretation with the data: on one CPU the multi-thread
    // rows show lock/routing overhead, not scaling, and any downstream
    // comparison tool must not read speedup_vs_single_thread as scaling.
    json.Meta("caveat",
              "single-CPU host: sharded rows measure lock/routing "
              "overhead, not scaling");
  }
  for (const Row& r : rows) {
    bench::JsonObject& row = json.AddRow(r.name)
                                 .Add("section", r.section)
                                 .Add("mode", r.mode)
                                 .Add("get_fraction", r.get_fraction)
                                 .Add("threads", r.threads)
                                 .Add("shards", r.shards)
                                 .Add("requests", r.requests)
                                 .Add("seconds", r.seconds)
                                 .Add("ops_per_sec", r.ops_per_sec);
    // Reduced smoke runs shrink the warm-up and may not reach the
    // full-cache regime; record the fill so runs at different sizes are
    // never naively compared.
    if (r.fill > 0) row.Add("fill", r.fill);
    if (r.speedup > 0) row.Add("speedup_vs_single_thread", r.speedup);
  }
  json.Print(std::cout);
}

int Main(int argc, char** argv) {
  uint64_t requests = 200000;
  uint64_t mt_requests = 400000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--mt-requests") == 0 && i + 1 < argc) {
      mt_requests = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--requests N] [--mt-requests N]\n", argv[0]);
      return 1;
    }
  }
  if (requests == 0 || mt_requests == 0) {
    std::fprintf(stderr, "--requests / --mt-requests must be > 0\n");
    return 1;
  }

  std::vector<Row> rows;
  for (const double get_fraction : {0.967, 0.5, 0.1}) {
    for (const bool cliffhanger : {false, true}) {
      std::fprintf(stderr, "table7: mix %.3g%% GET, %s...\n",
                   get_fraction * 100,
                   cliffhanger ? "cliffhanger" : "default");
      rows.push_back(RunMix(get_fraction, cliffhanger, requests));
    }
  }

  const Trace trace = MakeZipfTrace(mt_requests, kMtGetFraction);
  for (const bool cliffhanger : {false, true}) {
    std::fprintf(stderr, "zipf_mt: single-thread baseline, %s...\n",
                 cliffhanger ? "cliffhanger" : "default");
    const Row baseline = RunSingleThreadBaseline(trace, cliffhanger);
    rows.push_back(baseline);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      std::fprintf(stderr, "zipf_mt: sharded, %s, %zu thread(s)...\n",
                   cliffhanger ? "cliffhanger" : "default", threads);
      rows.push_back(
          RunSharded(trace, cliffhanger, threads, baseline.ops_per_sec));
    }
  }
  {
    std::fprintf(stderr, "adapter_burst: parsing the replay...\n");
    const ParsedRequests fill = MakeFillRequests(trace);
    const ParsedRequests replay = MakeReplayRequests(trace);
    double baseline = 0.0;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      std::fprintf(stderr, "adapter_burst: cliffhanger, %zu thread(s)...\n",
                   threads);
      rows.push_back(RunAdapterBursts(fill, replay, threads, baseline));
      if (threads == 1) baseline = rows.back().ops_per_sec;
    }
  }
  PrintJson(rows);
  return 0;
}

}  // namespace
}  // namespace cliffhanger

int main(int argc, char** argv) { return cliffhanger::Main(argc, argv); }
