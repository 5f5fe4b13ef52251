// Table 8 (beyond the paper): end-to-end network performance of the
// memcached-ASCII front-end. A closed-loop load generator — C connections,
// each a thread with its own AsciiClient replaying a seeded Zipf mix with
// demand-fill semantics (get; on miss, set) — measures throughput and
// per-op latency percentiles through the full stack: parser, event loop,
// adapter, ShardedCacheServer.
//
// By default the server runs in-process on an ephemeral loopback port; with
// --connect HOST:PORT the load is aimed at an external cliffhangerd (the CI
// smoke job does exactly that). Emits one JSON object on stdout in the
// table7 shape ({"benchmark", "hardware_concurrency", "results": [...]});
// progress goes to stderr.
//
// Flags: --connect HOST:PORT  drive an external server (default: in-process)
//        --connections LIST   comma-separated connection counts, e.g.
//                             1,64,256,1024 — one scaling row per count
//                             (default: sweep 1,2,4)
//        --requests N         logical requests per connection (default 20000)
//        --universe N         key universe per connection stream (default 20000)
//        --get-fraction F     GET share of the mix (default 0.967)
//        --value-size LIST    comma-separated fixed value sizes, e.g.
//                             64,1024,65536 — one row per (connections,
//                             size) pair named netperf/cN/vS, overriding
//                             the trace's own value sizes; makes the
//                             GET-hit serving path's byte-movement cost
//                             visible at each payload size
//                             (default: trace-driven sizes)
//        --mix                blended-verb mode: get/set/incr/touch/cas with
//                             per-op latency percentile rows (same JSON
//                             shape; rows named netperf/mix/cN/<op>)
//        --workers N          in-process server worker threads (default 2)
//        --shards N           in-process server shards (default 4)
//        --mode M             default | cliffhanger (default cliffhanger)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <map>

#include "core/sharded_server.h"
#include "net/ascii_client.h"
#include "net/cache_adapter.h"
#include "net/replay_keys.h"
#include "net/socket_server.h"
#include "sim/experiment.h"
#include "util/argparse.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace cliffhanger {
namespace {

constexpr uint32_t kAppId = 1;
constexpr uint64_t kReservation = 32ULL << 20;

struct Options {
  std::string connect_host;  // empty = in-process server
  uint16_t connect_port = 0;
  std::vector<size_t> connections;  // empty = sweep {1, 2, 4}
  uint64_t requests = 20000;
  uint64_t universe = 20000;
  double get_fraction = 0.967;
  // Fixed value sizes to sweep (empty = the trace's own sizes). Each size
  // gets its own row per connection count.
  std::vector<uint32_t> value_sizes;
  bool mix = false;  // blended-verb mode with per-op latency rows
  size_t workers = 2;
  size_t shards = 4;
  bool cliffhanger_mode = true;
  uint64_t seed = 0x7AB8E7;
};

struct Row {
  std::string name;
  size_t connections = 0;
  uint32_t value_size = 0;  // 0 = trace-driven sizes
  uint64_t ops = 0;          // client calls actually issued (gets + sets)
  uint64_t hits = 0;
  uint64_t gets = 0;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

struct WorkerResult {
  std::vector<double> latencies_us;  // one sample per client call
  uint64_t hits = 0;
  uint64_t gets = 0;
  uint64_t errors = 0;
};

// With a fixed value size the sweep measures the GET-hit serving path at
// that payload, so the working set must actually fit: cap the key universe
// so universe * (value + per-item overhead) stays within half the
// reservation. Deterministic, and recorded nowhere else — the row's
// hit_rate field shows the effect.
uint64_t UniverseForValueSize(const Options& opt, uint32_t value_size) {
  if (value_size == 0) return opt.universe;
  const uint64_t fits = kReservation / 2 / (value_size + 64);
  return std::max<uint64_t>(16, std::min<uint64_t>(opt.universe, fits));
}

// One connection's closed loop: replay a private Zipf stream demand-fill.
WorkerResult RunConnection(const std::string& host, uint16_t port,
                           const Options& opt, uint32_t value_size,
                           size_t conn_index) {
  WorkerResult result;
  net::AsciiClient client;
  if (!client.Connect(host, port)) {
    result.errors = opt.requests;
    std::fprintf(stderr, "netperf: connect failed: %s\n",
                 client.last_error().c_str());
    return result;
  }

  ZipfTraceSpec spec;
  spec.requests = opt.requests;
  spec.universe = UniverseForValueSize(opt, value_size);
  spec.zipf_alpha = 0.99;
  spec.seed = opt.seed + 0x1000 * (conn_index + 1);
  spec.app_id = kAppId;
  spec.get_fraction = opt.get_fraction;
  const Trace trace = MakeZipfMixTrace(spec);

  result.latencies_us.reserve(trace.size() + trace.size() / 4);
  using clock = std::chrono::steady_clock;
  for (const Request& r : trace) {
    const std::string key = net::ReplayKeyString(r.key);
    const uint32_t vsize = value_size != 0 ? value_size : r.value_size;
    if (r.is_get()) {
      ++result.gets;
      const auto begin = clock::now();
      const auto value = client.Get(key);
      result.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(clock::now() - begin)
              .count());
      if (value.has_value()) {
        ++result.hits;
      } else {
        const std::string data = net::ReplayValueBytes(r.key, vsize);
        const auto set_begin = clock::now();
        if (client.Set(key, data) != net::AsciiClient::StoreResult::kStored) {
          ++result.errors;
        }
        result.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(clock::now() -
                                                      set_begin)
                .count());
      }
    } else {
      const std::string data = net::ReplayValueBytes(r.key, vsize);
      const auto begin = clock::now();
      if (client.Set(key, data) != net::AsciiClient::StoreResult::kStored) {
        ++result.errors;
      }
      result.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(clock::now() - begin)
              .count());
    }
  }
  client.Quit();
  return result;
}

// --- --mix mode: blended verbs with per-op latency accounting -------------

struct MixResult {
  // Per-verb latency samples ("get", "set", "incr", "touch", "cas").
  std::map<std::string, std::vector<double>> latencies_us;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t cas_conflicts = 0;  // EXISTS/NOT_FOUND races: legal outcomes
  uint64_t errors = 0;
};

// One connection's closed loop over a blended verb mix: 60% get
// (demand-fill), 15% set, 10% incr, 10% touch, 5% cas, chosen per logical
// request from a seeded RNG so the blend is reproducible.
MixResult RunMixConnection(const std::string& host, uint16_t port,
                           const Options& opt, size_t conn_index) {
  MixResult result;
  net::AsciiClient client;
  if (!client.Connect(host, port)) {
    result.errors = opt.requests;
    std::fprintf(stderr, "netperf: connect failed: %s\n",
                 client.last_error().c_str());
    return result;
  }

  ZipfTraceSpec spec;
  spec.requests = opt.requests;
  spec.universe = opt.universe;
  spec.zipf_alpha = 0.99;
  spec.seed = opt.seed + 0x1000 * (conn_index + 1);
  spec.app_id = kAppId;
  spec.get_fraction = 1.0;  // ops are re-rolled below
  const Trace trace = MakeZipfMixTrace(spec);
  Rng rng(opt.seed ^ (0x313A0 + conn_index));

  using clock = std::chrono::steady_clock;
  const auto timed = [&](const char* op, const auto& fn) {
    const auto begin = clock::now();
    fn();
    result.latencies_us[op].push_back(
        std::chrono::duration<double, std::micro>(clock::now() - begin)
            .count());
  };

  for (const Request& r : trace) {
    const std::string key = net::ReplayKeyString(r.key);
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 60) {
      ++result.gets;
      bool hit = false;
      timed("get", [&] { hit = client.Get(key).has_value(); });
      if (hit) {
        ++result.hits;
      } else {
        const std::string data = net::ReplayValueBytes(r.key, r.value_size);
        timed("set", [&] {
          if (client.Set(key, data) !=
              net::AsciiClient::StoreResult::kStored) {
            ++result.errors;
          }
        });
      }
    } else if (roll < 75) {
      const std::string data = net::ReplayValueBytes(r.key, r.value_size);
      timed("set", [&] {
        if (client.Set(key, data) !=
            net::AsciiClient::StoreResult::kStored) {
          ++result.errors;
        }
      });
    } else if (roll < 85) {
      // Arithmetic needs a numeric keyspace of its own; a NOT_FOUND miss
      // is seeded with "0" (counted under "set") so later incrs land.
      const std::string counter_key = "n:" + key;
      bool found = false;
      timed("incr", [&] {
        found = client.Incr(counter_key, 1).has_value();
        if (!found && !client.last_error().empty()) ++result.errors;
      });
      if (!found) {
        timed("set", [&] {
          if (client.Set(counter_key, "0") !=
              net::AsciiClient::StoreResult::kStored) {
            ++result.errors;
          }
        });
      }
    } else if (roll < 95) {
      timed("touch", [&] {
        (void)client.Touch(key, 60);  // miss is a legal outcome
        if (!client.last_error().empty()) ++result.errors;
      });
    } else {
      // cas: optimistic read-modify-write. The connections share one Zipf
      // keyspace, so another connection can store between the Gets and
      // the Cas — EXISTS (and NOT_FOUND after an eviction) are legal
      // outcomes of the protocol's optimistic-locking contract, counted
      // as conflicts, not errors.
      const auto versioned = client.Gets(key);
      if (!versioned.has_value()) {
        const std::string data = net::ReplayValueBytes(r.key, r.value_size);
        timed("set", [&] {
          if (client.Set(key, data) !=
              net::AsciiClient::StoreResult::kStored) {
            ++result.errors;
          }
        });
      } else {
        const std::string data = net::ReplayValueBytes(r.key, r.value_size);
        timed("cas", [&] {
          switch (client.Cas(key, data, versioned->cas)) {
            case net::AsciiClient::StoreResult::kStored:
              break;
            case net::AsciiClient::StoreResult::kExists:
            case net::AsciiClient::StoreResult::kNotFound:
              ++result.cas_conflicts;
              break;
            default:
              ++result.errors;
          }
        });
      }
    }
  }
  client.Quit();
  return result;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Row RunLoad(const std::string& host, uint16_t port, const Options& opt,
            size_t connections, uint32_t value_size) {
  std::fprintf(stderr,
               "netperf: %zu connection(s), %llu requests each%s%s...\n",
               connections, static_cast<unsigned long long>(opt.requests),
               value_size != 0 ? ", value size " : "",
               value_size != 0 ? std::to_string(value_size).c_str() : "");
  std::vector<WorkerResult> results(connections);
  const auto begin = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        results[c] = RunConnection(host, port, opt, value_size, c);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const auto end = std::chrono::steady_clock::now();

  Row row;
  row.connections = connections;
  row.value_size = value_size;
  row.name = "netperf/c" + std::to_string(connections);
  if (value_size != 0) row.name += "/v" + std::to_string(value_size);
  std::vector<double> all;
  uint64_t errors = 0;
  for (const WorkerResult& r : results) {
    all.insert(all.end(), r.latencies_us.begin(), r.latencies_us.end());
    row.hits += r.hits;
    row.gets += r.gets;
    errors += r.errors;
  }
  if (errors > 0) {
    std::fprintf(stderr, "netperf: %llu request errors\n",
                 static_cast<unsigned long long>(errors));
    std::exit(1);
  }
  row.ops = all.size();
  row.seconds = std::chrono::duration<double>(end - begin).count();
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  double sum = 0.0;
  for (const double v : all) sum += v;
  row.mean_us = all.empty() ? 0.0 : sum / static_cast<double>(all.size());
  std::sort(all.begin(), all.end());
  row.p50_us = Percentile(all, 0.50);
  row.p95_us = Percentile(all, 0.95);
  row.p99_us = Percentile(all, 0.99);
  return row;
}

Row FinishRow(std::string name, size_t connections,
              std::vector<double>* samples, double seconds) {
  Row row;
  row.name = std::move(name);
  row.connections = connections;
  row.ops = samples->size();
  row.seconds = seconds;
  row.ops_per_sec = seconds > 0.0
                        ? static_cast<double>(row.ops) / seconds
                        : 0.0;
  double sum = 0.0;
  for (const double v : *samples) sum += v;
  row.mean_us = samples->empty()
                    ? 0.0
                    : sum / static_cast<double>(samples->size());
  std::sort(samples->begin(), samples->end());
  row.p50_us = Percentile(*samples, 0.50);
  row.p95_us = Percentile(*samples, 0.95);
  row.p99_us = Percentile(*samples, 0.99);
  return row;
}

// --mix: one row per verb (same JSON fields; ops_per_sec is that verb's
// achieved rate within the blend) plus an "all" row with the aggregate.
std::vector<Row> RunMixLoad(const std::string& host, uint16_t port,
                            const Options& opt, size_t connections) {
  std::fprintf(stderr,
               "netperf: mix mode, %zu connection(s), %llu requests each...\n",
               connections, static_cast<unsigned long long>(opt.requests));
  std::vector<MixResult> results(connections);
  const auto begin = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        results[c] = RunMixConnection(host, port, opt, c);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();

  std::map<std::string, std::vector<double>> merged;
  std::vector<double> all;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t conflicts = 0;
  uint64_t errors = 0;
  for (const MixResult& r : results) {
    for (const auto& [op, samples] : r.latencies_us) {
      merged[op].insert(merged[op].end(), samples.begin(), samples.end());
      all.insert(all.end(), samples.begin(), samples.end());
    }
    gets += r.gets;
    hits += r.hits;
    conflicts += r.cas_conflicts;
    errors += r.errors;
  }
  if (conflicts > 0) {
    std::fprintf(stderr, "netperf: %llu cas conflicts (legal races)\n",
                 static_cast<unsigned long long>(conflicts));
  }
  if (errors > 0) {
    std::fprintf(stderr, "netperf: %llu request errors in mix mode\n",
                 static_cast<unsigned long long>(errors));
    std::exit(1);
  }

  const std::string prefix =
      "netperf/mix/c" + std::to_string(connections) + "/";
  std::vector<Row> rows;
  // Fixed emission order so row names are stable for compare_bench.py.
  for (const char* op : {"get", "set", "incr", "touch", "cas"}) {
    auto it = merged.find(op);
    if (it == merged.end()) continue;
    Row row = FinishRow(prefix + op, connections, &it->second, seconds);
    if (std::string_view(op) == "get") {
      row.gets = gets;
      row.hits = hits;
    }
    rows.push_back(std::move(row));
  }
  Row total = FinishRow(prefix + "all", connections, &all, seconds);
  total.gets = gets;
  total.hits = hits;
  rows.push_back(std::move(total));
  return rows;
}

void PrintJson(const Options& opt, const std::vector<Row>& rows) {
  std::printf("{\n");
  std::printf("  \"benchmark\": \"table8_netperf\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("  \"caveat\": \"single-CPU host: client and server share "
                "one core, so multi-connection rows measure scheduling "
                "overhead, not scaling\",\n");
  }
  std::printf("  \"transport\": \"%s\",\n",
              opt.connect_host.empty() ? "loopback_inprocess" : "remote");
  // The event loop that served the rows: the in-process server's epoll
  // loop, or "external" for --connect, where the rows measure whatever
  // daemon answered.
  const char* backend_label = opt.connect_host.empty() ? "epoll" : "external";
  std::printf("  \"backend\": \"%s\",\n", backend_label);
  // In-process rows each get a fresh server; --connect rows replay into
  // one external daemon whose cache warms across rows. Record that, so
  // cross-row (or cross-mode) comparisons can't silently mix the two.
  std::printf("  \"rows_share_server\": %s,\n",
              opt.connect_host.empty() ? "false" : "true");
  std::printf("  \"mode\": \"%s\",\n",
              opt.cliffhanger_mode ? "cliffhanger" : "default");
  std::printf("  \"get_fraction\": %.3f,\n", opt.get_fraction);
  std::printf("  \"requests_per_connection\": %llu,\n",
              static_cast<unsigned long long>(opt.requests));
  std::printf("  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::string value_size_field;
    if (r.value_size != 0) {
      value_size_field =
          "\"value_size\": " + std::to_string(r.value_size) + ", ";
    }
    // "ops", not "requests": gets plus demand-fill sets, i.e. the number
    // of client calls actually measured — hit-rate dependent by design.
    std::printf(
        "    {\"name\": \"%s\", \"backend\": \"%s\", \"connections\": %zu, "
        "%s\"ops\": %llu, "
        "\"gets\": %llu, \"hit_rate\": %.4f, \"seconds\": %.6f, "
        "\"ops_per_sec\": %.1f, \"mean_us\": %.2f, \"p50_us\": %.2f, "
        "\"p95_us\": %.2f, \"p99_us\": %.2f}%s\n",
        r.name.c_str(), backend_label, r.connections,
        value_size_field.c_str(),
        static_cast<unsigned long long>(r.ops),
        static_cast<unsigned long long>(r.gets),
        r.gets == 0 ? 0.0
                    : static_cast<double>(r.hits) / static_cast<double>(
                                                        r.gets),
        r.seconds, r.ops_per_sec, r.mean_us, r.p50_us, r.p95_us, r.p99_us,
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--connect") == 0) {
      const char* v = next();
      if (v == nullptr) return 1;
      const char* colon = std::strrchr(v, ':');
      if (colon == nullptr) {
        std::fprintf(stderr, "--connect expects HOST:PORT\n");
        return 1;
      }
      opt.connect_host.assign(v, static_cast<size_t>(colon - v));
      if (opt.connect_host.empty()) {
        // ":PORT" must not silently fall back to the in-process server.
        std::fprintf(stderr, "--connect needs an explicit host\n");
        return 1;
      }
      if (!ParsePort(colon + 1, /*allow_zero=*/false, &opt.connect_port)) {
        std::fprintf(stderr, "--connect port %s is out of range (1-65535)\n",
                     colon + 1);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      const char* v = next();
      if (v == nullptr) return 1;
      // Comma-separated counts, each its own scaling row: "1,64,256,1024".
      opt.connections.clear();
      std::string token;
      for (const char* p = v;; ++p) {
        if (*p != '\0' && *p != ',') {
          token.push_back(*p);
          continue;
        }
        uint64_t parsed = 0;
        if (!ParseUint(token.c_str(), &parsed) || parsed == 0) {
          std::fprintf(stderr,
                       "--connections expects positive integers, "
                       "comma-separated (got \"%s\")\n", v);
          return 1;
        }
        opt.connections.push_back(parsed);
        token.clear();
        if (*p == '\0') break;
      }
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      const char* v = next();
      uint64_t parsed = 0;
      if (v == nullptr || !ParseUint(v, &parsed)) return 1;
      opt.requests = parsed;
    } else if (std::strcmp(argv[i], "--universe") == 0) {
      const char* v = next();
      uint64_t parsed = 0;
      if (v == nullptr || !ParseUint(v, &parsed)) return 1;
      opt.universe = parsed;
    } else if (std::strcmp(argv[i], "--value-size") == 0) {
      const char* v = next();
      if (v == nullptr) return 1;
      // Comma-separated fixed sizes, one row per size: "64,1024,65536".
      opt.value_sizes.clear();
      std::string token;
      for (const char* p = v;; ++p) {
        if (*p != '\0' && *p != ',') {
          token.push_back(*p);
          continue;
        }
        uint64_t parsed = 0;
        if (!ParseUint(token.c_str(), &parsed) || parsed == 0 ||
            parsed > 1024 * 1024) {
          std::fprintf(stderr,
                       "--value-size expects sizes in [1, 1MiB], "
                       "comma-separated (got \"%s\")\n", v);
          return 1;
        }
        opt.value_sizes.push_back(static_cast<uint32_t>(parsed));
        token.clear();
        if (*p == '\0') break;
      }
    } else if (std::strcmp(argv[i], "--mix") == 0) {
      opt.mix = true;
    } else if (std::strcmp(argv[i], "--get-fraction") == 0) {
      const char* v = next();
      if (v == nullptr) return 1;
      char* end = nullptr;
      opt.get_fraction = std::strtod(v, &end);
      if (end == v || *end != '\0' || opt.get_fraction < 0.0 ||
          opt.get_fraction > 1.0) {
        std::fprintf(stderr, "--get-fraction expects a number in [0,1]\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      const char* v = next();
      uint64_t parsed = 0;
      if (v == nullptr || !ParseUint(v, &parsed) || parsed == 0) {
        std::fprintf(stderr, "--workers expects a positive integer\n");
        return 1;
      }
      opt.workers = parsed;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      const char* v = next();
      uint64_t parsed = 0;
      if (v == nullptr || !ParseUint(v, &parsed) || parsed == 0) {
        std::fprintf(stderr, "--shards expects a positive integer\n");
        return 1;
      }
      opt.shards = parsed;
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      const char* v = next();
      if (v == nullptr) return 1;
      if (std::strcmp(v, "default") == 0) {
        opt.cliffhanger_mode = false;
      } else if (std::strcmp(v, "cliffhanger") == 0) {
        opt.cliffhanger_mode = true;
      } else {
        std::fprintf(stderr, "--mode expects default|cliffhanger\n");
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--connect HOST:PORT] [--connections N[,N...]] "
                   "[--requests N] [--universe N] [--get-fraction F] "
                   "[--value-size N[,N...]] [--mix] [--workers N] "
                   "[--shards N] [--mode default|cliffhanger]\n",
                   argv[0]);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 1;
    }
  }
  if (opt.requests == 0 || opt.universe == 0) {
    std::fprintf(stderr, "--requests / --universe must be > 0\n");
    return 1;
  }

  std::vector<size_t> conn_sweep = opt.connections;
  if (conn_sweep.empty()) conn_sweep = {1, 2, 4};
  // One (connections, value_size) pair per row; value_size 0 means the
  // trace's own sizes. Each in-process row gets a fresh server — fixed
  // sizes reuse the same key universe, so sharing one cache across sizes
  // would serve size-A payloads to the size-B pass.
  std::vector<std::pair<size_t, uint32_t>> sweep;
  for (const size_t connections : conn_sweep) {
    if (opt.mix || opt.value_sizes.empty()) {
      sweep.emplace_back(connections, 0);
    } else {
      for (const uint32_t value_size : opt.value_sizes) {
        sweep.emplace_back(connections, value_size);
      }
    }
  }

  std::vector<Row> rows;
  for (const auto& [connections, value_size] : sweep) {
    std::string host = opt.connect_host;
    uint16_t port = opt.connect_port;
    // In-process mode: a fresh server per row, so rows are independent.
    std::unique_ptr<ShardedCacheServer> server;
    std::unique_ptr<net::CacheAdapter> adapter;
    std::unique_ptr<net::SocketServer> socket_server;
    if (host.empty()) {
      ShardedServerConfig config;
      config.server = opt.cliffhanger_mode ? CliffhangerServerConfig()
                                           : DefaultServerConfig();
      config.server.store_values = true;  // real bytes, zero-copy GET path
      config.num_shards = opt.shards;
      config.rebalance_interval_ops = 100000;
      server = std::make_unique<ShardedCacheServer>(config);
      server->AddApp(kAppId, kReservation);
      net::CacheAdapterConfig adapter_config;
      adapter_config.default_app_id = kAppId;
      adapter = std::make_unique<net::CacheAdapter>(server.get(),
                                                    adapter_config);
      net::SocketServerConfig net_config;
      net_config.port = 0;
      net_config.num_workers = opt.workers;
      // The sweep's largest row must not trip listen-queue overflow when
      // all its connections dial in at once.
      net_config.backlog = static_cast<int>(
          std::max<size_t>(128, *std::max_element(conn_sweep.begin(),
                                                  conn_sweep.end())));
      socket_server =
          std::make_unique<net::SocketServer>(net_config, adapter.get());
      std::string error;
      if (!socket_server->Start(&error)) {
        std::fprintf(stderr, "netperf: server start failed: %s\n",
                     error.c_str());
        return 1;
      }
      host = "127.0.0.1";
      port = socket_server->port();
    }
    if (opt.mix) {
      std::vector<Row> mix_rows = RunMixLoad(host, port, opt, connections);
      rows.insert(rows.end(), std::make_move_iterator(mix_rows.begin()),
                  std::make_move_iterator(mix_rows.end()));
    } else {
      rows.push_back(RunLoad(host, port, opt, connections, value_size));
    }
    if (socket_server) socket_server->Stop();
  }
  PrintJson(opt, rows);
  return 0;
}

}  // namespace
}  // namespace cliffhanger

int main(int argc, char** argv) { return cliffhanger::Main(argc, argv); }
