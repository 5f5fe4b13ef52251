// Table 8 (beyond the paper): end-to-end network performance of
// cliffhangerd. A closed-loop load generator — C connections, each a thread
// with its own AsciiClient replaying a seeded Zipf mix with demand-fill
// semantics (get; on miss, set) — measures throughput and per-op latency
// percentiles through the daemon's full stack: parser, event loop,
// adapter, sharded cache.
//
// The generator is a pure client: start cliffhangerd first and point
// --connect at it; the daemon's own flags (--workers, --shards, --mode,
// --app) set what is measured. Every row replays into that one cache,
// which warms across rows. Each value size has key ids of its own (the
// size sits in the id's high bits), so rows of one size share keys and
// bytes, and rows of different sizes never meet. Every GET hit is checked:
// its length and first 16 bytes must be ReplayValueBytes of its key. A
// value's bytes depend only on its key id and position, so the prefix
// names the key; a full compare would bound the client at 64 KiB values.
//
// A row's timed window opens once every connection has connected and built
// its trace: they wait at a start gate, which releases them together. The
// window closes when the last connection finishes its requests, so thread
// start, connect and trace generation stay outside it, and the stragglers'
// tail (the last connections running after the others are done) stays
// inside it.
//
// Emits one JSON object on stdout ({"benchmark", "hardware_concurrency",
// ..., "results": [...]}); progress goes to stderr. A failed request or a
// wrong GET hit exits 1.
//
// Flags: --connect HOST:PORT  the daemon to drive (required)
//        --connections LIST   comma-separated connection counts, e.g.
//                             1,64,256,1024 — one scaling row per count
//                             (default: sweep 1,2,4)
//        --requests N         logical requests per connection (default 20000)
//        --value-size LIST    comma-separated fixed value sizes, e.g.
//                             64,1024,65536 — one row per (connections,
//                             size) pair named netperf/cN/vS, overriding
//                             the trace's own value sizes; makes the
//                             GET-hit serving path's byte-movement cost
//                             visible at each payload size
//                             (default: trace-driven sizes)
//        --mix                blended-verb mode: get/set/incr/touch/cas with
//                             per-op latency percentile rows (same JSON
//                             shape; rows named netperf/mix/cN[/vS]/<op>)
#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "net/ascii_client.h"
#include "net/ascii_protocol.h"
#include "net/replay_keys.h"
#include "util/argparse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace cliffhanger {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kUniverse = 20000;   // key universe per connection stream
constexpr double kGetFraction = 0.967;  // GET share of the plain mix (ETC)
constexpr uint64_t kSeed = 0x7AB8E7;
// With a fixed value size a row measures the GET-hit serving path at that
// payload, so its working set must fit: the key universe is capped so
// universe * (value + per-item overhead) stays within 16 MiB, a quarter of
// cliffhangerd's default reservation. The row's hit_rate shows the effect.
constexpr uint64_t kFixedSizeWorkingSet = 16ULL << 20;
// A GET hit is checked on its length and this many leading bytes.
constexpr uint32_t kCheckedPrefix = 16;

enum Verb : size_t { kGet, kSet, kIncr, kTouch, kCas, kVerbs };
// Row suffixes of --mix, in emission order (stable for compare_bench.py).
constexpr std::array<const char*, kVerbs> kVerbNames = {"get", "set", "incr",
                                                        "touch", "cas"};

struct Options {
  std::string host;
  uint16_t port = 0;
  std::vector<uint64_t> connections = {1, 2, 4};
  uint64_t requests = 20000;
  std::vector<uint64_t> value_sizes = {0};  // 0 = the trace's own sizes
  bool mix = false;
};

// What one connection measured, and, summed, one row.
struct Tally {
  std::array<std::vector<double>, kVerbs> latencies_us;  // one per call
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t wrong_hits = 0;     // a GET hit that is not the key's own value
  uint64_t cas_conflicts = 0;  // EXISTS/NOT_FOUND races: legal outcomes
  uint64_t errors = 0;
  Clock::time_point end{};  // when the connection's last request returned

  void Merge(const Tally& other) {
    for (size_t v = 0; v < kVerbs; ++v) {
      latencies_us[v].insert(latencies_us[v].end(),
                             other.latencies_us[v].begin(),
                             other.latencies_us[v].end());
    }
    gets += other.gets;
    hits += other.hits;
    wrong_hits += other.wrong_hits;
    cas_conflicts += other.cas_conflicts;
    errors += other.errors;
  }
};

// Holds a row's connections until every one has checked in, then releases
// them together; the row's timed window opens at the release.
class StartGate {
 public:
  explicit StartGate(size_t connections) : pending_(connections) {}

  // A connection checks in, connected or not, and waits for the release.
  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }

  // Waits for every connection to check in, then releases them. Returns
  // the release time.
  Clock::time_point OpenWhenAllArrived() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pending_ == 0; });
    open_ = true;
    const Clock::time_point release = Clock::now();
    cv_.notify_all();
    return release;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_;
  bool open_ = false;
};

// True when `data` is key `id`'s value of `size` bytes (see the header).
bool IsReplayValue(uint64_t id, uint32_t size, const std::string& data) {
  const std::string prefix =
      net::ReplayValueBytes(id, std::min(size, kCheckedPrefix));
  return data.size() == size && data.compare(0, prefix.size(), prefix) == 0;
}

// One connection's closed loop over a private Zipf stream. Plain rows
// replay the trace's GET/SET mix; --mix rolls each request's verb from a
// seeded RNG instead: 60% get, 15% set, 10% incr, 10% touch, 5% cas. A GET
// miss is filled with a set, as a demand-fill client does. The loop starts
// when `gate` opens.
Tally RunConnection(const Options& opt, uint64_t value_size,
                    size_t conn_index, StartGate* gate) {
  Tally tally;
  net::AsciiClient client;
  if (!client.Connect(opt.host, opt.port)) {
    std::fprintf(stderr, "netperf: connect failed: %s\n",
                 client.last_error().c_str());
    tally.errors = 1;
    gate->ArriveAndWait();  // a missing check-in would hang the row
    return tally;
  }

  ZipfTraceSpec spec;
  spec.requests = opt.requests;
  spec.universe = value_size == 0
                      ? kUniverse
                      : std::clamp<uint64_t>(
                            kFixedSizeWorkingSet / (value_size + 64), 16,
                            kUniverse);
  spec.zipf_alpha = 0.99;
  spec.seed = kSeed + 0x1000 * (conn_index + 1);
  spec.get_fraction = opt.mix ? 1.0 : kGetFraction;  // --mix re-rolls ops
  const Trace trace = MakeZipfMixTrace(spec);
  Rng rng(kSeed ^ (0x313A0 + conn_index));

  const auto timed = [&](Verb verb, const auto& call) {
    const auto begin = Clock::now();
    call();
    tally.latencies_us[verb].push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - begin)
            .count());
  };
  const auto set = [&](const std::string& key, const std::string& data) {
    timed(kSet, [&] {
      if (client.Set(key, data) != net::AsciiClient::StoreResult::kStored) {
        ++tally.errors;
      }
    });
  };
  // True on a hit, which is checked; a miss with an error line or a dead
  // stream is an error.
  const auto hit = [&](const std::optional<net::AsciiClient::Value>& value,
                       uint64_t id, uint32_t size) {
    if (!value.has_value()) {
      if (!client.last_error().empty()) ++tally.errors;
      return false;
    }
    if (!IsReplayValue(id, size, value->data)) ++tally.wrong_hits;
    return true;
  };

  gate->ArriveAndWait();
  for (const Request& r : trace) {
    const uint64_t id = r.key | value_size << 32;
    const auto size =
        static_cast<uint32_t>(value_size != 0 ? value_size : r.value_size);
    const std::string key = net::ReplayKeyString(id);
    Verb verb = r.is_get() ? kGet : kSet;
    if (opt.mix) {
      const uint64_t roll = rng.NextBounded(100);
      verb = roll < 60   ? kGet
             : roll < 75 ? kSet
             : roll < 85 ? kIncr
             : roll < 95 ? kTouch
                         : kCas;
    }
    switch (verb) {
      case kGet: {
        ++tally.gets;
        std::optional<net::AsciiClient::Value> value;
        timed(kGet, [&] { value = client.Get(key); });
        if (hit(value, id, size)) {
          ++tally.hits;
        } else {
          set(key, net::ReplayValueBytes(id, size));
        }
        break;
      }
      case kSet:
        set(key, net::ReplayValueBytes(id, size));
        break;
      case kIncr: {
        // Arithmetic needs a numeric keyspace of its own; a NOT_FOUND miss
        // is seeded with "0" (counted under "set") so later incrs land.
        const std::string counter_key = "n:" + key;
        bool incremented = false;
        timed(kIncr, [&] {
          incremented = client.Incr(counter_key, 1).has_value();
        });
        if (!incremented) {
          if (!client.last_error().empty()) ++tally.errors;
          set(counter_key, "0");
        }
        break;
      }
      case kTouch:
        timed(kTouch, [&] { (void)client.Touch(key, 60); });  // miss is legal
        if (!client.last_error().empty()) ++tally.errors;
        break;
      case kCas: {
        // Optimistic read-modify-write. The connections share one Zipf
        // keyspace, so another connection can store between the gets and
        // the cas — EXISTS (and NOT_FOUND after an eviction) are legal
        // outcomes of the protocol's optimistic-locking contract, counted
        // as conflicts, not errors.
        const auto versioned = client.Gets(key);
        const std::string data = net::ReplayValueBytes(id, size);
        if (!hit(versioned, id, size)) {
          set(key, data);
          break;
        }
        timed(kCas, [&] {
          switch (client.Cas(key, data, versioned->cas)) {
            case net::AsciiClient::StoreResult::kStored:
              break;
            case net::AsciiClient::StoreResult::kExists:
            case net::AsciiClient::StoreResult::kNotFound:
              ++tally.cas_conflicts;
              break;
            default:
              ++tally.errors;
          }
        });
        break;
      }
      default:
        break;
    }
  }
  tally.end = Clock::now();
  client.Quit();
  return tally;
}

// One JSON row over `samples`. "ops", not "requests": the
// client calls actually measured (gets plus demand-fill sets), so it
// depends on the hit rate by design; ops_per_sec is that rate over the
// row's timed window (see the header).
void AddRow(bench::BenchJsonWriter* json, const std::string& name,
            size_t connections, uint64_t value_size, uint64_t gets,
            uint64_t hits, const std::vector<double>& samples,
            double seconds) {
  bench::JsonObject& row = json->AddRow(name);
  row.Add("connections", connections);
  if (value_size != 0) row.Add("value_size", value_size);
  row.Add("ops", samples.size())
      .Add("gets", gets)
      .Add("hit_rate", gets == 0 ? 0.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(gets))
      .Add("seconds", seconds)
      .Add("ops_per_sec", static_cast<double>(samples.size()) / seconds)
      .Add("mean_us", Mean(samples))
      .Add("p50_us", Percentile(samples, 50))
      .Add("p95_us", Percentile(samples, 95))
      .Add("p99_us", Percentile(samples, 99));
}

// Runs `connections` closed loops at once and adds their rows: one plain
// row, or with --mix one row per verb used plus an "all" row. False when a
// request failed or a GET hit served the wrong bytes.
bool RunRows(const Options& opt, size_t connections, uint64_t value_size,
             bench::BenchJsonWriter* json) {
  std::string name = std::string("netperf/") + (opt.mix ? "mix/" : "") + "c" +
                     std::to_string(connections);
  if (value_size != 0) name += "/v" + std::to_string(value_size);
  std::fprintf(stderr, "netperf: %s, %llu requests per connection...\n",
               name.c_str(), static_cast<unsigned long long>(opt.requests));
  std::vector<Tally> tallies(connections);
  StartGate gate(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(
        [&, c] { tallies[c] = RunConnection(opt, value_size, c, &gate); });
  }
  const Clock::time_point begin = gate.OpenWhenAllArrived();
  for (std::thread& thread : threads) thread.join();
  Clock::time_point end = begin;
  for (const Tally& tally : tallies) end = std::max(end, tally.end);
  const double seconds = std::chrono::duration<double>(end - begin).count();

  Tally total;
  for (const Tally& tally : tallies) total.Merge(tally);
  if (total.cas_conflicts > 0) {
    std::fprintf(stderr, "netperf: %llu cas conflicts (legal races)\n",
                 static_cast<unsigned long long>(total.cas_conflicts));
  }
  if (total.errors > 0 || total.wrong_hits > 0) {
    std::fprintf(stderr,
                 "netperf: %llu request errors, %llu hits served the wrong "
                 "bytes\n",
                 static_cast<unsigned long long>(total.errors),
                 static_cast<unsigned long long>(total.wrong_hits));
    return false;
  }

  std::vector<double> all;
  for (size_t v = 0; v < kVerbs; ++v) {
    const std::vector<double>& samples = total.latencies_us[v];
    all.insert(all.end(), samples.begin(), samples.end());
    if (opt.mix && !samples.empty()) {
      const bool get = v == kGet;
      AddRow(json, name + "/" + kVerbNames[v], connections, value_size,
             get ? total.gets : 0, get ? total.hits : 0, samples, seconds);
    }
  }
  if (opt.mix) name += "/all";
  AddRow(json, name, connections, value_size, total.gets, total.hits, all,
         seconds);
  return true;
}

// "1,64,256" -> {1, 64, 256}: each entry an integer in [1, max].
bool ParseList(const char* text, uint64_t max, std::vector<uint64_t>* out) {
  if (text == nullptr) return false;
  out->clear();
  std::string_view rest(text);
  for (;;) {
    const size_t comma = rest.find(',');
    uint64_t value = 0;
    if (!ParseDecimalU64(rest.substr(0, comma), &value) || value == 0 ||
        value > max) {
      return false;
    }
    out->push_back(value);
    if (comma == std::string_view::npos) return true;
    rest.remove_prefix(comma + 1);
  }
}

// "HOST:PORT", both parts present, the port in [1, 65535].
bool ParseHostPort(const char* text, std::string* host, uint16_t* port) {
  if (text == nullptr) return false;
  const std::string_view hp(text);
  const size_t colon = hp.rfind(':');
  if (colon == 0 || colon == std::string_view::npos) return false;
  host->assign(hp.substr(0, colon));
  return ParsePort(text + colon + 1, /*allow_zero=*/false, port);
}

int Main(int argc, char** argv) {
  static constexpr char kUsage[] =
      "usage: %s --connect HOST:PORT [--connections N[,N...]] "
      "[--requests N] [--value-size N[,N...]] [--mix]\n";
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--mix") {
      opt.mix = true;
      continue;
    }
    const char* value = i + 1 < argc ? argv[++i] : nullptr;
    bool ok = false;
    if (flag == "--connect") {
      ok = ParseHostPort(value, &opt.host, &opt.port);
    } else if (flag == "--connections") {
      ok = ParseList(value, UINT64_MAX, &opt.connections);
    } else if (flag == "--requests") {
      ok = ParseUint(value, &opt.requests) && opt.requests > 0;
    } else if (flag == "--value-size") {
      ok = ParseList(value, net::kMaxValueBytes, &opt.value_sizes);
    } else {
      std::fprintf(stderr, kUsage, argv[0]);
      return flag == "--help" ? 0 : 1;
    }
    if (!ok) {
      std::fprintf(stderr, "netperf: bad value for %s: %s\n", flag.data(),
                   value != nullptr ? value : "(missing)");
      return 1;
    }
  }
  if (opt.host.empty()) {
    std::fprintf(stderr, "netperf: --connect is required\n");
    std::fprintf(stderr, kUsage, argv[0]);
    return 1;
  }

  bench::BenchJsonWriter json("table8_netperf");
  const unsigned cpus = std::thread::hardware_concurrency();
  json.Meta("hardware_concurrency", static_cast<uint64_t>(cpus));
  if (cpus <= 1) {
    json.Meta("caveat",
              "single-CPU host: client and server share one core, so "
              "multi-connection rows measure scheduling overhead, not "
              "scaling");
  }
  if (!opt.mix) json.Meta("get_fraction", kGetFraction);
  json.Meta("requests_per_connection", opt.requests);
  for (const uint64_t connections : opt.connections) {
    for (const uint64_t value_size : opt.value_sizes) {
      if (!RunRows(opt, connections, value_size, &json)) return 1;
    }
  }
  json.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace cliffhanger

int main(int argc, char** argv) { return cliffhanger::Main(argc, argv); }
