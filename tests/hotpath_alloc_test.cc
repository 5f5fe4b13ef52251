// Counting-allocator proof of the in-arena design's headline property: at
// steady state, the GET/SET hot path performs ZERO heap allocations.
//
// The global operator new/delete are overridden in this translation unit
// (this test gets its own binary, so nothing else is affected) with a
// windowed counter that sees the nothrow forms too (std::stable_sort's
// temporary buffer comes from one). A ShardedCacheServer running real
// value storage is churned through eviction-heavy SET/GET traffic until
// every pool is at its high-water mark — queue node arenas, flat indexes,
// value-arena pages and free lists — and then the same traffic runs again
// with counting on. Any allocation inside the window is a regression:
// payload writes must be memcpy into recycled slots, index updates must be
// open-addressing relinks, and evictions must push slots onto free lists.
//
// The second proof covers the network adapter's burst path on top:
// CacheAdapter::HandleBatch + ReleaseBurstPins over pre-parsed mixed
// bursts whose GET hits borrow their payloads under leases while SETs
// overwrite and evict the borrowed slots and incr/append rewrite them. The
// third runs one such burst while another thread holds a shard, so the
// burst defers that shard's ops and waits for its lock last.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/sharded_server.h"
#include "net/ascii_protocol.h"
#include "net/cache_adapter.h"
#include "sim/experiment.h"
#include "util/hashing.h"
#include "util/slab_geometry.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace cliffhanger {
namespace {

constexpr uint32_t kApp = 1;

// Eviction-heavy single-class churn: the keyset's chunk footprint is ~2x
// the reservation, so every warm pass both fills recycled slots and evicts
// through the listener.
struct HotPathRig {
  explicit HotPathRig(const ServerConfig& server_config)
      : config(MakeConfig(server_config)), server(config) {
    server.AddApp(kApp, 256 * 1024);
    keys.reserve(kKeys);
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "hot" + std::to_string(i);
      keys.push_back(Fnv1a64(key));
    }
    value.assign(64, 'h');
  }

  static ShardedServerConfig MakeConfig(const ServerConfig& server_config) {
    ShardedServerConfig config;
    config.server = server_config;
    config.server.store_values = true;
    config.num_shards = 2;
    return config;
  }

  void Pass(uint32_t now_s) {
    for (int i = 0; i < kKeys; ++i) {
      ItemMeta item{keys[static_cast<size_t>(i)], 8,
                    static_cast<uint32_t>(value.size())};
      item.now_s = now_s;
      server.SetValue(kApp, item, value.data(), 0,
                      static_cast<uint64_t>(i) + 1);
      // GET a key stored a while ago: a mix of hits (recent survivors) and
      // misses (already evicted), both on the counted path.
      const uint64_t probe = keys[static_cast<size_t>((i * 7 + 3) % kKeys)];
      server.GetValue(kApp, probe, 8, now_s, /*flush_at_s=*/0);
    }
  }

  static constexpr int kKeys = 4096;
  ShardedServerConfig config;
  ShardedCacheServer server;
  std::vector<uint64_t> keys;
  std::string value;
};

class HotPathAllocTest : public ::testing::TestWithParam<bool> {};

TEST_P(HotPathAllocTest, SteadyStateGetSetAllocatesNothing) {
  const bool cliffhanger = GetParam();
  HotPathRig rig(cliffhanger ? CliffhangerServerConfig()
                             : DefaultServerConfig());

  // Warmup: reach every high-water mark (index tables, node pools, arena
  // pages, free lists). Three passes: the first grows, the rest prove the
  // pools stable before the measured window opens.
  for (uint32_t pass = 0; pass < 3; ++pass) rig.Pass(/*now_s=*/1 + pass);

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  rig.Pass(/*now_s=*/10);
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "heap allocations leaked into the steady-state GET/SET hot path";

  // The window exercised real traffic, not a no-op: bytes are resident and
  // the keyset overflows the reservation (eviction ran inside the window).
  const ShardedCacheServer::ValueStats vs = rig.server.MergedValueStats();
  EXPECT_GT(vs.value_bytes, 0u);
  EXPECT_LT(vs.tracked_keys, static_cast<uint64_t>(HotPathRig::kKeys) +
                                 1);  // bounded by keyset
  const ClassStats stats = rig.server.MergedStats();
  EXPECT_GT(stats.gets, 0u);
  EXPECT_LT(stats.hits, stats.gets);
}

// Mixed 64-command bursts for the adapter, pre-parsed once (the Commands
// alias `text`). Values are at least kMinBorrowBytes unless noted. Per
// burst:
//  - a multiget of eight hot keys and a get of the key the next SET
//    overwrites (borrowed hits), then that SET and a re-get;
//  - get + incr + get of a counter (a copied hit) and get + append + gets
//    of a splice key (a copy-on-write of its leased slot; the key is reset
//    each burst);
//  - app 2 (one 64 KiB page per shard, one 40000-byte value each): a get
//    of the previous burst's big keys, then SETs of new ones that evict
//    them while they are borrowed;
//  - SETs of fresh churn keys and a get of a recent one, to the burst's
//    64 commands.
struct AdapterBursts {
  static constexpr int kBursts = 8;
  static constexpr size_t kCommands = 64;

  AdapterBursts() {
    // At least kMinBorrowBytes, so their hits borrow.
    const std::string value(1500, 's');
    const std::string big(40000, 'B');
    for (int b = 0; b < kBursts; ++b) {
      std::string& t = text[static_cast<size_t>(b)];
      const auto set = [&t](const std::string& key, const std::string& v) {
        t += "set " + key + " 0 0 " + std::to_string(v.size()) + "\r\n" +
             v + "\r\n";
      };
      const std::string hot = "h" + std::to_string(b % 8);
      t += "get h0 h1 h2 h3 h4 h5 h6 h7\r\nget " + hot + "\r\n";
      set(hot, std::string(value.size(), static_cast<char>('a' + b)));
      t += "get " + hot + "\r\n";
      t += "get n\r\nincr n 1\r\nget n\r\n";
      set("cat", std::string(1100, 'h'));
      t += "get cat\r\nappend cat 0 0 4\r\ntail\r\ngets cat\r\n";
      const int prev = (b + kBursts - 1) % kBursts;
      t += "get app2:big" + std::to_string(prev) + "a app2:big" +
           std::to_string(prev) + "b\r\n";
      set("app2:big" + std::to_string(b) + "a", big);
      set("app2:big" + std::to_string(b) + "b", big);
      t += "get app2:big" + std::to_string(prev) + "a\r\n";
      int c = 0;
      while (Count(t) < kCommands - 1) {
        set("c" + std::to_string(b) + "_" + std::to_string(c++), value);
      }
      t += "get c" + std::to_string(b) + "_0\r\n";
    }
    for (int b = 0; b < kBursts; ++b) {
      const std::string& t = text[static_cast<size_t>(b)];
      net::AsciiParser parser;
      size_t offset = 0;
      while (offset < t.size()) {
        net::Command cmd;
        size_t consumed = 0;
        const net::ParseStatus status =
            parser.Next(std::string_view(t).substr(offset), &consumed, &cmd);
        offset += consumed;
        if (status != net::ParseStatus::kCommand) break;
        cmds[static_cast<size_t>(b)].push_back(cmd);
      }
    }
  }

  // Commands in a request text: request lines, not data blocks.
  static size_t Count(const std::string& t) {
    size_t n = 0;
    for (size_t pos = 0; pos < t.size();) {
      const size_t eol = t.find("\r\n", pos);
      const std::string_view line(t.data() + pos, eol - pos);
      ++n;
      pos = eol + 2;
      if (line.substr(0, 4) == "set " || line.substr(0, 7) == "append ") {
        const size_t bytes =
            std::stoul(std::string(line.substr(line.rfind(' ') + 1)));
        pos += bytes + 2;
      }
    }
    return n;
  }

  std::string text[kBursts];
  std::vector<net::Command> cmds[kBursts];
};

// The adapter over a two-shard server, the counter seeded, running the
// AdapterBursts the way a socket worker does (HandleBatch, flush,
// ReleaseBurstPins).
struct AdapterRig {
  explicit AdapterRig(bool cliffhanger) : server(MakeConfig(cliffhanger)) {
    server.AddApp(1, 4ULL << 20);
    server.AddApp(2, 2 * kPageSize);  // one 64 KiB page per shard
    net::CacheAdapterConfig adapter_config;
    adapter_config.clock = [] { return 100u; };
    adapter = std::make_unique<net::CacheAdapter>(&server, adapter_config);
    // Seeds the counter before the first incr.
    net::Command seed;
    size_t consumed = 0;
    net::AsciiParser parser;
    const std::string text = "set n 0 0 1\r\n0\r\n";
    EXPECT_EQ(parser.Next(text, &consumed, &seed),
              net::ParseStatus::kCommand);
    std::string out;
    adapter->Handle(seed, &out);
    EXPECT_EQ(out, "STORED\r\n");
  }

  static ShardedServerConfig MakeConfig(bool cliffhanger) {
    ShardedServerConfig config;
    config.server =
        cliffhanger ? CliffhangerServerConfig() : DefaultServerConfig();
    config.server.store_values = true;
    config.num_shards = 2;
    return config;
  }

  void Burst(int b) {
    for (net::ResponseSegment& seg : segments) seg.Reset();
    adapter->HandleBatch(bursts.cmds[b].data(), bursts.cmds[b].size(),
                         &segments);
    for (const net::ResponseSegment& seg : segments) {
      if (seg.payload != nullptr) ++borrowed;
    }
  }

  void Pass(bool inspect) {
    for (int b = 0; b < AdapterBursts::kBursts; ++b) {
      Burst(b);
      if (inspect) {
        // Outside the counted window (the snapshot allocates).
        max_retired = std::max(max_retired,
                               server.MergedValueStats().retired_slots);
      }
      adapter->ReleaseBurstPins();
    }
  }

  ShardedCacheServer server;
  std::unique_ptr<net::CacheAdapter> adapter;
  const AdapterBursts bursts;
  std::vector<net::ResponseSegment> segments;
  uint64_t borrowed = 0;
  uint64_t max_retired = 0;
};

TEST_P(HotPathAllocTest, AdapterBurstsWithBorrowedHitsAllocateNothing) {
  AdapterRig rig(GetParam());
  for (int b = 0; b < AdapterBursts::kBursts; ++b) {
    ASSERT_EQ(rig.bursts.cmds[b].size(), AdapterBursts::kCommands);
  }
  // Warm-up: every segment string, thread-local scratch vector, index and
  // arena reaches its high-water mark.
  for (int warm = 0; warm < 4; ++warm) rig.Pass(false);

  rig.borrowed = 0;
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  rig.Pass(false);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "heap allocations leaked into the adapter's burst path";

  // The window did the work it claims: hits were borrowed, and a pass
  // retires borrowed slots (overwritten, rewritten or evicted) that come
  // back once the leases are returned.
  EXPECT_GE(rig.borrowed, 10u * AdapterBursts::kBursts);
  rig.Pass(true);
  EXPECT_GT(rig.max_retired, 0u);
  const ShardedCacheServer::ValueStats vs = rig.server.MergedValueStats();
  EXPECT_EQ(vs.leases, 0u);
  EXPECT_EQ(vs.retired_slots, 0u);
  EXPECT_TRUE(rig.server.CheckInvariants());
}

// The same warm burst while another thread holds shard 0: the burst serves
// shard 1 first, defers shard 0 and waits for it, and none of that
// allocates. The holder lets go once the adapter's counters show one of
// shard 1's ops served (a GET answered or a SET's bytes stored; both are
// counted as the op runs, under its shard's lock).
TEST_P(HotPathAllocTest, AdapterBurstWithABusyShardAllocatesNothing) {
  AdapterRig rig(GetParam());
  for (int warm = 0; warm < 4; ++warm) rig.Pass(false);

  const auto served = [&rig] {
    const net::CacheAdapter::Counters c = rig.adapter->counters();
    return c.get_hits + c.get_misses + c.bytes_read;
  };
  const uint64_t before = served();
  std::atomic<bool> holding{false};
  std::atomic<bool> others_served{false};
  std::thread holder([&] {
    ShardedCacheServer::ShardBatch hold = rig.server.BeginBatch(0);
    holding.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (served() > before) {
        others_served.store(true);
        break;
      }
      std::this_thread::yield();
    }
  });
  while (!holding.load()) std::this_thread::yield();

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  rig.Burst(0);
  rig.adapter->ReleaseBurstPins();
  g_counting.store(false, std::memory_order_relaxed);
  holder.join();
  EXPECT_TRUE(others_served.load())
      << "the burst waited for shard 0 before serving shard 1";
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "heap allocations leaked into the contended burst path";
  EXPECT_EQ(rig.server.MergedValueStats().leases, 0u);
  EXPECT_TRUE(rig.server.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Configs, HotPathAllocTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Cliffhanger" : "DefaultLru";
                         });

}  // namespace
}  // namespace cliffhanger
