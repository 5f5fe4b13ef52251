// cliffhangerd — a memcached-ASCII-protocol TCP server over a
// ShardedCacheServer running the paper's incremental algorithms.
//
//   ./cliffhangerd --port 11311 --workers 4 --shards 8
//       --mode cliffhanger --app 1:64 --app 2:32
//
// Talk to it with any memcached ASCII client, or:
//   printf 'set k 0 0 5\r\nhello\r\nget k\r\nstats\r\nquit\r\n'
//       | nc 127.0.0.1 11311
//
// Speaks the full storage/retrieval verb set — get/gets, set/add/replace,
// cas, append/prepend, incr/decr, touch, delete, flush_all — with
// memcached expiry semantics (relative/absolute exptime, lazy O(1)
// expiration, no sweeper thread).
//
// Keys "app<id>:..." route to that registered app; everything else goes to
// the default app (the first registered, or --default-app).
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/cache_adapter.h"
#include "net/socket_server.h"
#include "sim/experiment.h"
#include "util/argparse.h"

namespace cliffhanger {
namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

struct AppSpec {
  uint32_t app_id = 1;
  uint64_t reservation_mb = 64;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --port N          listen port (default 11311; 0 = ephemeral)\n"
      "  --workers N       connection worker threads (default 2)\n"
      "  --shards N        cache shards (default 4)\n"
      "  --mode M          default | cliffhanger (default cliffhanger)\n"
      "  --eviction E      lru | midpoint (default lru; arc is\n"
      "                    simulation-only — no in-arena value storage)\n"
      "  --app ID:MB       register app ID with MB MiB (repeatable;\n"
      "                    default 1:64)\n"
      "  --default-app ID  app for un-prefixed keys (default: first --app)\n"
      "Each app's memory is split evenly across the shards at startup;\n"
      "the controllers move it only within a shard.\n",
      argv0);
}

int Main(int argc, char** argv) {
  uint16_t port = 11311;
  size_t workers = 2;
  size_t shards = 4;
  bool cliffhanger_mode = true;
  EvictionScheme eviction = EvictionScheme::kLru;
  std::vector<AppSpec> apps;
  uint32_t default_app = 0;
  bool default_app_set = false;

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]), 1;
      if (!ParsePort(v, /*allow_zero=*/true, &port)) {
        std::fprintf(stderr, "--port %s is not a port (0-65535)\n", v);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      const char* v = next();
      uint64_t parsed = 0;
      if (v == nullptr || !ParseUint(v, &parsed) || parsed == 0) {
        return Usage(argv[0]), 1;
      }
      workers = parsed;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      const char* v = next();
      uint64_t parsed = 0;
      if (v == nullptr || !ParseUint(v, &parsed) || parsed == 0) {
        return Usage(argv[0]), 1;
      }
      shards = parsed;
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]), 1;
      if (std::strcmp(v, "default") == 0) {
        cliffhanger_mode = false;
      } else if (std::strcmp(v, "cliffhanger") == 0) {
        cliffhanger_mode = true;
      } else {
        return Usage(argv[0]), 1;
      }
    } else if (std::strcmp(argv[i], "--eviction") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]), 1;
      if (std::strcmp(v, "lru") == 0) {
        eviction = EvictionScheme::kLru;
      } else if (std::strcmp(v, "midpoint") == 0) {
        eviction = EvictionScheme::kMidpoint;
      } else if (std::strcmp(v, "arc") == 0) {
        // The ARC queue is simulation-only: it never grew the value-storage
        // hooks (residency listener, PeekPhysical), so a daemon serving
        // real bytes cannot run it.
        std::fprintf(stderr,
                     "--eviction arc is simulation-only; the daemon stores "
                     "real values and needs lru or midpoint\n");
        return 1;
      } else {
        return Usage(argv[0]), 1;
      }
    } else if (std::strcmp(argv[i], "--app") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]), 1;
      AppSpec spec;
      // Both halves of ID:MB go through the strict ParseUint grammar.
      const char* colon = std::strchr(v, ':');
      if (colon == nullptr) return Usage(argv[0]), 1;
      const std::string id_str(v, static_cast<size_t>(colon - v));
      uint64_t id = 0;
      if (!ParseUint(id_str.c_str(), &id) || id > UINT32_MAX) {
        return Usage(argv[0]), 1;
      }
      spec.app_id = static_cast<uint32_t>(id);
      // The << 20 below must not wrap: bound the MiB count accordingly.
      if (!ParseUint(colon + 1, &spec.reservation_mb) ||
          spec.reservation_mb == 0 ||
          spec.reservation_mb > (UINT64_MAX >> 20)) {
        return Usage(argv[0]), 1;
      }
      for (const AppSpec& existing : apps) {
        if (existing.app_id == spec.app_id) {
          std::fprintf(stderr, "duplicate --app id %u\n", spec.app_id);
          return 1;
        }
      }
      apps.push_back(spec);
    } else if (std::strcmp(argv[i], "--default-app") == 0) {
      const char* v = next();
      uint64_t parsed = 0;
      if (v == nullptr || !ParseUint(v, &parsed) || parsed > UINT32_MAX) {
        return Usage(argv[0]), 1;
      }
      default_app = static_cast<uint32_t>(parsed);
      default_app_set = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      Usage(argv[0]);
      return 1;
    }
  }
  if (apps.empty()) apps.push_back(AppSpec{});
  if (!default_app_set) {
    default_app = apps.front().app_id;
  } else {
    const bool registered =
        std::any_of(apps.begin(), apps.end(), [&](const AppSpec& spec) {
          return spec.app_id == default_app;
        });
    if (!registered) {
      // Fail fast: otherwise every un-prefixed key would be rejected by a
      // daemon that looks perfectly healthy at startup.
      std::fprintf(stderr, "--default-app %u is not a registered --app id\n",
                   default_app);
      return 1;
    }
  }

  ShardedServerConfig config;
  config.server =
      cliffhanger_mode ? CliffhangerServerConfig() : DefaultServerConfig();
  config.server.eviction = eviction;
  // The daemon serves real bytes: values live in the core's per-shard
  // arenas (zero-copy GET), not in an adapter side table.
  config.server.store_values = true;
  config.num_shards = shards;
  ShardedCacheServer server(config);
  for (const AppSpec& spec : apps) {
    server.AddApp(spec.app_id, spec.reservation_mb << 20);
  }

  net::CacheAdapterConfig adapter_config;
  adapter_config.default_app_id = default_app;
  net::CacheAdapter adapter(&server, adapter_config);

  net::SocketServerConfig net_config;
  net_config.port = port;
  net_config.num_workers = workers;
  net::SocketServer socket_server(net_config, &adapter);
  std::string error;
  if (!socket_server.Start(&error)) {
    std::fprintf(stderr, "cliffhangerd: %s\n", error.c_str());
    return 1;
  }

  ::signal(SIGINT, OnSignal);
  ::signal(SIGTERM, OnSignal);

  std::fprintf(stderr,
               "cliffhangerd listening on port %u (%zu workers, %zu shards, "
               "epoll backend, %s mode, %zu app%s)\n",
               socket_server.port(), workers, shards,
               cliffhanger_mode ? "cliffhanger" : "default", apps.size(),
               apps.size() == 1 ? "" : "s");
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "cliffhangerd: shutting down\n");
  socket_server.Stop();
  return 0;
}

}  // namespace
}  // namespace cliffhanger

int main(int argc, char** argv) { return cliffhanger::Main(argc, argv); }
