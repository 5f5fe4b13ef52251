#include "sim/simulator.h"

#include <string>

namespace cliffhanger {

namespace {

ItemMeta ToMeta(const Request& r) {
  ItemMeta m;
  m.key = r.key;
  m.key_size = r.key_size;
  m.value_size = r.value_size;
  m.expiry_s = r.expiry_s;
  // The trace's virtual time doubles as the expiry clock, so TTL-bearing
  // traces replay deterministically with no wall clock anywhere.
  m.now_s = static_cast<uint32_t>(r.time_us / 1000000);
  return m;
}

}  // namespace

SimResult Replay(CacheServer& server, const Trace& trace,
                 const SimOptions& options) {
  SimResult result;

  // Sampling state.
  std::map<int, TimeSeries> capacity_series;
  TimeSeries hit_rate_series("hitrate");
  uint64_t window_gets = 0;
  uint64_t window_hits = 0;
  uint64_t last_window_gets = 0;
  uint64_t last_window_hits = 0;

  const auto sample = [&](uint64_t time_us) {
    const double t = static_cast<double>(time_us) / 1e6;  // seconds
    if (options.track_capacity_app) {
      const AppCache* app = server.app(*options.track_capacity_app);
      if (app != nullptr) {
        for (const auto& info : app->ClassInfos()) {
          auto [it, inserted] = capacity_series.try_emplace(
              info.slab_class,
              TimeSeries("slab" + std::to_string(info.slab_class)));
          it->second.Push(t, static_cast<double>(info.capacity_bytes) /
                                 (1024.0 * 1024.0));
        }
      }
    }
    if (options.track_hit_rate) {
      const uint64_t gets = window_gets - last_window_gets;
      const uint64_t hits = window_hits - last_window_hits;
      if (gets > 0) {
        hit_rate_series.Push(t, static_cast<double>(hits) /
                                    static_cast<double>(gets));
      }
      last_window_gets = window_gets;
      last_window_hits = window_hits;
    }
  };

  uint64_t processed = 0;
  for (const Request& r : trace) {
    const ItemMeta meta = ToMeta(r);
    switch (r.op) {
      case Op::kGet: {
        const Outcome outcome = server.Get(r.app_id, meta);
        if (options.track_hit_rate &&
            r.app_id == options.track_hit_rate->first &&
            (options.track_hit_rate->second < 0 ||
             outcome.slab_class == options.track_hit_rate->second)) {
          ++window_gets;
          window_hits += outcome.hit ? 1 : 0;
        }
        if (!outcome.hit && outcome.cacheable && options.demand_fill) {
          server.Set(r.app_id, meta);
        }
        break;
      }
      case Op::kSet:
      case Op::kCas:
      case Op::kAppend:
      case Op::kPrepend:
        // Value-level conditionality lives with whoever owns the payload
        // (net::CacheAdapter); at the residency core every store lands as
        // a fill at the request's (new) value_size.
        server.Set(r.app_id, meta);
        break;
      case Op::kTouch:
        // Expiry refresh + recency bump, no get/set statistics (see
        // CacheServer::Touch).
        server.Touch(r.app_id, meta);
        break;
      case Op::kIncr:
      case Op::kDecr: {
        // Size-preserving value rewrite: recency moves, the stored TTL
        // does not — a replay row cannot know the item's live expiry, and
        // stamping the row's (usually 0) expiry would silently clear it.
        ItemMeta keep = meta;
        keep.expiry_s = kKeepExpiry;
        server.Touch(r.app_id, keep);
        break;
      }
      case Op::kDelete:
        server.Delete(r.app_id, meta);
        break;
    }
    ++processed;
    if (options.sample_interval > 0 &&
        processed % options.sample_interval == 0) {
      sample(r.time_us);
    }
  }

  result.total = server.TotalStats();
  for (const uint32_t app_id : server.app_ids()) {
    const AppCache* app = server.app(app_id);
    AppResult ar;
    ar.total = app->TotalStats();
    ar.reservation = app->reservation();
    ar.allocated = app->allocated_bytes();
    for (const auto& info : app->ClassInfos()) {
      ar.classes.emplace(info.slab_class, info);
    }
    result.apps.emplace(app_id, std::move(ar));
  }
  for (auto& [slab_class, series] : capacity_series) {
    result.series.push_back(std::move(series));
  }
  if (options.track_hit_rate && !hit_rate_series.empty()) {
    result.series.push_back(std::move(hit_rate_series));
  }
  return result;
}

}  // namespace cliffhanger
