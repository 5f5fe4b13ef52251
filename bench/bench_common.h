// Shared helpers for the experiment drivers (one binary per paper table or
// figure). Trace lengths are chosen so every driver completes in well under
// a minute.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/hit_rate_curve.h"
#include "analysis/stack_distance.h"
#include "sim/experiment.h"
#include "util/slab_geometry.h"
#include "util/table.h"
#include "workload/memcachier_suite.h"

namespace cliffhanger::bench {

constexpr uint64_t kAppTraceLen = 600000;   // per-app requests
constexpr uint64_t kSeed = 42;

inline void Banner(const std::string& title, const std::string& paper_ref,
                   std::ostream& out = std::cout) {
  out << "==============================================\n"
      << title << "\n(" << paper_ref << ")\n"
      << "==============================================\n";
}

// --app-requests N scales the per-app trace length of the metric drivers
// (fig6/fig7/table3/table4). The metrics-regression gate pins its goldens at
// a reduced size so regeneration stays cheap in CI; the default reproduces
// the full paper-comparison run.
inline bool ParseAppRequests(int argc, char** argv, uint64_t* app_requests) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--app-requests") == 0 && i + 1 < argc) {
      *app_requests = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--app-requests N]\n", argv[0]);
      return false;
    }
  }
  if (*app_requests == 0) {
    std::fprintf(stderr, "--app-requests must be positive\n");
    return false;
  }
  return true;
}

// Deterministic JSON emitter shared by the metric drivers. Same
// {"benchmark", ..., "results": [...]} shape table6/table7 emit, but every
// value here is replay-deterministic (seeded traces, clockless expiry), so
// compare_bench.py --exact can diff regenerated output against the committed
// goldens at zero tolerance. Doubles print as %.17g: enough digits to
// round-trip exactly, so even a 1-ULP drift in a hit rate fails the gate.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& value) {
    fields_.push_back(Quote(key) + ": " + Quote(value));
    return *this;
  }
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonObject& Add(const std::string& key, bool value) {
    fields_.push_back(Quote(key) + ": " + (value ? "true" : "false"));
    return *this;
  }
  JsonObject& Add(const std::string& key, uint64_t value) {
    fields_.push_back(Quote(key) + ": " + std::to_string(value));
    return *this;
  }
  JsonObject& Add(const std::string& key, int value) {
    fields_.push_back(Quote(key) + ": " + std::to_string(value));
    return *this;
  }
  JsonObject& Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.push_back(Quote(key) + ": " + buf);
    return *this;
  }

  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += fields_[i];
    }
    out += "}";
    return out;
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

 private:
  std::vector<std::string> fields_;
};

class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(const std::string& benchmark) {
    meta_.Add("benchmark", benchmark);
  }

  template <typename T>
  BenchJsonWriter& Meta(const std::string& key, T value) {
    meta_.Add(key, value);
    return *this;
  }

  // Every row needs a unique "name" (compare_bench.py matches rows by it).
  JsonObject& AddRow(const std::string& name) {
    rows_.emplace_back();
    rows_.back().Add("name", name);
    return rows_.back();
  }

  void Print(std::ostream& out) const {
    std::string body = meta_.Render();
    body.pop_back();  // strip '}', splice in the results array
    out << body << ", \"results\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out << "  " << rows_[i].Render() << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  JsonObject meta_;
  std::vector<JsonObject> rows_;
};

// Exact per-class hit-rate curve (x in items) for one suite app.
inline PiecewiseCurve ExactClassCurve(const Trace& trace, uint32_t app_id,
                                      int slab_class) {
  StackDistanceAnalyzer analyzer;
  uint64_t gets = 0;
  for (const Request& r : trace) {
    if (r.app_id != app_id || r.op != Op::kGet) continue;
    if (SlabClassFor(ExactFootprint(r.key_size, r.value_size)) != slab_class) {
      continue;
    }
    ++gets;
    analyzer.Record(r.key);
  }
  return CurveFromHistogram(analyzer.histogram(), gets, 1 << 20);
}

inline std::string Star(const SuiteApp& app) {
  return app.has_cliff ? "*" : "";
}

}  // namespace cliffhanger::bench
