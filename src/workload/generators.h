// Key-stream generators: the building blocks for synthetic application
// workloads. Each stream produces key *ranks* in [0, universe); the suite
// maps ranks to namespaced 64-bit keys and assigns deterministic sizes.
//
// Stream kinds and the hit-rate-curve shapes they induce under LRU:
//  - kZipf     : concave curve (steep head, long tail)                — §3.4
//  - kScan     : cliff at `universe` items (sequential re-scan)       — §3.5
//  - kHotspot  : concave with a knee at the hot-set size
//  - kUniform  : near-linear curve up to the universe size
//  - kOneHit   : compulsory misses only (every key unique, hit rate 0)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/rng.h"
#include "workload/zipf.h"

namespace cliffhanger {

enum class StreamKind : uint8_t { kZipf, kScan, kHotspot, kUniform, kOneHit };

struct StreamSpec {
  StreamKind kind = StreamKind::kZipf;
  uint64_t universe = 10000;  // number of distinct ranks (ignored by kOneHit)
  double zipf_alpha = 0.9;    // kZipf only
  double hot_fraction = 0.1;  // kHotspot: fraction of universe that is hot
  double hot_prob = 0.9;      // kHotspot: probability a request is hot
  // kScan: width of the convex onset ramp as a fraction of the universe.
  // Each scan cycle covers a random prefix of length in
  // [universe*(1-ramp), universe], biased quadratically toward the full
  // length, so reuse distances ramp up convexly toward the cliff top —
  // the shape of the paper's measured cliffs (Figures 3/4), as opposed to
  // the mathematical step of a fixed-length scan. 0 = pure step.
  double scan_ramp = 0.0;
  // Working-set drift: the rank->key mapping shifts by `drift_per_request`
  // keys per request, emulating applications whose hot set changes over the
  // week (these defeat one-shot offline solvers; Cliffhanger adapts). The
  // drift applies to kZipf and kHotspot streams.
  double drift_per_request = 0.0;
};

// Canonical two-slab-class Zipf trace shared by the smoke/determinism
// tests and the throughput benchmark: Zipf keys, 16-byte key size, value
// size 64 or 400 by key parity (so at least two slab classes compete;
// the sizes are constants in generators.cc), GETs with an optional
// explicit-SET fraction. One definition so the "same workload shape"
// claims across tests/benches cannot drift apart.
struct ZipfTraceSpec {
  uint64_t requests = 0;
  uint64_t universe = 30000;
  double zipf_alpha = 0.9;
  uint64_t seed = 2026;
  uint32_t app_id = 1;
  // Fraction of requests that are GETs; the rest are explicit SETs.
  // Exactly 1.0 draws no per-request op variate (bit-compatible with the
  // pure-GET traces the tests were seeded with).
  double get_fraction = 1.0;
};

// Defined in workload/trace.h; forward-declared here to keep this header
// light.
class Trace;
[[nodiscard]] Trace MakeZipfMixTrace(const ZipfTraceSpec& spec);

// Stateful rank stream. Not thread-safe; one instance per (class, trace).
class KeyStream {
 public:
  explicit KeyStream(const StreamSpec& spec);

  // Produces the next key rank. `request_index` is the global position in
  // the app trace (drives scan position and drift).
  [[nodiscard]] uint64_t Next(Rng& rng, uint64_t request_index);

  [[nodiscard]] const StreamSpec& spec() const { return spec_; }

 private:
  StreamSpec spec_;
  std::shared_ptr<const ZipfTable> zipf_;
  uint64_t scan_pos_ = 0;
  uint64_t scan_cycle_len_ = 0;
  uint64_t one_hit_counter_ = 0;
};

}  // namespace cliffhanger
