#include "workload/generators.h"

#include <cassert>
#include <cmath>

#include "workload/trace.h"

namespace cliffhanger {

namespace {

// MakeZipfMixTrace's item sizes. perfbench's ETC stream relies on them.
constexpr uint32_t kZipfMixKeySize = 16;
constexpr uint32_t kZipfMixSmallValueSize = 64;   // even keys
constexpr uint32_t kZipfMixLargeValueSize = 400;  // odd keys

}  // namespace

Trace MakeZipfMixTrace(const ZipfTraceSpec& spec) {
  StreamSpec stream_spec;
  stream_spec.kind = StreamKind::kZipf;
  stream_spec.universe = spec.universe;
  stream_spec.zipf_alpha = spec.zipf_alpha;
  KeyStream stream(stream_spec);
  Rng rng(spec.seed);
  Trace trace;
  trace.Reserve(spec.requests);
  for (uint64_t i = 0; i < spec.requests; ++i) {
    Request r;
    r.key = stream.Next(rng, i);
    r.app_id = spec.app_id;
    r.key_size = kZipfMixKeySize;
    r.value_size =
        (r.key % 2 == 0) ? kZipfMixSmallValueSize : kZipfMixLargeValueSize;
    if (spec.get_fraction < 1.0) {
      r.op = rng.NextBernoulli(spec.get_fraction) ? Op::kGet : Op::kSet;
    }
    r.time_us = i;
    trace.Append(r);
  }
  return trace;
}

KeyStream::KeyStream(const StreamSpec& spec) : spec_(spec) {
  assert(spec_.universe > 0 || spec_.kind == StreamKind::kOneHit);
  if (spec_.kind == StreamKind::kZipf) {
    zipf_ = ZipfTable::Get(spec_.universe, spec_.zipf_alpha);
  }
  scan_cycle_len_ = spec_.universe;
}

uint64_t KeyStream::Next(Rng& rng, uint64_t request_index) {
  uint64_t rank = 0;
  switch (spec_.kind) {
    case StreamKind::kZipf:
      rank = zipf_->Sample(rng);
      break;
    case StreamKind::kScan:
      rank = scan_pos_;
      ++scan_pos_;
      if (scan_pos_ >= scan_cycle_len_) {
        scan_pos_ = 0;
        if (spec_.scan_ramp > 0.0) {
          // Next cycle covers a random prefix, quadratically biased toward
          // the full universe (convex onset ramp — see StreamSpec).
          const double u = rng.NextDouble();
          const double cut = spec_.scan_ramp * u * u *
                             static_cast<double>(spec_.universe);
          scan_cycle_len_ = std::max<uint64_t>(
              1, spec_.universe - static_cast<uint64_t>(cut));
        }
      }
      break;
    case StreamKind::kHotspot: {
      const auto hot = static_cast<uint64_t>(
          std::max(1.0, spec_.hot_fraction * static_cast<double>(
                                                 spec_.universe)));
      if (rng.NextBernoulli(spec_.hot_prob)) {
        rank = rng.NextBounded(hot);
      } else {
        rank = hot + rng.NextBounded(std::max<uint64_t>(1, spec_.universe - hot));
      }
      break;
    }
    case StreamKind::kUniform:
      rank = rng.NextBounded(spec_.universe);
      break;
    case StreamKind::kOneHit:
      // Every request a brand-new key: pure compulsory misses. Used for
      // churn-heavy slab classes that grab memory under FCFS yet never hit.
      return 0x4000000000000000ULL + one_hit_counter_++;
  }
  if (spec_.drift_per_request > 0.0) {
    // Shift the rank->key identity map forward over time: rank r at time t
    // denotes key (r + offset(t)), so the hot head slides through the key
    // space and the working set gradually changes.
    const auto offset = static_cast<uint64_t>(
        spec_.drift_per_request * static_cast<double>(request_index));
    rank = rank + offset;
  }
  return rank;
}

}  // namespace cliffhanger
