// Hit-rate curve construction from stack-distance histograms.
//
// h(c) = P(stack distance <= c): the hit rate an LRU queue of c items would
// have achieved on the recorded accesses (Mattson's inclusion property).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/curve.h"

namespace cliffhanger {

// Builds h(items) from a distance histogram (histogram[d] = number of
// accesses at distance d, d >= 1) over `total_accesses` GETs (accesses with
// infinite distance count toward the denominator but never hit). The curve
// is downsampled to at most `max_points` samples; the exact cumulative value
// is kept at every retained point.
[[nodiscard]] PiecewiseCurve CurveFromHistogram(
    const std::vector<uint64_t>& histogram, uint64_t total_accesses,
    size_t max_points = 1024);

// Rescales a curve's x axis (e.g. items -> bytes via the chunk size).
[[nodiscard]] PiecewiseCurve ScaleCurveX(const PiecewiseCurve& curve,
                                         double factor);

}  // namespace cliffhanger
