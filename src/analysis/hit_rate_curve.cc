#include "analysis/hit_rate_curve.h"

#include <algorithm>

namespace cliffhanger {

PiecewiseCurve CurveFromHistogram(const std::vector<uint64_t>& histogram,
                                  uint64_t total_accesses, size_t max_points) {
  PiecewiseCurve curve;
  if (total_accesses == 0 || histogram.size() <= 1) return curve;
  const size_t max_d = histogram.size() - 1;
  const size_t stride = std::max<size_t>(1, max_d / max_points);

  // The cumulative histogram is a step function; to keep linear
  // interpolation faithful we emit both ends of every plateau (skipping the
  // interior), so a flat region stays flat and a cliff stays a cliff.
  uint64_t cumulative = 0;
  double last_y = 0.0;
  double plateau_x = 0.0;   // last boundary seen at last_y
  double emitted_x = 0.0;   // x of the last emitted point
  for (size_t d = 1; d <= max_d; ++d) {
    cumulative += histogram[d];
    const bool boundary = (d % stride == 0) || d == max_d;
    if (!boundary) continue;
    const double x = static_cast<double>(d);
    const double y =
        static_cast<double>(cumulative) / static_cast<double>(total_accesses);
    if (y != last_y) {
      if (plateau_x > emitted_x) {
        curve.AddPoint(plateau_x, last_y);  // close the plateau
      }
      curve.AddPoint(x, y);
      emitted_x = x;
    } else if (d == max_d && x > emitted_x) {
      curve.AddPoint(x, y);
      emitted_x = x;
    }
    plateau_x = x;
    last_y = y;
  }
  return curve;
}

PiecewiseCurve ScaleCurveX(const PiecewiseCurve& curve, double factor) {
  std::vector<double> xs = curve.xs();
  for (double& x : xs) x *= factor;
  return PiecewiseCurve(std::move(xs), curve.ys());
}

}  // namespace cliffhanger
