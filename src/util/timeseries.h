// Sampled time series used to record hit rates and memory allocations over
// (virtual) time — Figures 8 and 9 of the paper are regenerated from these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cliffhanger {

class TimeSeries {
 public:
  struct Sample {
    double t = 0.0;  // virtual time (seconds or request count)
    double v = 0.0;
  };

  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void Push(double t, double v) { samples_.push_back({t, v}); }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] size_t size() const { return samples_.size(); }

  // Mean of v over all samples (0 when empty).
  [[nodiscard]] double Mean() const;
  // Last value (0 when empty).
  [[nodiscard]] double Last() const;
  // Earliest time t at which v reaches `threshold` and never drops below
  // `threshold - slack` afterwards. Returns -1 when never stabilized.
  // Used to measure convergence time (paper: "takes about 30 minutes to
  // stabilize", Figure 9).
  [[nodiscard]] double StabilizationTime(double threshold,
                                         double slack = 0.02) const;

 private:
  std::string name_;
  std::vector<Sample> samples_;
};

// Writes multiple aligned series as CSV rows "t,name1,name2,..." to a string.
// Series need not share timestamps; values are carried forward (step
// interpolation), which matches how allocations evolve in the simulator.
[[nodiscard]] std::string SeriesToCsv(const std::vector<TimeSeries>& series);

}  // namespace cliffhanger
