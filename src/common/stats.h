/// \file stats.h
/// Streaming statistics used by the experiment harness: running
/// mean/min/max/variance (Welford) and simple series helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace dpsync {

/// Online accumulator for mean / variance / min / max (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  void Reset() { *this = RunningStat(); }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A named time series of (t, value) points collected during an experiment.
struct Series {
  std::string name;
  std::vector<double> t;
  std::vector<double> value;

  void Add(double time, double v) {
    t.push_back(time);
    value.push_back(v);
  }
  RunningStat Summarize() const {
    RunningStat s;
    for (double v : value) s.Add(v);
    return s;
  }
};

}  // namespace dpsync
