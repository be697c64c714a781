#pragma once
/// \file stats.hpp
/// Small statistics helpers used by stage reports and benches: running
/// mean/variance (Welford), load-imbalance ratios, and vector reductions.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/common.hpp"

namespace dibella::util {

/// Online mean / variance / min / max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  u64 count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  u64 n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Load imbalance as the paper defines it (Fig. 8): max over ranks divided by
/// average over ranks; 1.0 is perfect balance. Returns 1.0 for empty input or
/// an all-zero vector.
double load_imbalance(const std::vector<double>& per_rank);

/// Maximum of a vector (T{} for empty).
template <class T>
T vec_max(const std::vector<T>& v) {
  return v.empty() ? T{} : *std::max_element(v.begin(), v.end());
}

/// N50 of a set of lengths: the largest L such that pieces of length >= L
/// cover at least half the total (the assembly-contiguity standard). 0 for
/// empty or all-zero input.
u64 n50(std::vector<u64> lengths);

}  // namespace dibella::util
