#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dlsr {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(n_);
  const double n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::vector<double> values, double p) {
  return percentile_inplace(values, p);
}

double percentile_inplace(std::span<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  // Clamp instead of throwing: metric paths summarize whatever they have.
  // NaN comparisons are false, so a NaN p falls through to 0.
  if (!(p >= 0.0)) {
    p = 0.0;
  } else if (p > 1.0) {
    p = 1.0;
  }
  if (values.size() == 1) {
    return values.front();
  }
  const double idx = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  // After the selection everything past `lo` is >= values[lo], so the
  // next order statistic is the smallest element of that tail.
  std::nth_element(values.begin(), values.begin() + lo, values.end());
  const double at_lo = values[lo];
  const double at_hi =
      hi == lo ? at_lo : *std::min_element(values.begin() + hi, values.end());
  return at_lo * (1.0 - frac) + at_hi * frac;
}

}  // namespace dlsr
