// Streaming statistics (Welford) and simple summaries.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dlsr {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Merges another accumulator (parallel reduction of partial stats).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear interpolation between order statistics. Total on all inputs so
/// metrics paths never throw or produce NaN: an empty series yields 0.0, a
/// single sample yields that sample for every p, and p is clamped to [0,1]
/// (p<=0 -> min, p>=1 -> max, NaN p -> min). The two order statistics are
/// picked by selection (nth_element, then the minimum of the part above),
/// so a call is O(n) and bit-identical to interpolating a sorted copy.
double percentile(std::vector<double> values, double p);

/// percentile() without the copy: reorders `values` in place and
/// allocates nothing. Hot paths keep one scratch buffer and call this.
double percentile_inplace(std::span<double> values, double p);

}  // namespace dlsr
