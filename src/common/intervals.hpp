// Interval algebra over half-open [start, end) time spans: the one union
// helper behind the simulator's exposed-comm figure
// (hvd::StepTimeline::exposed_comm), trace-summary's comm-slot rows and
// the critical-path analyzer's per-step attribution.
//
// Empty and reversed intervals (end <= start) cover nothing and are
// dropped everywhere. Inputs may be unsorted, nested or overlapping.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace dlsr::intervals {

using Interval = std::pair<double, double>;

/// Sorted disjoint union. Overlapping and touching intervals merge, so
/// consecutive results are separated by a gap (next.first > prev.second).
inline std::vector<Interval> merge(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> merged;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) {
      continue;
    }
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

/// Total length covered by the union. Sort, then sweep a cursor: each
/// interval adds only the part past the furthest end seen so far. On an
/// already-merged input this is the plain sum of lengths.
inline double covered(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cursor = -std::numeric_limits<double>::infinity();
  for (const auto& [start, end] : intervals) {
    if (end <= start) {
      continue;
    }
    if (start > cursor) {
      total += end - start;
      cursor = end;
    } else if (end > cursor) {
      total += end - cursor;
      cursor = end;
    }
  }
  return total;
}

/// Length of `a` not covered by `b`; both must be merge() output.
inline double subtract_covered(const std::vector<Interval>& a,
                               const std::vector<Interval>& b) {
  double total = 0.0;
  std::size_t j = 0;
  for (const Interval& iv : a) {
    double cursor = iv.first;
    while (j < b.size() && b[j].second <= cursor) {
      ++j;
    }
    for (std::size_t k = j; k < b.size() && b[k].first < iv.second; ++k) {
      if (b[k].first > cursor) {
        total += b[k].first - cursor;
      }
      cursor = std::max(cursor, b[k].second);
      if (cursor >= iv.second) {
        break;
      }
    }
    if (cursor < iv.second) {
      total += iv.second - cursor;
    }
  }
  return total;
}

/// merge() output restricted to [lo, hi); intervals left empty are dropped.
inline std::vector<Interval> clip(const std::vector<Interval>& merged,
                                  double lo, double hi) {
  std::vector<Interval> out;
  for (const Interval& iv : merged) {
    const double s = std::max(iv.first, lo);
    const double e = std::min(iv.second, hi);
    if (e > s) {
      out.emplace_back(s, e);
    }
  }
  return out;
}

}  // namespace dlsr::intervals
