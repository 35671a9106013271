#include "obs/time_series.hpp"

#include <algorithm>
#include <sstream>

#include "common/stats.hpp"
#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace dlsr::obs {

TimeSeriesStore::TimeSeriesStore(Config config) : config_(config) {
  if (config_.capacity_per_series == 0) {
    config_.capacity_per_series = 1;
  }
}

TimeSeriesStore& TimeSeriesStore::global() {
  static TimeSeriesStore store;
  return store;
}

double TimeSeriesStore::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::shared_ptr<TimeSeriesStore::Series> TimeSeriesStore::find(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : it->second;
}

std::shared_ptr<TimeSeriesStore::Series> TimeSeriesStore::find_or_create(
    const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = series_[name];
  if (!slot) {
    slot = std::make_shared<Series>();
  }
  return slot;
}

void TimeSeriesStore::append(const std::string& name, double t_s,
                             double value) {
  const auto series = find_or_create(name);
  const std::lock_guard<std::mutex> lock(series->mutex);
  if (series->ring.empty()) {
    series->ring.resize(config_.capacity_per_series);
  }
  series->ring[series->head] = SeriesPoint{t_s, value};
  series->head = (series->head + 1) % series->ring.size();
  series->count = std::min(series->count + 1, series->ring.size());
}

void TimeSeriesStore::observe(const std::string& name, double value) {
  if (!enabled()) {
    return;
  }
  append(name, now_s(), value);
}

std::vector<std::string> TimeSeriesStore::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    out.push_back(name);
  }
  return out;
}

std::size_t TimeSeriesStore::point_count(const std::string& name) const {
  const auto series = find(name);
  if (!series) {
    return 0;
  }
  const std::lock_guard<std::mutex> lock(series->mutex);
  return series->count;
}

std::vector<SeriesPoint> TimeSeriesStore::window(const std::string& name,
                                                 double window_s,
                                                 double now_s_in) const {
  std::vector<SeriesPoint> out;
  const auto series = find(name);
  if (!series) {
    return out;
  }
  const double now = now_s_in < 0.0 ? now_s() : now_s_in;
  const double cutoff = now - window_s;
  const std::lock_guard<std::mutex> lock(series->mutex);
  // Oldest-first walk of the ring.
  const std::size_t cap = series->ring.size();
  for (std::size_t i = 0; i < series->count; ++i) {
    const std::size_t idx = (series->head + cap - series->count + i) % cap;
    const SeriesPoint& p = series->ring[idx];
    if (p.t_s > cutoff && p.t_s <= now + 1e-12) {
      out.push_back(p);
    }
  }
  return out;
}

double TimeSeriesStore::latest(const std::string& name,
                               double fallback) const {
  const auto series = find(name);
  if (!series) {
    return fallback;
  }
  const std::lock_guard<std::mutex> lock(series->mutex);
  if (series->count == 0) {
    return fallback;
  }
  const std::size_t cap = series->ring.size();
  return series->ring[(series->head + cap - 1) % cap].value;
}

double TimeSeriesStore::delta(const std::string& name, double window_s,
                              double now_s) const {
  const auto points = window(name, window_s, now_s);
  if (points.size() < 2) {
    return 0.0;
  }
  return points.back().value - points.front().value;
}

double TimeSeriesStore::rate_per_s(const std::string& name, double window_s,
                                   double now_s) const {
  const auto points = window(name, window_s, now_s);
  if (points.size() < 2) {
    return 0.0;
  }
  const double dt = points.back().t_s - points.front().t_s;
  if (dt <= 0.0) {
    return 0.0;
  }
  return (points.back().value - points.front().value) / dt;
}

double TimeSeriesStore::percentile_window(const std::string& name, double p,
                                          double window_s,
                                          double now_s) const {
  std::vector<double> values;
  for (const SeriesPoint& point : window(name, window_s, now_s)) {
    values.push_back(point.value);
  }
  return percentile_inplace(values, p);
}

std::string TimeSeriesStore::to_json(double window_s, double now_s_in) const {
  const double now = now_s_in < 0.0 ? now_s() : now_s_in;
  std::ostringstream os;
  os << strfmt("{\"window_s\":%.3f,\"now_s\":%.3f,\"series\":{", window_s,
               now);
  bool first = true;
  for (const std::string& name : names()) {
    std::vector<double> values;
    const auto points = window(name, window_s, now);
    values.reserve(points.size());
    for (const SeriesPoint& p : points) {
      values.push_back(p.value);
    }
    const double d =
        points.size() >= 2 ? points.back().value - points.front().value : 0.0;
    const double dt =
        points.size() >= 2 ? points.back().t_s - points.front().t_s : 0.0;
    // Each selection leaves `values` a permutation of the window, which is
    // all the next one needs; no copy, no sort.
    const double p50 = percentile_inplace(values, 0.50);
    const double p95 = percentile_inplace(values, 0.95);
    const double p99 = percentile_inplace(values, 0.99);
    os << strfmt(
        "%s\"%s\":{\"points\":%zu,\"latest\":%.6g,\"delta\":%.6g,"
        "\"rate_per_s\":%.6g,\"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g}",
        first ? "" : ",", json_escape(name).c_str(), points.size(),
        points.empty() ? 0.0 : points.back().value, d,
        dt > 0.0 ? d / dt : 0.0, p50, p95, p99);
    first = false;
  }
  os << "}}";
  return os.str();
}

void TimeSeriesStore::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  series_.clear();
}

}  // namespace dlsr::obs
