#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace dlsr::obs {

namespace {

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

using BucketCounts = std::array<std::uint64_t, Histogram::kBucketCount>;

/// Read-back value of bucket `b`: the midpoint of its sub-bucket (0 for
/// the non-positive bucket).
double bucket_midpoint(std::size_t b) {
  if (b == 0) {
    return 0.0;
  }
  const std::size_t i = b - 1;
  const int exponent =
      Histogram::kMinExponent + static_cast<int>(i / Histogram::kSubBuckets);
  const double sub = static_cast<double>(i % Histogram::kSubBuckets) + 0.5;
  return std::ldexp(1.0 + sub / Histogram::kSubBuckets, exponent);
}

/// The sample of 0-based rank `r` among `n`, as the buckets resolve it.
/// The extreme ranks are the exact min and max.
double value_at_rank(const BucketCounts& counts, std::uint64_t n,
                     std::uint64_t r, double min, double max) {
  if (r == 0) {
    return min;
  }
  if (r + 1 >= n) {
    return max;
  }
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen > r) {
      return std::clamp(bucket_midpoint(b), min, max);
    }
  }
  return max;
}

/// dlsr::percentile's interpolation between neighbouring order statistics,
/// with each order statistic read from the buckets.
double quantile(const BucketCounts& counts, std::uint64_t n, double min,
                double max, double p) {
  const double idx = p * static_cast<double>(n - 1);
  const auto lo = static_cast<std::uint64_t>(idx);
  const std::uint64_t hi = std::min(lo + 1, n - 1);
  const double frac = idx - static_cast<double>(lo);
  return value_at_rank(counts, n, lo, min, max) * (1.0 - frac) +
         value_at_rank(counts, n, hi, min, max) * frac;
}

}  // namespace

std::size_t Histogram::bucket_index(double v) {
  if (!(v > 0.0)) {
    return 0;  // zero, negative or NaN
  }
  // The exponent field picks the octave and the top kSubBucketBits
  // mantissa bits the linear slot within it (the sign bit is 0 here).
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int exponent = static_cast<int>(bits >> 52) - 1023;
  if (exponent < kMinExponent) {
    return 1;  // includes subnormals
  }
  if (exponent >= kMaxExponent) {
    return kBucketCount - 1;  // includes +inf
  }
  const auto sub = static_cast<std::size_t>(bits >> (52 - kSubBucketBits)) &
                   (kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(exponent - kMinExponent) * kSubBuckets +
         sub;
}

void Histogram::observe(double v) {
  // The scalars first, then the buckets with release: a snapshot that
  // counts this sample (acquire) also sees its sum/min/max. Sketch bucket
  // before export bucket, because snapshot() reads them the other way round.
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_release);
  export_buckets_[histogram_bucket_index(v)].fetch_add(
      1, std::memory_order_release);
  count_.fetch_add(1, std::memory_order_relaxed);
}

void Histogram::observe(double v, std::uint64_t exemplar_trace_id) {
  // Exemplar before the counts, so a snapshot that sees the sample's
  // export bucket occupied also sees its exemplar.
  if (exemplar_trace_id != 0) {
    const std::lock_guard<std::mutex> lock(exemplar_mutex_);
    exemplars_[histogram_bucket_index(v)] = Exemplar{exemplar_trace_id, v};
  }
  observe(v);
}

std::size_t Histogram::count() const {
  return static_cast<std::size_t>(count_.load(std::memory_order_relaxed));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t i = 0; i < kExportBuckets; ++i) {
    snap.buckets[i] = static_cast<std::size_t>(
        export_buckets_[i].load(std::memory_order_acquire));
  }
  BucketCounts counts{};
  std::uint64_t n = 0;
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_acquire);
    n += counts[b];
  }
  {
    const std::lock_guard<std::mutex> lock(exemplar_mutex_);
    snap.exemplars = exemplars_;
  }
  snap.count = static_cast<std::size_t>(n);
  if (n == 0) {
    return snap;
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.mean = snap.sum / static_cast<double>(n);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  snap.p50 = quantile(counts, n, snap.min, snap.max, 0.50);
  snap.p95 = quantile(counts, n, snap.min, snap.max, 0.95);
  snap.p99 = quantile(counts, n, snap.min, snap.max, 0.99);
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::shared_ptr<Counter> MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_shared<Counter>();
  }
  return slot;
}

std::shared_ptr<Gauge> MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_shared<Gauge>();
  }
  return slot;
}

std::shared_ptr<Histogram> MetricsRegistry::histogram(
    const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_shared<Histogram>();
  }
  return slot;
}

std::shared_ptr<Counter> MetricsRegistry::make_counter(
    const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto made = std::make_shared<Counter>();
  counters_[name] = made;
  return made;
}

std::shared_ptr<Gauge> MetricsRegistry::make_gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto made = std::make_shared<Gauge>();
  gauges_[name] = made;
  return made;
}

std::shared_ptr<Histogram> MetricsRegistry::make_histogram(
    const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto made = std::make_shared<Histogram>();
  histograms_[name] = made;
  return made;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
  return out;
}

/// Prometheus metric name: "dlsr_" + name with /.- mapped to _.
std::string prom_name(const std::string& name) {
  std::string out = "dlsr_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << json_string(name) << ":"
       << strfmt("%llu", static_cast<unsigned long long>(c->value()));
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << json_string(name) << ":"
       << strfmt("%.6g", g->value());
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    os << (first ? "" : ",") << json_string(name)
       << strfmt(":{\"count\":%zu,\"mean\":%.6g,\"min\":%.6g,\"max\":%.6g,"
                 "\"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g,\"buckets\":[",
                 s.count, s.mean, s.min, s.max, s.p50, s.p95, s.p99);
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      if (i < kHistogramBucketBounds.size()) {
        os << strfmt("%s{\"le\":%g,\"count\":%zu", i ? "," : "",
                     kHistogramBucketBounds[i], s.buckets[i]);
      } else {
        os << strfmt(",{\"le\":null,\"count\":%zu", s.buckets[i]);
      }
      if (s.exemplars[i].valid()) {
        os << strfmt(",\"exemplar\":{\"trace_id\":%llu,\"value\":%.6g}",
                     static_cast<unsigned long long>(s.exemplars[i].trace_id),
                     s.exemplars[i].value);
      }
      os << "}";
    }
    os << "]}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::to_prometheus() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    const std::string p = prom_name(name);
    os << "# HELP " << p << " dlsr counter " << name << "\n"
       << "# TYPE " << p << " counter\n"
       << p << " "
       << strfmt("%llu", static_cast<unsigned long long>(c->value()))
       << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = prom_name(name);
    os << "# HELP " << p << " dlsr gauge " << name << "\n"
       << "# TYPE " << p << " gauge\n"
       << p << " " << strfmt("%.6g", g->value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = prom_name(name);
    const HistogramSnapshot s = h->snapshot();
    os << "# HELP " << p << " dlsr histogram " << name << "\n"
       << "# TYPE " << p << " histogram\n";
    std::size_t cumulative = 0;
    for (std::size_t i = 0; i < kHistogramBucketBounds.size(); ++i) {
      cumulative += s.buckets[i];
      os << p
         << strfmt("_bucket{le=\"%g\"} %zu", kHistogramBucketBounds[i],
                   cumulative);
      // OpenMetrics exemplar: "<line> # {trace_id=\"...\"} <value>". Only
      // emitted when a traced sample landed in this (non-cumulative)
      // bucket, so plain-Prometheus scrapers of untraced runs see the
      // classic exposition byte for byte.
      if (s.exemplars[i].valid()) {
        os << strfmt(" # {trace_id=\"%llu\"} %.6g",
                     static_cast<unsigned long long>(s.exemplars[i].trace_id),
                     s.exemplars[i].value);
      }
      os << "\n";
    }
    os << p << strfmt("_bucket{le=\"+Inf\"} %zu", s.count);
    if (s.exemplars[kHistogramBucketBounds.size()].valid()) {
      const Exemplar& e = s.exemplars[kHistogramBucketBounds.size()];
      os << strfmt(" # {trace_id=\"%llu\"} %.6g",
                   static_cast<unsigned long long>(e.trace_id), e.value);
    }
    os << "\n";
    os << p << "_sum " << strfmt("%.6g", s.sum) << "\n";
    os << p << "_count " << strfmt("%zu", s.count) << "\n";
  }
  return os.str();
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counter_values() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.emplace_back(name, c->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauge_values()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.emplace_back(name, g->value());
  }
  return out;
}

std::vector<std::pair<std::string, std::size_t>>
MetricsRegistry::histogram_counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::size_t>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.emplace_back(name, h->count());
  }
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  DLSR_CHECK(out.good(), "cannot open " + path + " for writing");
  out << to_json() << "\n";
  DLSR_CHECK(out.good(), "failed writing " + path);
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace dlsr::obs
