// dlsr::obs — unified metrics registry.
//
// Three instrument kinds, all thread-safe:
//   Counter   — monotonically increasing integer (atomic add).
//   Gauge     — last-set floating-point value (atomic store).
//   Histogram — bounded sample distribution: fixed log-linear buckets with
//               atomic counts; snapshot() reads count/mean/min/max exactly
//               and p50/p95/p99 within Histogram::kRelativeError.
//
// A MetricsRegistry maps names ("serve/latency_ms") to shared instruments
// and exports everything as a JSON object or Prometheus text. Subsystems
// register their instruments into the process-global registry instead of
// keeping private copies: serve::ServerMetrics, core::MetricsLog, and the
// training/simulation step phases all publish here, so one
// `--metrics-out` file covers the whole process.
//
// make_*() creates a fresh instrument and (re-)binds the name to it —
// per-instance metrics (one server's latencies) replace a predecessor's
// registration while the old owner keeps its shared_ptr. counter()/gauge()/
// histogram() get-or-create shared process-wide instruments.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dlsr::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log-spaced export-bucket upper bounds (inclusive, "le" semantics).
/// Samples above the last bound land in an overflow bucket, so a snapshot
/// can be re-aggregated offline without the raw samples. One shared
/// ladder covers every unit the registry holds (ms, counts, ratios).
inline constexpr std::array<double, 12> kHistogramBucketBounds = {
    0.001, 0.01, 0.1, 0.5, 1.0,   5.0,
    10.0,  50.0, 100.0, 500.0, 1000.0, 10000.0};

/// OpenMetrics exemplar: the trace id of one sample that landed in a
/// bucket. Closes the metrics→traces loop — the latency histogram's top
/// bucket names a trace_id retrievable from /tracez or the trace file.
struct Exemplar {
  std::uint64_t trace_id = 0;
  double value = 0.0;
  bool valid() const { return trace_id != 0; }
};

struct HistogramSnapshot {
  std::size_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Per-bucket (non-cumulative) sample counts; index i counts samples in
  /// (bounds[i-1], bounds[i]], with one trailing overflow bucket.
  std::array<std::size_t, kHistogramBucketBounds.size() + 1> buckets{};
  /// Last exemplar seen per bucket (invalid when no traced sample landed
  /// there). Same indexing as `buckets`.
  std::array<Exemplar, kHistogramBucketBounds.size() + 1> exemplars{};
};

/// Export-bucket index for a sample value (shared by observe and tests).
inline std::size_t histogram_bucket_index(double v) {
  for (std::size_t i = 0; i < kHistogramBucketBounds.size(); ++i) {
    if (v <= kHistogramBucketBounds[i]) {
      return i;
    }
  }
  return kHistogramBucketBounds.size();  // overflow
}

/// Bounded, lock-free sample distribution (HDR-histogram style). A positive
/// sample lands in one of kSubBuckets linear slots of its power-of-two
/// octave, found from the double's exponent and top mantissa bits; zero,
/// negative and NaN samples share bucket 0. Memory is fixed (~30 KiB) no
/// matter how many samples arrive, observe() is a handful of atomic
/// updates, and snapshot() costs O(buckets).
///
/// count, sum, min and max are exact. A quantile reads back as the
/// midpoint of the bucket holding that rank, clamped to [min, max], so for
/// samples in [2^kMinExponent, 2^kMaxExponent) it is within
/// kRelativeError of the order statistic dlsr::percentile would pick;
/// values outside that range clamp to the end buckets.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 6;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  /// Half a sub-bucket's width relative to its lower edge: 2^-7 = 0.78 %.
  static constexpr double kRelativeError = 1.0 / (2.0 * kSubBuckets);
  static constexpr int kMinExponent = -20;  // 2^-20 ~ 9.5e-7
  static constexpr int kMaxExponent = 40;   // 2^40 ~ 1.1e12
  static constexpr std::size_t kBucketCount =
      1 + static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets;

  /// Bucket of a sample: 0 for v <= 0 or NaN, else 1 + octave * kSubBuckets
  /// + sub-bucket, clamped to the tracked range.
  static std::size_t bucket_index(double v);

  void observe(double v);
  /// observe() plus an exemplar: remembers `exemplar_trace_id` as the last
  /// traced sample of v's export bucket (ignored when the id is 0). Only
  /// this overload takes a lock, and only when the id is non-zero.
  void observe(double v, std::uint64_t exemplar_trace_id);
  /// Samples observed so far (one atomic load).
  std::size_t count() const;
  /// count equals the sum of the bucket counts the snapshot read; under
  /// concurrent observe() the export buckets never count more than that.
  HistogramSnapshot snapshot() const;

 private:
  static constexpr std::size_t kExportBuckets =
      kHistogramBucketBounds.size() + 1;

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::array<std::atomic<std::uint64_t>, kExportBuckets> export_buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};

  mutable std::mutex exemplar_mutex_;
  std::array<Exemplar, kExportBuckets> exemplars_{};
};

class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem publishes into.
  static MetricsRegistry& global();

  /// Get-or-create shared instruments.
  std::shared_ptr<Counter> counter(const std::string& name);
  std::shared_ptr<Gauge> gauge(const std::string& name);
  std::shared_ptr<Histogram> histogram(const std::string& name);

  /// Create fresh instruments and (re-)bind `name` to them.
  std::shared_ptr<Counter> make_counter(const std::string& name);
  std::shared_ptr<Gauge> make_gauge(const std::string& name);
  std::shared_ptr<Histogram> make_histogram(const std::string& name);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,min,
  /// max,p50,p95,p99,buckets:[{"le":bound|null,"count":n},...]}}} — stable
  /// (sorted) key order; bucket list covers kHistogramBucketBounds plus the
  /// overflow bucket ("le":null).
  std::string to_json() const;

  /// Prometheus text exposition with # HELP/# TYPE lines: counters and
  /// gauges as-is, histograms in full histogram form — cumulative
  /// `_bucket{le="..."}` lines over kHistogramBucketBounds plus
  /// `le="+Inf"`, then `_sum` and `_count`. Names are sanitized and
  /// prefixed "dlsr_".
  std::string to_prometheus() const;

  /// Point-in-time enumeration of every registered instrument — the
  /// telemetry sampler's feed into TimeSeriesStore. Sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;
  std::vector<std::pair<std::string, double>> gauge_values() const;
  /// Histogram names with their total observation counts (one atomic load
  /// each, no snapshot; the sampler turns count deltas into rates).
  std::vector<std::pair<std::string, std::size_t>> histogram_counts() const;

  /// Writes to_json() to a file (throws dlsr::Error on failure).
  void write_json(const std::string& path) const;

  /// Drops every registration (owners keep their shared_ptrs).
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Counter>> counters_;
  std::map<std::string, std::shared_ptr<Gauge>> gauges_;
  std::map<std::string, std::shared_ptr<Histogram>> histograms_;
};

}  // namespace dlsr::obs
