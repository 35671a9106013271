// Serving metrics: the counters and latency distributions an SLO dashboard
// needs. ServerMetrics is a view over instruments in an obs::MetricsRegistry
// (the process-global one by default) under "serve/..." names, so server
// metrics show up in --metrics-out JSON and Prometheus exports alongside
// training metrics, and snapshot() reads the very same instruments. Every
// mutator is a few atomic updates; memory stays fixed however many requests
// the server handles.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace dlsr::serve {

/// Point-in-time copy of every served metric. Latency percentiles cover all
/// completed requests (cache hits included — a hit is a served request too)
/// and are read from the registry histograms, so they carry
/// obs::Histogram::kRelativeError; counts, means and maxima are exact.
struct MetricsSnapshot {
  std::uint64_t requests = 0;    ///< submitted (admitted or not)
  std::uint64_t completed = 0;   ///< finished OK (incl. cache hits)
  std::uint64_t rejected = 0;    ///< refused at admission (backpressure)
  std::uint64_t timed_out = 0;   ///< deadline expired before completion
  std::uint64_t cache_hits = 0;  ///< served from the LRU result cache
  std::uint64_t batches = 0;     ///< model forward calls
  std::uint64_t tiles = 0;       ///< tiles pushed through forwards
  std::size_t queue_depth = 0;   ///< sampled at the last queue operation
  std::size_t queue_peak = 0;

  /// batch_hist[i] counts forwards with batch size i+1 (size capped at the
  /// configured max batch).
  std::vector<std::uint64_t> batch_hist;
  double mean_batch = 0.0;

  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  double latency_max_ms = 0.0;

  /// Time a request sat queued before its first tile was scheduled.
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p95_ms = 0.0;
  double queue_wait_p99_ms = 0.0;

  /// Model forward wall time per batch.
  double forward_p50_ms = 0.0;
  double forward_p95_ms = 0.0;
  double forward_p99_ms = 0.0;

  /// One-line JSON object (stable key order) for bench/CLI output.
  std::string to_json() const;
};

class ServerMetrics {
 public:
  /// `registry` defaults to the process-global obs registry; pass a private
  /// one in tests that must not observe cross-test state.
  explicit ServerMetrics(std::size_t max_batch = 8,
                         obs::MetricsRegistry* registry = nullptr);

  void on_request();
  void on_rejected();
  void on_timed_out();
  void on_cache_hit();
  void on_batch(std::size_t batch_size);
  /// `trace_id` (when non-zero) becomes the exemplar on the latency
  /// histogram bucket this sample lands in — the metrics → traces link.
  void on_complete(double latency_seconds, std::uint64_t trace_id = 0);
  void on_queue_wait(double wait_seconds);
  void on_forward(double forward_seconds);
  void on_queue_depth(std::size_t depth);

  MetricsSnapshot snapshot() const;

 private:
  // The newest ServerMetrics instance owns the canonical registry names
  // (make_*), so a restarted server does not accumulate into its
  // predecessor's series.
  std::shared_ptr<obs::Counter> requests_c_;
  std::shared_ptr<obs::Counter> completed_c_;
  std::shared_ptr<obs::Counter> rejected_c_;
  std::shared_ptr<obs::Counter> timed_out_c_;
  std::shared_ptr<obs::Counter> cache_hits_c_;
  std::shared_ptr<obs::Counter> batches_c_;
  std::shared_ptr<obs::Gauge> queue_depth_g_;
  std::shared_ptr<obs::Histogram> latency_h_;
  std::shared_ptr<obs::Histogram> queue_wait_h_;
  std::shared_ptr<obs::Histogram> forward_h_;
  std::shared_ptr<obs::Histogram> batch_size_h_;

  // Not exported to the registry.
  std::atomic<std::uint64_t> tiles_{0};
  std::atomic<std::size_t> queue_peak_{0};
  std::vector<std::atomic<std::uint64_t>> batch_hist_;
};

}  // namespace dlsr::serve
