#include "serve/metrics.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "obs/time_series.hpp"

namespace dlsr::serve {

std::string MetricsSnapshot::to_json() const {
  std::string hist = "[";
  for (std::size_t i = 0; i < batch_hist.size(); ++i) {
    hist += strfmt("%s%llu", i ? "," : "",
                   static_cast<unsigned long long>(batch_hist[i]));
  }
  hist += "]";
  return strfmt(
      "{\"requests\":%llu,\"completed\":%llu,\"rejected\":%llu,"
      "\"timed_out\":%llu,\"cache_hits\":%llu,\"batches\":%llu,"
      "\"tiles\":%llu,\"queue_depth\":%zu,\"queue_peak\":%zu,"
      "\"batch_hist\":%s,\"mean_batch\":%.3f,"
      "\"latency_ms\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,"
      "\"mean\":%.3f,\"max\":%.3f},"
      "\"queue_wait_ms\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f},"
      "\"forward_ms\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f}}",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(timed_out),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(tiles), queue_depth, queue_peak,
      hist.c_str(), mean_batch, latency_p50_ms, latency_p95_ms,
      latency_p99_ms, latency_mean_ms, latency_max_ms, queue_wait_p50_ms,
      queue_wait_p95_ms, queue_wait_p99_ms, forward_p50_ms, forward_p95_ms,
      forward_p99_ms);
}

ServerMetrics::ServerMetrics(std::size_t max_batch,
                             obs::MetricsRegistry* registry)
    : batch_hist_(std::max<std::size_t>(max_batch, 1)) {
  auto& reg = registry ? *registry : obs::MetricsRegistry::global();
  requests_c_ = reg.make_counter("serve/requests");
  completed_c_ = reg.make_counter("serve/completed");
  rejected_c_ = reg.make_counter("serve/rejected");
  timed_out_c_ = reg.make_counter("serve/timed_out");
  cache_hits_c_ = reg.make_counter("serve/cache_hits");
  batches_c_ = reg.make_counter("serve/batches");
  queue_depth_g_ = reg.make_gauge("serve/queue_depth");
  latency_h_ = reg.make_histogram("serve/latency_ms");
  queue_wait_h_ = reg.make_histogram("serve/queue_wait_ms");
  forward_h_ = reg.make_histogram("serve/forward_ms");
  batch_size_h_ = reg.make_histogram("serve/batch_size");
}

void ServerMetrics::on_request() { requests_c_->add(1); }

void ServerMetrics::on_rejected() { rejected_c_->add(1); }

void ServerMetrics::on_timed_out() { timed_out_c_->add(1); }

void ServerMetrics::on_cache_hit() { cache_hits_c_->add(1); }

void ServerMetrics::on_batch(std::size_t batch_size) {
  tiles_.fetch_add(batch_size, std::memory_order_relaxed);
  if (batch_size >= 1) {
    const std::size_t slot = std::min(batch_size, batch_hist_.size()) - 1;
    batch_hist_[slot].fetch_add(1, std::memory_order_relaxed);
  }
  batches_c_->add(1);
  batch_size_h_->observe(static_cast<double>(batch_size));
}

void ServerMetrics::on_complete(double latency_seconds,
                                std::uint64_t trace_id) {
  const double ms = latency_seconds * 1e3;
  latency_h_->observe(ms, trace_id);
  completed_c_->add(1);
  // Rolling series for live p99 / SLO rules (no-op without a telemetry
  // plane attached).
  obs::TimeSeriesStore::global().observe("serve/latency_ms", ms);
}

void ServerMetrics::on_queue_wait(double wait_seconds) {
  const double ms = wait_seconds * 1e3;
  queue_wait_h_->observe(ms);
  obs::TimeSeriesStore::global().observe("serve/queue_wait_ms", ms);
}

void ServerMetrics::on_forward(double forward_seconds) {
  forward_h_->observe(forward_seconds * 1e3);
}

void ServerMetrics::on_queue_depth(std::size_t depth) {
  queue_depth_g_->set(static_cast<double>(depth));
  std::size_t peak = queue_peak_.load(std::memory_order_relaxed);
  while (depth > peak && !queue_peak_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
}

MetricsSnapshot ServerMetrics::snapshot() const {
  MetricsSnapshot snap;
  snap.requests = requests_c_->value();
  snap.completed = completed_c_->value();
  snap.rejected = rejected_c_->value();
  snap.timed_out = timed_out_c_->value();
  snap.cache_hits = cache_hits_c_->value();
  snap.batches = batches_c_->value();
  snap.tiles = tiles_.load(std::memory_order_relaxed);
  snap.queue_depth = static_cast<std::size_t>(queue_depth_g_->value());
  snap.queue_peak = queue_peak_.load(std::memory_order_relaxed);
  snap.batch_hist.reserve(batch_hist_.size());
  for (const auto& n : batch_hist_) {
    snap.batch_hist.push_back(n.load(std::memory_order_relaxed));
  }
  snap.mean_batch = snap.batches ? static_cast<double>(snap.tiles) /
                                       static_cast<double>(snap.batches)
                                 : 0.0;
  const obs::HistogramSnapshot latency = latency_h_->snapshot();
  snap.latency_p50_ms = latency.p50;
  snap.latency_p95_ms = latency.p95;
  snap.latency_p99_ms = latency.p99;
  snap.latency_mean_ms = latency.mean;
  snap.latency_max_ms = latency.max;
  const obs::HistogramSnapshot wait = queue_wait_h_->snapshot();
  snap.queue_wait_p50_ms = wait.p50;
  snap.queue_wait_p95_ms = wait.p95;
  snap.queue_wait_p99_ms = wait.p99;
  const obs::HistogramSnapshot forward = forward_h_->snapshot();
  snap.forward_p50_ms = forward.p50;
  snap.forward_p95_ms = forward.p95;
  snap.forward_p99_ms = forward.p99;
  return snap;
}

}  // namespace dlsr::serve
