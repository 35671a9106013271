#include "obs/trace_store.hpp"

#include <algorithm>
#include <sstream>

#include "common/strings.hpp"

namespace dlsr::obs {

namespace detail {

// Out-of-line hook referenced from ScopedSpan::finish (trace.hpp): mirrors
// context-carrying spans into the global store when it is enabled.
void store_span(const TraceContext& ctx, const char* name, const char* cat,
                double ts_us, double dur_us) {
  TraceStore::global().record_span(ctx, name, cat, ts_us, dur_us);
}

}  // namespace detail

namespace {

void append_trace_header(std::ostringstream& os, const StoredTrace& t) {
  os << strfmt("{\"trace_id\":%llu,\"duration_ms\":%.3f,\"status\":\"%s\","
               "\"reason\":\"%s\",\"error\":%s,\"span_count\":%zu",
               static_cast<unsigned long long>(t.trace_id), t.duration_ms,
               json_escape(t.status).c_str(), json_escape(t.reason).c_str(),
               t.error ? "true" : "false", t.spans.size());
}

}  // namespace

TraceStore& TraceStore::global() {
  static TraceStore store;
  return store;
}

void TraceStore::enable() { enable(Config()); }

void TraceStore::enable(const Config& config) {
  const std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  enabled_ = true;
  finished_ = 0;
  pending_.clear();
  retained_.clear();
  if (this == &global()) {
    detail::g_trace_store_enabled.store(true, std::memory_order_release);
  }
}

void TraceStore::disable() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (this == &global()) {
    detail::g_trace_store_enabled.store(false, std::memory_order_release);
  }
  enabled_ = false;
  pending_.clear();
  retained_.clear();
}

bool TraceStore::enabled() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return enabled_;
}

void TraceStore::record_span(const TraceContext& ctx, std::string name,
                             std::string cat, double ts_us, double dur_us) {
  if (!ctx.valid()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) {
    return;
  }
  auto it = pending_.find(ctx.trace_id);
  if (it == pending_.end()) {
    if (pending_.size() >= config_.max_pending) {
      return;  // bounded: drop spans of traces beyond the pending cap
    }
    StoredTrace t;
    t.trace_id = ctx.trace_id;
    it = pending_.emplace(ctx.trace_id, std::move(t)).first;
  }
  if (it->second.spans.size() >= config_.max_spans_per_trace) {
    return;
  }
  StoredSpan span;
  span.name = std::move(name);
  span.cat = std::move(cat);
  span.ts_us = ts_us;
  span.dur_us = dur_us;
  span.span_id = ctx.span_id;
  span.parent_span_id = ctx.parent_span_id;
  it->second.spans.push_back(std::move(span));
}

void TraceStore::finish(std::uint64_t trace_id, double duration_ms,
                        std::string status, bool error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) {
    return;
  }
  StoredTrace t;
  const auto it = pending_.find(trace_id);
  if (it != pending_.end()) {
    t = std::move(it->second);
    pending_.erase(it);
  }
  t.trace_id = trace_id;
  t.duration_ms = duration_ms;
  t.status = std::move(status);
  t.error = error;
  ++finished_;

  // Tail-sampling verdict: errors always, top-k slowest always, then a
  // 1-in-N sample of the rest. The verdict is sticky in `reason` so the
  // eviction pass can prefer dropping sampled traces.
  if (error) {
    t.reason = "error";
  } else {
    std::size_t slower = 0;
    for (const StoredTrace& r : retained_) {
      slower += !r.error && r.duration_ms >= t.duration_ms;
    }
    if (slower < config_.top_k_slow) {
      t.reason = "slow";
    } else if (config_.sample_every > 0 &&
               finished_ % config_.sample_every == 0) {
      t.reason = "sampled";
    } else {
      return;  // dropped
    }
  }
  retained_.push_back(std::move(t));
  evict_locked();
}

void TraceStore::discard(std::uint64_t trace_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pending_.erase(trace_id);
}

/// Drops entries until the retained set fits max_retained: oldest sampled
/// first, then the oldest slow trace no longer in the top k, then plain
/// oldest. O(retained) per eviction, and retained is small by construction.
void TraceStore::evict_locked() {
  while (retained_.size() > config_.max_retained) {
    auto victim = retained_.end();
    for (auto it = retained_.begin(); it != retained_.end(); ++it) {
      if (it->reason == "sampled") {
        victim = it;
        break;
      }
    }
    if (victim == retained_.end()) {
      // kth largest duration among non-error entries marks the top-k floor.
      std::vector<double> durations;
      for (const StoredTrace& r : retained_) {
        if (!r.error) {
          durations.push_back(r.duration_ms);
        }
      }
      std::sort(durations.begin(), durations.end(), std::greater<>());
      const double floor_ms =
          durations.size() > config_.top_k_slow && config_.top_k_slow > 0
              ? durations[config_.top_k_slow - 1]
              : -1.0;
      for (auto it = retained_.begin(); it != retained_.end(); ++it) {
        if (!it->error && it->duration_ms < floor_ms) {
          victim = it;
          break;
        }
      }
    }
    if (victim == retained_.end()) {
      victim = retained_.begin();
    }
    retained_.erase(victim);
  }
}

std::size_t TraceStore::retained_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return retained_.size();
}

std::size_t TraceStore::pending_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

std::uint64_t TraceStore::finished_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

std::vector<StoredTrace> TraceStore::snapshot() const {
  std::vector<StoredTrace> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.assign(retained_.begin(), retained_.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const StoredTrace& a, const StoredTrace& b) {
                     return a.duration_ms > b.duration_ms;
                   });
  return out;
}

bool TraceStore::lookup(std::uint64_t trace_id, StoredTrace* out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const StoredTrace& t : retained_) {
    if (t.trace_id == trace_id) {
      if (out != nullptr) {
        *out = t;
      }
      return true;
    }
  }
  return false;
}

std::string TraceStore::to_json(std::size_t limit) const {
  const std::vector<StoredTrace> traces = snapshot();
  std::uint64_t finished = 0;
  std::size_t pending = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    finished = finished_;
    pending = pending_.size();
  }
  std::ostringstream os;
  os << strfmt("{\"schema\":\"dlsr-tracez-v1\",\"finished\":%llu,"
               "\"retained\":%zu,\"pending\":%zu,\"traces\":[",
               static_cast<unsigned long long>(finished), traces.size(),
               pending);
  const std::size_t n = std::min(limit, traces.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      os << ",";
    }
    append_trace_header(os, traces[i]);
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string TraceStore::trace_json(std::uint64_t trace_id) const {
  StoredTrace t;
  if (!lookup(trace_id, &t)) {
    return {};
  }
  std::ostringstream os;
  append_trace_header(os, t);
  os << ",\"spans\":[";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const StoredSpan& s = t.spans[i];
    os << strfmt("%s{\"name\":\"%s\",\"cat\":\"%s\",\"ts_us\":%.3f,"
                 "\"dur_us\":%.3f,\"span_id\":%llu,\"parent_span_id\":%llu}",
                 i ? "," : "", json_escape(s.name).c_str(),
                 json_escape(s.cat).c_str(), s.ts_us, s.dur_us,
                 static_cast<unsigned long long>(s.span_id),
                 static_cast<unsigned long long>(s.parent_span_id));
  }
  os << "]}";
  return os.str();
}

}  // namespace dlsr::obs
