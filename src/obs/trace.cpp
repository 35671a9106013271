#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace dlsr::obs {

namespace detail {
std::atomic<bool> g_tracing_enabled{false};
std::atomic<bool> g_span_ring_enabled{false};
std::atomic<bool> g_trace_store_enabled{false};
std::atomic<std::uint64_t> g_next_id{0};

std::string with_context_args(std::string args, const TraceContext& ctx) {
  const std::string ids =
      strfmt("\"trace_id\":%llu,\"span_id\":%llu,\"parent_span_id\":%llu",
             static_cast<unsigned long long>(ctx.trace_id),
             static_cast<unsigned long long>(ctx.span_id),
             static_cast<unsigned long long>(ctx.parent_span_id));
  if (args.empty()) {
    return "{" + ids + "}";
  }
  // args is a JSON object ("{...}"): splice the ids in after the brace.
  if (args.size() >= 2 && args.front() == '{') {
    const bool empty_object = args[1] == '}';
    args.insert(1, empty_object ? ids : ids + ",");
    return args;
  }
  return "{" + ids + "}";
}
}  // namespace detail

namespace {

/// Thread-local binding of this thread to its ring buffer, invalidated by
/// generation whenever the tracer is (re-)enabled or reset.
struct LocalBinding {
  std::shared_ptr<void> buffer;  // type-erased ThreadBuffer
  std::uint64_t generation = ~0ull;
};
thread_local LocalBinding t_binding;

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::ThreadBuffer::push(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mutex);
  if (capacity == 0) {
    return;
  }
  if (count == capacity) {
    ++dropped;  // overwrite the oldest event; the ring keeps the tail
  } else {
    ++count;
  }
  ring[head] = std::move(event);
  head = (head + 1) % capacity;
}

void Tracer::enable(std::size_t ring_capacity) {
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    DLSR_CHECK(ring_capacity > 0, "tracer ring capacity must be > 0");
    buffers_.clear();
    capacity_ = ring_capacity;
    export_ts_offset_us_ = 0.0;
    ++generation_;
    epoch_ = std::chrono::steady_clock::now();
  }
  detail::g_tracing_enabled.store(true, std::memory_order_release);
}

void Tracer::disable() {
  detail::g_tracing_enabled.store(false, std::memory_order_release);
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  buffers_.clear();
  ++generation_;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // Fast path: this thread already holds a buffer from the current
  // generation — no registry lock.
  if (t_binding.buffer &&
      t_binding.generation == generation_.load(std::memory_order_acquire)) {
    return *static_cast<ThreadBuffer*>(t_binding.buffer.get());
  }
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  auto buffer = std::make_shared<ThreadBuffer>();
  buffer->capacity = capacity_;
  buffer->ring.resize(capacity_);
  buffer->tid = static_cast<std::uint32_t>(buffers_.size());
  buffers_.push_back(buffer);
  t_binding.buffer = buffer;
  t_binding.generation = generation_.load(std::memory_order_relaxed);
  return *buffer;
}

void Tracer::record(TraceEvent event) { local_buffer().push(std::move(event)); }

void Tracer::complete(std::string name, const char* cat, double ts_us,
                      double dur_us, std::string args, std::uint32_t pid,
                      std::int64_t tid) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.phase = EventPhase::Complete;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.pid = pid;
  e.tid_override = tid;
  e.args = std::move(args);
  record(std::move(e));
}

void Tracer::instant(std::string name, const char* cat, std::string args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.phase = EventPhase::Instant;
  e.ts_us = now_us();
  e.args = std::move(args);
  record(std::move(e));
}

void Tracer::counter(std::string name, const char* cat, double value) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.phase = EventPhase::Counter;
  e.ts_us = now_us();
  e.value = value;
  record(std::move(e));
}

void Tracer::flow(EventPhase phase, std::uint64_t flow_id, std::string name,
                  const char* cat, double ts_us, std::uint32_t pid,
                  std::int64_t tid) {
  DLSR_CHECK(phase == EventPhase::FlowStart || phase == EventPhase::FlowStep ||
                 phase == EventPhase::FlowFinish,
             "Tracer::flow requires a flow phase (s/t/f)");
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.phase = phase;
  e.ts_us = ts_us;
  e.flow_id = flow_id;
  e.pid = pid;
  e.tid_override = tid;
  record(std::move(e));
}

std::size_t Tracer::event_count() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::size_t total = 0;
  for (const auto& b : buffers_) {
    const std::lock_guard<std::mutex> buffer_lock(b->mutex);
    total += b->count;
  }
  return total;
}

std::size_t Tracer::thread_count() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return buffers_.size();
}

std::size_t Tracer::dropped_count() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::size_t total = 0;
  for (const auto& b : buffers_) {
    const std::lock_guard<std::mutex> buffer_lock(b->mutex);
    total += b->dropped;
  }
  return total;
}

std::string Tracer::to_chrome_trace_json() const {
  struct Snapshot {
    TraceEvent event;
    std::uint32_t tid;
  };
  std::vector<Snapshot> events;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& b : buffers_) {
      const std::lock_guard<std::mutex> buffer_lock(b->mutex);
      // Oldest-first walk of the ring.
      const std::size_t start = (b->head + b->capacity - b->count) % b->capacity;
      for (std::size_t i = 0; i < b->count; ++i) {
        events.push_back(
            {b->ring[(start + i) % b->capacity], b->tid});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Snapshot& a, const Snapshot& b) {
                     return a.event.ts_us < b.event.ts_us;
                   });

  std::ostringstream os;
  os << "[\n";
  os << strfmt(R"({"ph":"M","pid":%u,"name":"process_name",)"
               R"("args":{"name":"wall clock"}})",
               kWallPid);
  os << ",\n";
  os << strfmt(R"({"ph":"M","pid":%u,"name":"process_name",)"
               R"("args":{"name":"simulated time"}})",
               kSimPid);
  for (const Snapshot& s : events) {
    const TraceEvent& e = s.event;
    const std::uint32_t tid =
        e.tid_override >= 0 ? static_cast<std::uint32_t>(e.tid_override)
                            : s.tid;
    os << ",\n";
    os << strfmt(R"({"name":"%s","cat":"%s","ph":"%c","pid":%u,"tid":%u,)"
                 R"("ts":%.3f)",
                 json_escape(e.name).c_str(), json_escape(e.cat).c_str(),
                 static_cast<char>(e.phase), e.pid, tid,
                 e.ts_us + export_ts_offset_us_);
    switch (e.phase) {
      case EventPhase::Complete:
        os << strfmt(R"(,"dur":%.3f)", e.dur_us);
        if (!e.args.empty()) {
          os << ",\"args\":" << e.args;
        }
        break;
      case EventPhase::Instant:
        os << R"(,"s":"t")";
        if (!e.args.empty()) {
          os << ",\"args\":" << e.args;
        }
        break;
      case EventPhase::Counter:
        os << strfmt(R"(,"args":{"value":%g})", e.value);
        break;
      case EventPhase::FlowStart:
      case EventPhase::FlowStep:
      case EventPhase::FlowFinish:
        // Flow arrows join on (cat, id); "bp":"e" binds each endpoint to
        // the complete event enclosing its timestamp on (pid, tid).
        os << strfmt(R"(,"id":%llu,"bp":"e")",
                     static_cast<unsigned long long>(e.flow_id));
        break;
    }
    os << "}";
  }
  os << "\n]\n";
  return os.str();
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  DLSR_CHECK(out.good(), "cannot open " + path + " for writing");
  out << to_chrome_trace_json();
  DLSR_CHECK(out.good(), "failed writing " + path);
}

}  // namespace dlsr::obs
