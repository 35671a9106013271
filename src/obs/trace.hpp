// dlsr::obs — unified span tracer.
//
// A process-global tracer with per-thread ring buffers. Instrumented code
// opens nestable scoped spans (OBS_SPAN), emits instant events and counter
// samples; the tracer exports everything as Chrome trace-event JSON loadable
// in Perfetto / chrome://tracing. One trace file therefore shows a training
// step, a simulated allreduce schedule, and a served request side by side.
//
// Causal identity: every live span carries a TraceContext (trace_id /
// span_id / parent_span_id). The current context propagates thread-locally
// through nested spans; work that crosses a queue or thread pool carries the
// context in its job object and re-installs it with ScopedContext on the
// consumer side. Flow events ('s'/'t'/'f') draw the causal arrows across
// threads, lanes, and — after `dlsr trace-merge` — ranks.
//
// Cost model:
//   - Disabled (the default): every macro boils down to one relaxed atomic
//     load and a branch. No allocation, no lock, no thread registration —
//     bench/obs_overhead verifies the hot path is indistinguishable from
//     uninstrumented code.
//   - Enabled: events append to a per-thread ring buffer under that
//     buffer's own (uncontended) mutex; when the ring fills, the oldest
//     events are overwritten and counted as dropped.
//
// Wall-clock events record microseconds since enable() on pid 0. Callers
// with their own clock (the discrete-event simulator) can emit complete
// events with explicit timestamps on a different pid, keeping simulated
// time and wall time separated per-process in the viewer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dlsr::obs {

/// Causal identity of one unit of work. trace_id groups every span belonging
/// to one request (or one logical operation); span_id names a single span;
/// parent_span_id points at the span that caused it. A zero trace_id means
/// "not part of any trace".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  bool valid() const { return trace_id != 0; }
};

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
/// Set by the flight recorder when span begin/end ids should land in its
/// crash ring (reconstructs per-thread active-span stacks post mortem).
extern std::atomic<bool> g_span_ring_enabled;
/// Set by TraceStore::set_enabled: finished spans with a valid context are
/// mirrored into the in-memory request-trace store for /tracez.
extern std::atomic<bool> g_trace_store_enabled;
/// Process-wide id well for trace and span ids (never hands out 0).
extern std::atomic<std::uint64_t> g_next_id;
/// The calling thread's current context. Inline and constinit, so each
/// use is a direct TLS access with no dynamic-init wrapper call (the extern
/// form's wrapper trips UBSan's null-store check in ASan builds).
inline thread_local constinit TraceContext t_context{};

// Out-of-line hooks so this header does not pull in the flight recorder or
// the trace store (implemented in flight_recorder.cpp / trace_store.cpp).
void span_ring_begin(const char* name, std::uint64_t span_id);
void span_ring_end(const char* name, std::uint64_t span_id);
void store_span(const TraceContext& ctx, const char* name, const char* cat,
                double ts_us, double dur_us);
/// Splices {"trace_id":T,"span_id":S,"parent_span_id":P} into an existing
/// JSON-object args string (or creates one). Ids are emitted as JSON numbers
/// so the trace parser surfaces them as numeric args.
std::string with_context_args(std::string args, const TraceContext& ctx);
}  // namespace detail

/// Attaches trace_id/span_id/parent_span_id to a manually emitted event's
/// JSON args (complete events emitted with explicit timestamps, e.g. a
/// request's root span on its request lane).
inline std::string context_args(std::string args, const TraceContext& ctx) {
  return detail::with_context_args(std::move(args), ctx);
}

/// The one check on every instrumentation hot path.
inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Mints a fresh trace id (root of a new causal chain).
inline std::uint64_t new_trace_id() {
  return detail::g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Mints a fresh span id.
inline std::uint64_t new_span_id() {
  return detail::g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The calling thread's current context ({0,0,0} when outside any trace).
inline TraceContext current_context() { return detail::t_context; }
inline void set_current_context(const TraceContext& ctx) {
  detail::t_context = ctx;
}

/// RAII queue-handoff: installs `ctx` as the thread's current context for
/// the enclosing scope and restores the previous one on exit. The consumer
/// side of a queue wraps its per-job work in one of these so spans opened
/// there parent under the producer's span.
class ScopedContext {
 public:
  explicit ScopedContext(const TraceContext& ctx)
      : saved_(detail::t_context) {
    detail::t_context = ctx;
  }
  ~ScopedContext() { detail::t_context = saved_; }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  TraceContext saved_;
};

/// Trace-event process ids: wall-clock events vs simulated-time events.
inline constexpr std::uint32_t kWallPid = 0;
inline constexpr std::uint32_t kSimPid = 1;

/// First tid of the simulated comm-slot lanes: in-flight comm slot s traces
/// on lane kCommLaneBase + s (pid kSimPid). Shared between the comm backends
/// that emit those lanes and the analyzers that fold them back together.
inline constexpr std::int64_t kCommLaneBase = 1000;

/// First tid of the serve request lanes: each request's root span lands on
/// lane kRequestLaneBase + (trace_id % kRequestLaneCount) so overlapping
/// requests do not fake-nest on one worker lane.
inline constexpr std::int64_t kRequestLaneBase = 2000;
inline constexpr std::int64_t kRequestLaneCount = 16;

/// Escapes `s` for the inside of a JSON string literal: quote and
/// backslash, \n \t \r by name, every other control character as \u00XX.
/// The one escape every obs writer (trace export, trace-merge, /tracez,
/// /seriesz) uses, so what they write always re-parses.
std::string json_escape(const std::string& s);

enum class EventPhase : char {
  Complete = 'X',
  Instant = 'i',
  Counter = 'C',
  FlowStart = 's',
  FlowStep = 't',
  FlowFinish = 'f',
};

struct TraceEvent {
  std::string name;
  const char* cat = "";  ///< static string (category / module name)
  EventPhase phase = EventPhase::Complete;
  double ts_us = 0.0;
  double dur_us = 0.0;   ///< Complete events only
  double value = 0.0;    ///< Counter events only
  std::uint64_t flow_id = 0;  ///< Flow events only; joins s/t/f chains
  std::uint32_t pid = kWallPid;
  /// Explicit lane: exported instead of the producer thread's id when >= 0.
  /// Simulated schedules use it to give each in-flight comm slot a lane.
  std::int64_t tid_override = -1;
  std::string args;      ///< JSON object text, or empty
};

class Tracer {
 public:
  static Tracer& instance();

  /// Starts recording: resets the clock epoch, drops previous events, and
  /// sets the per-thread ring capacity (events per producer thread).
  void enable(std::size_t ring_capacity = 1 << 15);

  /// Stops recording. Already-buffered events remain exportable.
  void disable();

  /// Drops all buffers and events (does not change enabled state).
  void reset();

  /// Microseconds since enable() on the steady clock.
  double now_us() const;

  /// Appends a complete ("X") event. `ts_us`/`dur_us` are caller-provided,
  /// so simulated-time schedules can be mirrored in (use pid = kSimPid).
  /// `tid >= 0` pins the event to an explicit lane instead of the calling
  /// thread's id.
  void complete(std::string name, const char* cat, double ts_us,
                double dur_us, std::string args = {},
                std::uint32_t pid = kWallPid, std::int64_t tid = -1);

  /// Appends an instant ("i") event at now_us().
  void instant(std::string name, const char* cat, std::string args = {});

  /// Appends a counter ("C") sample at now_us().
  void counter(std::string name, const char* cat, double value);

  /// Appends a flow event ('s'/'t'/'f'). Flow events with the same
  /// (cat, flow_id) join into one arrow chain; each binds to the complete
  /// event enclosing its timestamp on (pid, tid) ("bp":"e" semantics).
  void flow(EventPhase phase, std::uint64_t flow_id, std::string name,
            const char* cat, double ts_us, std::uint32_t pid = kWallPid,
            std::int64_t tid = -1);

  /// Constant microseconds added to every exported timestamp. Models an
  /// unsynchronized per-rank clock for trace-merge testing: the file's
  /// events (including the clock_sync anchor) all shift together.
  void set_export_ts_offset_us(double offset_us) {
    export_ts_offset_us_ = offset_us;
  }
  double export_ts_offset_us() const { return export_ts_offset_us_; }

  std::size_t event_count() const;
  std::size_t thread_count() const;
  std::size_t dropped_count() const;

  /// All buffered events merged and sorted by timestamp, as a valid Chrome
  /// trace-event JSON array (plus process-name metadata events).
  std::string to_chrome_trace_json() const;

  /// Writes the JSON to a file (throws dlsr::Error on I/O failure).
  void write(const std::string& path) const;

 private:
  struct ThreadBuffer {
    mutable std::mutex mutex;
    std::vector<TraceEvent> ring;  ///< capacity-sized once first used
    std::size_t capacity = 0;
    std::size_t head = 0;   ///< next write slot
    std::size_t count = 0;  ///< live events (<= capacity)
    std::size_t dropped = 0;
    std::uint32_t tid = 0;
    void push(TraceEvent event);
  };

  Tracer() = default;
  ThreadBuffer& local_buffer();
  void record(TraceEvent event);

  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::size_t capacity_ = 1 << 15;
  double export_ts_offset_us_ = 0.0;
  /// Bumped by enable()/reset(); lets threads detect a stale binding with
  /// one relaxed load instead of taking the registry mutex per event.
  std::atomic<std::uint64_t> generation_{0};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII span. Construction snapshots the start time when tracing is
/// enabled; destruction (or finish()) records one complete event covering
/// the scope. Nesting follows scope nesting. When the thread carries a
/// TraceContext the span joins that trace: it gets a span id, parents under
/// the current span, installs itself as the current context for the scope,
/// and its exported args carry trace_id/span_id/parent_span_id. When
/// tracing is disabled the object is inert: no clock read, no allocation.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name) {
    if (!tracing_enabled()) {
      return;
    }
    active_ = true;
    cat_ = cat;
    name_ = name;
    parent_ = detail::t_context;
    if (parent_.valid()) {
      span_id_ = new_span_id();
      detail::t_context =
          TraceContext{parent_.trace_id, span_id_, parent_.span_id};
      installed_ = true;
    }
    if (detail::g_span_ring_enabled.load(std::memory_order_relaxed)) {
      if (span_id_ == 0) {
        span_id_ = new_span_id();
      }
      detail::span_ring_begin(name, span_id_);
    }
    start_us_ = Tracer::instance().now_us();
  }
  ~ScopedSpan() { finish(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a JSON-object args string ({"bytes":123}); only kept when the
  /// span is live, so callers guard expensive formatting on active().
  void set_args(std::string args_json) {
    if (active_) {
      args_ = std::move(args_json);
    }
  }
  bool active() const { return active_; }

  /// The context this span established ({0,...} when outside any trace).
  TraceContext context() const {
    return installed_ ? TraceContext{parent_.trace_id, span_id_,
                                     parent_.span_id}
                      : TraceContext{};
  }

  void finish() {
    if (!active_) {
      return;
    }
    active_ = false;
    if (installed_) {
      detail::t_context = parent_;
      installed_ = false;
    }
    if (span_id_ != 0 &&
        detail::g_span_ring_enabled.load(std::memory_order_relaxed)) {
      detail::span_ring_end(name_, span_id_);
    }
    Tracer& tracer = Tracer::instance();
    const double end_us = tracer.now_us();
    if (parent_.valid()) {
      const TraceContext ctx{parent_.trace_id, span_id_, parent_.span_id};
      args_ = detail::with_context_args(std::move(args_), ctx);
      if (detail::g_trace_store_enabled.load(std::memory_order_relaxed)) {
        detail::store_span(ctx, name_, cat_, start_us_, end_us - start_us_);
      }
    }
    tracer.complete(name_, cat_, start_us_, end_us - start_us_,
                    std::move(args_));
  }

 private:
  bool active_ = false;
  bool installed_ = false;
  const char* cat_ = "";
  const char* name_ = "";
  double start_us_ = 0.0;
  std::uint64_t span_id_ = 0;
  TraceContext parent_;
  std::string args_;
};

#define DLSR_OBS_CONCAT_(a, b) a##b
#define DLSR_OBS_CONCAT(a, b) DLSR_OBS_CONCAT_(a, b)

/// Scoped span covering the rest of the enclosing block.
#define OBS_SPAN(cat, name) \
  ::dlsr::obs::ScopedSpan DLSR_OBS_CONCAT(obs_span_, __LINE__)(cat, name)

#define OBS_INSTANT(cat, name)                            \
  do {                                                    \
    if (::dlsr::obs::tracing_enabled()) {                 \
      ::dlsr::obs::Tracer::instance().instant(name, cat); \
    }                                                     \
  } while (0)

#define OBS_COUNTER(cat, name, value)                     \
  do {                                                    \
    if (::dlsr::obs::tracing_enabled()) {                 \
      ::dlsr::obs::Tracer::instance().counter(            \
          name, cat, static_cast<double>(value));         \
    }                                                     \
  } while (0)

}  // namespace dlsr::obs
