#include "layers.hpp"

#include <algorithm>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

/// Export rounds timestamps to 1 ns; a child may end that much past its
/// parent.
constexpr double kNestSlackUs = 0.002;

}  // namespace

void start_tracing(std::size_t ring_capacity) {
  dlsr::obs::Tracer::instance().enable(ring_capacity);
}

Trace stop_tracing() {
  dlsr::obs::Tracer& tracer = dlsr::obs::Tracer::instance();
  tracer.disable();
  const std::size_t dropped = tracer.dropped_count();
  emit_check("tracer_dropped_nothing", dropped == 0,
             dlsr::strfmt("%zu events dropped of %zu", dropped,
                          tracer.event_count()));
  const dlsr::json::Value doc =
      dlsr::json::parse(tracer.to_chrome_trace_json());
  tracer.reset();

  Trace trace;
  for (const dlsr::json::Value& e : doc.array) {
    const std::string ph = e.string_or("ph", "");
    if ((ph != "X" && ph != "t") ||
        e.number_or("pid", -1) != dlsr::obs::kWallPid) {
      continue;
    }
    Span s;
    s.key = e.string_or("cat", "") + "/" + e.string_or("name", "");
    s.ts_us = e.number_or("ts", 0.0);
    s.dur_us = e.number_or("dur", 0.0);
    s.tid = static_cast<std::int64_t>(e.number_or("tid", 0.0));
    if (ph == "t") {
      s.trace_id = static_cast<std::uint64_t>(e.number_or("id", 0.0));
      trace.flows.push_back(std::move(s));
      continue;
    }
    if (const dlsr::json::Value* args = e.find("args")) {
      s.trace_id =
          static_cast<std::uint64_t>(args->number_or("trace_id", 0.0));
      s.tiles = args->number_or("tiles", 0.0);
      s.tile_h = args->number_or("tile_h", 0.0);
      s.tile_w = args->number_or("tile_w", 0.0);
    }
    trace.spans.push_back(std::move(s));
  }
  return trace;
}

std::map<std::string, LayerTime> layer_times(const Trace& trace) {
  std::map<std::int64_t, std::vector<const Span*>> lanes;
  for (const Span& s : trace.spans) {
    lanes[s.tid].push_back(&s);
  }
  std::map<std::string, LayerTime> out;
  for (auto& [tid, spans] : lanes) {
    (void)tid;
    // Parents first: earlier start, then the longer span.
    std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us
                                  : a->dur_us > b->dur_us;
    });
    std::vector<const Span*> stack;
    for (const Span* s : spans) {
      while (!stack.empty() &&
             stack.back()->ts_us + stack.back()->dur_us + kNestSlackUs <
                 s->ts_us + s->dur_us) {
        stack.pop_back();
      }
      LayerTime& mine = out[s->key];
      ++mine.count;
      mine.total_us += s->dur_us;
      mine.self_us += s->dur_us;
      if (!stack.empty()) {
        out[stack.back()->key].self_us -= s->dur_us;
      }
      stack.push_back(s);
    }
  }
  return out;
}

}  // namespace perfbench
