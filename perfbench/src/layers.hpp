// Traced-run analysis: turns the spans the program already emits into
// per-layer figures. Reads obs::Tracer's Chrome trace export; adds no span
// to the program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One wall-clock complete ("X") span or flow step ("t") event.
struct Span {
  std::string key;  ///< "cat/name", e.g. "tensor/conv2d_forward"
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::int64_t tid = 0;
  std::uint64_t trace_id = 0;  ///< args.trace_id (flow id for flow steps)
  double tiles = 0.0;          ///< args.tiles (serve batch spans)
  double tile_h = 0.0;
  double tile_w = 0.0;
};

struct Trace {
  std::vector<Span> spans;  ///< complete events on the wall-clock pid
  std::vector<Span> flows;  ///< flow-step events on the wall-clock pid
};

/// Starts the process tracer with a ring large enough for the traced phase.
void start_tracing(std::size_t ring_capacity);

/// Stops the tracer, checks it dropped nothing (records the check), and
/// parses its export.
Trace stop_tracing();

struct LayerTime {
  std::size_t count = 0;
  double total_us = 0.0;  ///< inclusive
  double self_us = 0.0;   ///< minus the time direct children cover
};

/// Inclusive and self time per span key. Nesting is per thread lane:
/// a span is a child of the innermost span on its lane that contains it.
std::map<std::string, LayerTime> layer_times(const Trace& trace);

}  // namespace perfbench
