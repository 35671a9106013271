// Trace-file analysis: read a Chrome trace-event JSON file back into
// events (a walk over the json::parse document) and aggregate it into a
// per-phase time table (the `dlsr trace-summary` subcommand).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace dlsr::obs {

/// One event read back from a trace file.
struct ParsedEvent {
  std::string name;
  std::string cat;
  char phase = 'X';
  double ts_us = 0.0;
  double dur_us = 0.0;
  int pid = 0;
  int tid = 0;
  /// Top-level "id" field: joins flow ('s'/'t'/'f') chains.
  std::uint64_t flow_id = 0;
  /// Numeric members of the event's "args" object, in file order.
  std::vector<std::pair<std::string, double>> args;
  /// String members of the event's "args" object, in file order (kept so
  /// trace-merge can re-emit events without losing labels).
  std::vector<std::pair<std::string, std::string>> str_args;

  /// Value of a numeric args member, or `fallback` when absent.
  double arg(const std::string& key, double fallback) const;
};

/// Parses a trace-event JSON array (or {"traceEvents":[...]} wrapper).
/// Each event keeps its string/number top-level fields and the string and
/// number members of its "args" object; other values are skipped. Throws
/// dlsr::Error on malformed JSON, a top level of any other shape, or an
/// event that is not an object.
std::vector<ParsedEvent> parse_trace_events(const std::string& json);

/// One aggregated (category, normalized-name, rank) family of complete
/// events. `rank` comes from the event's numeric "rank" arg (injected by
/// `dlsr trace-merge` and by multi-file `dlsr trace-summary`); events
/// without one fold into rank -1 and the rank column stays hidden.
struct TraceSummaryRow {
  std::string cat;
  std::string name;
  int rank = -1;
  std::size_t count = 0;
  /// Summed inclusive duration (comm-slot lanes: interval union).
  double total_us = 0.0;
  /// Exclusive (self) time: inclusive minus the duration of spans nested
  /// inside on the same (pid, tid) lane — a parent and its children no
  /// longer both claim the same microseconds.
  double self_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  /// Share of the summed self time across all rows (self times partition
  /// covered time, so shares add to ~100 instead of double-counting).
  double share_pct = 0.0;

  double mean_us() const {
    return count ? total_us / static_cast<double>(count) : 0.0;
  }
};

/// Aggregates complete ("X") events per (category, normalized name):
/// count, total(inclusive)/self(exclusive)/mean/min/max duration, and self
/// share of the covered time. Names are normalized by stripping trailing
/// "/<index>" tags so per-step span families ("forward/17") collapse into
/// one row. Rows come back heaviest (by total) first.
///
/// Self time is computed per (pid, tid) lane with a span-nesting stack:
/// each event's duration is subtracted from the innermost enclosing span,
/// so nested spans ("step" containing "data") are not double-counted in
/// the share column.
///
/// Simulated comm-slot lanes (pid kSimPid, tid >= kCommLaneBase) are merged
/// per family by interval union before totalling, so two allreduces that
/// overlap in simulated time contribute their covered time once instead of
/// being double-counted across slots; their self time equals the union.
std::vector<TraceSummaryRow> summarize_trace(
    const std::vector<ParsedEvent>& events);

/// summarize_trace rendered as the `dlsr trace-summary` table. The rank
/// column appears only when the events span more than one rank.
Table trace_summary(const std::vector<ParsedEvent>& events);

/// summarize_trace rendered as JSON ("dlsr-trace-summary-v2"): rows (each
/// carrying its rank, -1 when unattributed) plus the grand self total.
/// Backs `dlsr trace-summary --json`.
std::string trace_summary_json(const std::vector<ParsedEvent>& events);

/// Tags every event that lacks a numeric "rank" arg with the given rank.
/// Multi-file trace-summary uses it to keep per-file attribution.
void tag_rank(std::vector<ParsedEvent>& events, int rank);

}  // namespace dlsr::obs
