#include "obs/trace_summary.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <tuple>

#include "common/error.hpp"
#include "common/intervals.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace dlsr::obs {
namespace {

/// Collapses per-instance span names into families: strips one trailing
/// "/<digits>" or "/<digits>.<digits>" tag ("forward/17" -> "forward").
std::string normalize_name(const std::string& name) {
  const std::size_t slash = name.rfind('/');
  if (slash == std::string::npos || slash + 1 == name.size()) {
    return name;
  }
  for (std::size_t i = slash + 1; i < name.size(); ++i) {
    const char c = name[i];
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.') {
      return name;
    }
  }
  return name.substr(0, slash);
}

}  // namespace

double ParsedEvent::arg(const std::string& key, double fallback) const {
  for (const auto& [k, v] : args) {
    if (k == key) {
      return v;
    }
  }
  return fallback;
}

std::vector<ParsedEvent> parse_trace_events(const std::string& text) {
  const json::Value doc = json::parse(text);
  const json::Value* list = &doc;
  if (doc.is_object()) {
    list = doc.find("traceEvents");
    DLSR_CHECK(list != nullptr,
               "trace JSON object has no \"traceEvents\" array");
  }
  DLSR_CHECK(list->is_array(),
             "trace JSON must be an event array or a {\"traceEvents\":[...]} "
             "object");
  std::vector<ParsedEvent> events;
  events.reserve(list->array.size());
  for (const json::Value& event : list->array) {
    DLSR_CHECK(event.is_object(), "trace event is not a JSON object");
    ParsedEvent e;
    // Scalar fields and one level of "args"; bools, nulls and deeper
    // containers carry nothing the analyzers read.
    for (const auto& [key, v] : event.object) {
      if (key == "args" && v.is_object()) {
        for (const auto& [arg, a] : v.object) {
          if (a.is_number()) {
            e.args.emplace_back(arg, a.number);
          } else if (a.is_string()) {
            e.str_args.emplace_back(arg, a.str);
          }
        }
      } else if (v.is_string()) {
        if (key == "name") e.name = v.str;
        else if (key == "cat") e.cat = v.str;
        else if (key == "ph" && !v.str.empty()) e.phase = v.str[0];
      } else if (v.is_number()) {
        if (key == "ts") e.ts_us = v.number;
        else if (key == "dur") e.dur_us = v.number;
        else if (key == "pid") e.pid = static_cast<int>(v.number);
        else if (key == "tid") e.tid = static_cast<int>(v.number);
        else if (key == "id") e.flow_id = static_cast<std::uint64_t>(v.number);
      }
    }
    events.push_back(std::move(e));
  }
  return events;
}

std::vector<TraceSummaryRow> summarize_trace(
    const std::vector<ParsedEvent>& events) {
  struct Build {
    TraceSummaryRow row;
    /// Simulated comm-slot spans; merged by union so concurrent slots are
    /// not double-counted.
    std::vector<intervals::Interval> slot_intervals;
    bool is_slot = false;
  };
  const auto is_slot_lane = [](const ParsedEvent& e) {
    return e.pid == static_cast<int>(kSimPid) && e.tid >= kCommLaneBase;
  };

  // Pass 1: per-event exclusive (self) durations via a span-nesting stack
  // per (pid, tid) lane. Events on one lane nest properly (a thread's
  // spans are either disjoint or contained), so each event's duration is
  // carved out of the innermost span enclosing it.
  std::vector<std::size_t> complete;  ///< indices of 'X' events
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == 'X') {
      complete.push_back(i);
    }
  }
  std::vector<double> self_us(events.size(), 0.0);
  std::map<std::pair<int, int>, std::vector<std::size_t>> lanes;
  for (const std::size_t i : complete) {
    lanes[{events[i].pid, events[i].tid}].push_back(i);
  }
  for (auto& [lane, idx] : lanes) {
    // Start order; an enclosing span sorts before a same-start child
    // because it lasts longer.
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (events[a].ts_us != events[b].ts_us) {
        return events[a].ts_us < events[b].ts_us;
      }
      return events[a].dur_us > events[b].dur_us;
    });
    // Export rounding slack: trace timestamps carry %.3f microseconds, so
    // adjacent spans can appear to overlap by ~0.001 us. Without the
    // epsilon a span that merely touches its predecessor would be treated
    // as nested and have its full duration subtracted.
    constexpr double kEpsUs = 0.5;
    std::vector<std::size_t> stack;  ///< open (enclosing) spans
    for (const std::size_t i : idx) {
      const ParsedEvent& e = events[i];
      while (!stack.empty() &&
             events[stack.back()].ts_us + events[stack.back()].dur_us <=
                 e.ts_us + kEpsUs) {
        stack.pop_back();
      }
      self_us[i] = e.dur_us;
      if (!stack.empty()) {
        const ParsedEvent& parent = events[stack.back()];
        // Only carve out genuinely contained spans; a child that pokes
        // past its parent's end by more than the rounding slack is a
        // partial overlap, not a nesting.
        if (e.ts_us + e.dur_us <= parent.ts_us + parent.dur_us + kEpsUs) {
          self_us[stack.back()] -= e.dur_us;
        }
      }
      stack.push_back(i);
    }
  }

  // Pass 2: aggregate per (category, normalized name, rank) family.
  std::map<std::tuple<std::string, std::string, int>, Build> rows;
  for (const std::size_t i : complete) {
    const ParsedEvent& e = events[i];
    const int rank = static_cast<int>(e.arg("rank", -1.0));
    Build& b = rows[{e.cat, normalize_name(e.name), rank}];
    TraceSummaryRow& row = b.row;
    if (row.count == 0 || e.dur_us < row.min_us) {
      row.min_us = e.dur_us;
    }
    row.max_us = std::max(row.max_us, e.dur_us);
    ++row.count;
    if (is_slot_lane(e)) {
      b.is_slot = true;
      b.slot_intervals.emplace_back(e.ts_us, e.ts_us + e.dur_us);
    } else {
      row.total_us += e.dur_us;
      row.self_us += std::max(0.0, self_us[i]);
    }
  }
  double grand_self = 0.0;
  for (auto& [key, b] : rows) {
    if (b.is_slot) {
      // Union across lanes; slots hold no nested children, so exclusive
      // time is the union itself.
      const double covered = intervals::covered(std::move(b.slot_intervals));
      b.row.total_us += covered;
      b.row.self_us += covered;
    }
    grand_self += b.row.self_us;
  }

  std::vector<TraceSummaryRow> out;
  out.reserve(rows.size());
  for (auto& [key, b] : rows) {
    b.row.cat = std::get<0>(key);
    b.row.name = std::get<1>(key);
    b.row.rank = std::get<2>(key);
    b.row.share_pct =
        grand_self > 0.0 ? b.row.self_us / grand_self * 100.0 : 0.0;
    out.push_back(std::move(b.row));
  }
  // Heaviest phases first; same family across ranks stays adjacent in
  // rank order so per-rank skew is read off vertically.
  std::sort(out.begin(), out.end(),
            [](const TraceSummaryRow& a, const TraceSummaryRow& b) {
              if (a.total_us != b.total_us) {
                return a.total_us > b.total_us;
              }
              if (a.cat != b.cat) {
                return a.cat < b.cat;
              }
              if (a.name != b.name) {
                return a.name < b.name;
              }
              return a.rank < b.rank;
            });
  return out;
}

void tag_rank(std::vector<ParsedEvent>& events, int rank) {
  for (ParsedEvent& e : events) {
    if (e.arg("rank", -1.0) < 0.0) {
      e.args.emplace_back("rank", static_cast<double>(rank));
    }
  }
}

Table trace_summary(const std::vector<ParsedEvent>& events) {
  const std::vector<TraceSummaryRow> rows = summarize_trace(events);
  // The rank column earns its width only when events actually carry more
  // than one rank (merged traces, multi-file summaries).
  bool multi_rank = false;
  for (const TraceSummaryRow& row : rows) {
    multi_rank = multi_rank || (row.rank != rows.front().rank);
  }
  std::vector<std::string> header = {"category", "phase"};
  if (multi_rank) {
    header.push_back("rank");
  }
  for (const char* col : {"count", "total ms", "self ms", "mean ms",
                          "min ms", "max ms", "share %"}) {
    header.emplace_back(col);
  }
  Table t(header);
  for (const TraceSummaryRow& row : rows) {
    std::vector<std::string> cells = {row.cat, row.name};
    if (multi_rank) {
      cells.push_back(row.rank < 0 ? "-" : strfmt("%d", row.rank));
    }
    cells.push_back(strfmt("%zu", row.count));
    cells.push_back(strfmt("%.3f", row.total_us / 1e3));
    cells.push_back(strfmt("%.3f", row.self_us / 1e3));
    cells.push_back(strfmt("%.3f", row.mean_us() / 1e3));
    cells.push_back(strfmt("%.3f", row.min_us / 1e3));
    cells.push_back(strfmt("%.3f", row.max_us / 1e3));
    cells.push_back(strfmt("%.1f", row.share_pct));
    t.add_row(cells);
  }
  return t;
}

std::string trace_summary_json(const std::vector<ParsedEvent>& events) {
  const std::vector<TraceSummaryRow> rows = summarize_trace(events);
  double grand_self = 0.0;
  for (const TraceSummaryRow& row : rows) {
    grand_self += row.self_us;
  }
  std::string out = "{\"schema\":\"dlsr-trace-summary-v2\",\"rows\":[";
  bool first = true;
  for (const TraceSummaryRow& row : rows) {
    std::string name;
    for (const char c : row.name) {
      if (c == '"' || c == '\\') {
        name += '\\';
      }
      name += c;
    }
    out += strfmt(
        "%s{\"cat\":\"%s\",\"name\":\"%s\",\"rank\":%d,\"count\":%zu,"
        "\"total_us\":%.3f,\"self_us\":%.3f,\"mean_us\":%.3f,"
        "\"min_us\":%.3f,\"max_us\":%.3f,\"share_pct\":%.3f}",
        first ? "" : ",", row.cat.c_str(), name.c_str(), row.rank,
        row.count, row.total_us, row.self_us, row.mean_us(), row.min_us,
        row.max_us, row.share_pct);
    first = false;
  }
  out += strfmt("],\"self_total_us\":%.3f}", grand_self);
  return out;
}

}  // namespace dlsr::obs
