#include "obs/trace_merge.hpp"

#include <algorithm>
#include <cstddef>
#include <set>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace dlsr::obs {
namespace {

/// The simulated-instant anchor the trainer emits when the setup broadcast
/// completes on every rank.
constexpr const char* kAnchorName = "clock_sync";

const ParsedEvent* find_anchor(const std::vector<ParsedEvent>& events) {
  for (const ParsedEvent& e : events) {
    if (e.name == kAnchorName && e.pid == static_cast<int>(kSimPid)) {
      return &e;
    }
  }
  return nullptr;
}

void append_event(std::string& out, const ParsedEvent& e) {
  out += strfmt("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f",
                json_escape(e.name).c_str(), json_escape(e.cat).c_str(),
                e.phase, e.ts_us);
  if (e.phase == 'X') {
    out += strfmt(",\"dur\":%.3f", e.dur_us);
  }
  out += strfmt(",\"pid\":%d,\"tid\":%d", e.pid, e.tid);
  if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
    out += strfmt(",\"id\":%llu,\"bp\":\"e\"",
                  static_cast<unsigned long long>(e.flow_id));
  }
  if (!e.args.empty() || !e.str_args.empty()) {
    out += ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : e.args) {
      out += strfmt("%s\"%s\":%.10g", first ? "" : ",",
                    json_escape(key).c_str(), value);
      first = false;
    }
    for (const auto& [key, value] : e.str_args) {
      out += strfmt("%s\"%s\":\"%s\"", first ? "" : ",",
                    json_escape(key).c_str(), json_escape(value).c_str());
      first = false;
    }
    out += "}";
  }
  out += "}";
}

void append_thread_name(std::string& out, int tid, const std::string& name) {
  out += strfmt(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
      "\"args\":{\"name\":\"%s\"}},\n",
      static_cast<int>(kSimPid), tid, json_escape(name).c_str());
}

}  // namespace

double merge_clock_offset_us(const std::vector<ParsedEvent>& rank0,
                             const std::vector<ParsedEvent>& rank_r) {
  const ParsedEvent* a0 = find_anchor(rank0);
  const ParsedEvent* ar = find_anchor(rank_r);
  if (a0 == nullptr || ar == nullptr) {
    return 0.0;  // unanchored files merge as-is
  }
  return a0->ts_us - ar->ts_us;
}

std::string merge_rank_traces(
    const std::vector<std::vector<ParsedEvent>>& ranks) {
  DLSR_CHECK(!ranks.empty(), "trace-merge: need at least one rank trace");

  std::vector<ParsedEvent> merged;
  std::set<int> comm_lanes;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const double offset =
        r == 0 ? 0.0 : merge_clock_offset_us(ranks[0], ranks[r]);
    for (const ParsedEvent& src : ranks[r]) {
      // Only simulated time survives: wall-clock lanes are per-process
      // noise and metadata is re-emitted below.
      if (src.pid != static_cast<int>(kSimPid) || src.phase == 'M') {
        continue;
      }
      const bool comm_lane = src.tid >= kCommLaneBase;
      if (comm_lane && r != 0) {
        continue;  // the collective schedule is shared; keep rank 0's copy
      }
      ParsedEvent e = src;
      e.ts_us += offset;
      if (comm_lane) {
        comm_lanes.insert(e.tid);
      } else {
        e.tid = static_cast<int>(r);
        if (e.arg("rank", -1.0) < 0.0) {
          e.args.emplace_back("rank", static_cast<double>(r));
        }
      }
      merged.push_back(std::move(e));
    }
  }

  std::stable_sort(merged.begin(), merged.end(),
                   [](const ParsedEvent& a, const ParsedEvent& b) {
                     if (a.ts_us != b.ts_us) {
                       return a.ts_us < b.ts_us;
                     }
                     return a.tid < b.tid;
                   });

  std::string out = "[\n";
  out += strfmt(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
      "\"args\":{\"name\":\"simulated time (merged, %zu ranks)\"}},\n",
      static_cast<int>(kSimPid), ranks.size());
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    append_thread_name(out, static_cast<int>(r),
                       strfmt("rank %zu compute", r));
  }
  for (const int tid : comm_lanes) {
    append_thread_name(
        out, tid, strfmt("comm slot %d",
                         static_cast<int>(tid - kCommLaneBase)));
  }
  for (std::size_t i = 0; i < merged.size(); ++i) {
    append_event(out, merged[i]);
    out += i + 1 == merged.size() ? "\n" : ",\n";
  }
  out += "]\n";
  return out;
}

}  // namespace dlsr::obs
