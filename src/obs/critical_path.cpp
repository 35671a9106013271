#include "obs/critical_path.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/intervals.hpp"
#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace dlsr::obs {
namespace {

/// Export rounding slack: trace timestamps carry %.3f microseconds.
constexpr double kEpsUs = 0.5;

using intervals::Interval;

struct StepBuild {
  StepAttribution attr;
  std::vector<Interval> compute;
  std::vector<Interval> data;
  std::vector<Interval> comm;
  std::vector<CommEvent> wire_ops;  ///< bounding-op candidates
  bool has_forward = false;
  double backward_end_us = 0.0;  ///< latest forward/backward span end
};

}  // namespace

AnalysisReport analyze_trace(const std::vector<ParsedEvent>& events) {
  // Pass 1: per-step compute spans from the simulated-time process, keyed
  // by (step, rank arg). Single-rank traces fold to rank 0; a merged trace
  // contributes one build per traced rank per step.
  std::map<std::pair<std::size_t, int>, StepBuild> by_step_rank;
  for (const ParsedEvent& e : events) {
    if (e.phase != 'X' || e.pid != static_cast<int>(kSimPid) ||
        e.tid >= kCommLaneBase || e.cat != "sim") {
      continue;
    }
    const double step_arg = e.arg("step", -1.0);
    if (step_arg < 0.0) {
      continue;  // not a per-step span
    }
    const std::size_t step = static_cast<std::size_t>(step_arg);
    const int rank = static_cast<int>(e.arg("rank", 0.0));
    StepBuild& sb = by_step_rank[{step, rank}];
    StepAttribution& a = sb.attr;
    a.step = step;
    a.rank = rank;
    if (e.name == "forward") {
      DLSR_CHECK(!sb.has_forward,
                 strfmt("step %zu appears twice — the trace holds more than "
                        "one run; re-run with a single backend and node "
                        "count",
                        a.step));
      sb.has_forward = true;
      a.forward_us += e.dur_us;
      sb.compute.emplace_back(e.ts_us, e.ts_us + e.dur_us);
      sb.backward_end_us = std::max(sb.backward_end_us, e.ts_us + e.dur_us);
    } else if (e.name == "backward") {
      a.backward_us += e.dur_us;
      sb.compute.emplace_back(e.ts_us, e.ts_us + e.dur_us);
      sb.backward_end_us = std::max(sb.backward_end_us, e.ts_us + e.dur_us);
    } else if (e.name == "optimizer") {
      a.optimizer_us += e.dur_us;
      sb.compute.emplace_back(e.ts_us, e.ts_us + e.dur_us);
    } else if (e.name == "data") {
      a.data_us += e.dur_us;
      sb.data.emplace_back(e.ts_us, e.ts_us + e.dur_us);
    } else {
      continue;
    }
    const double end = e.ts_us + e.dur_us;
    if (sb.compute.size() + sb.data.size() == 1) {
      a.start_us = e.ts_us;
      a.end_us = end;
    } else {
      a.start_us = std::min(a.start_us, e.ts_us);
      a.end_us = std::max(a.end_us, end);
    }
  }
  DLSR_CHECK(!by_step_rank.empty(),
             "trace has no per-step sim spans (forward/backward/optimizer "
             "with a step arg) — was it produced with --trace-out on "
             "simulate or train?");

  // Per step, the critical rank: the traced rank whose backward finished
  // last. Synchronous training waits on exactly that rank, so its spans
  // carry the step's attribution; in a single-rank trace it is the only
  // build. Ties go to the lowest rank (map order).
  std::vector<StepBuild> steps;
  for (auto it = by_step_rank.begin(); it != by_step_rank.end();) {
    const std::size_t step = it->first.first;
    auto* best = &it->second;
    for (++it; it != by_step_rank.end() && it->first.first == step; ++it) {
      if (it->second.backward_end_us > best->backward_end_us + kEpsUs) {
        best = &it->second;
      }
    }
    steps.push_back(std::move(*best));
  }
  std::sort(steps.begin(), steps.end(),
            [](const StepBuild& a, const StepBuild& b) {
              return a.attr.start_us < b.attr.start_us;
            });
  for (std::size_t i = 1; i < steps.size(); ++i) {
    DLSR_CHECK(
        steps[i].attr.start_us >= steps[i - 1].attr.end_us - kEpsUs,
        strfmt("step windows %zu and %zu overlap — the trace holds more "
               "than one run; re-run with a single backend and node count",
               steps[i - 1].attr.step, steps[i].attr.step));
  }

  // Pass 2: comm-lane events, assigned to the step whose window opened
  // last before the op started; earlier ops (the initial parameter
  // broadcast) are setup.
  AnalysisReport report;
  const std::vector<CommEvent> comm = extract_comm_events(events);
  std::vector<Interval> setup;
  for (const CommEvent& c : comm) {
    if (c.ts_us < steps.front().attr.start_us - kEpsUs) {
      setup.emplace_back(c.ts_us, c.end_us());
      continue;
    }
    // Last step with start <= ts (+ rounding slack).
    std::size_t idx = steps.size() - 1;
    for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
      if (steps[i + 1].attr.start_us > c.ts_us + kEpsUs) {
        idx = i;
        break;
      }
    }
    StepBuild& sb = steps[idx];
    sb.comm.emplace_back(c.ts_us, c.end_us());
    if (c.is_wire_op()) {
      sb.wire_ops.push_back(c);
    }
  }
  report.setup_comm_us =
      intervals::covered(intervals::merge(std::move(setup)));
  report.comm_profile = hvprof_from_trace(comm);

  // Straggler flags: zero-duration cat="straggler" events the trainer
  // emits once per flag edge, aggregated per rank. A merged trace holds one
  // copy per traced rank file (the detector sees the same per-rank times in
  // every view), so (rank, step) pairs are deduplicated.
  std::map<std::size_t, StragglerFinding> by_rank;
  std::set<std::pair<std::size_t, std::size_t>> seen_flags;
  for (const ParsedEvent& e : events) {
    if (e.cat != "straggler" || e.pid != static_cast<int>(kSimPid)) {
      continue;
    }
    const double rank_arg = e.arg("rank", -1.0);
    if (rank_arg < 0.0) {
      continue;
    }
    const std::size_t rank = static_cast<std::size_t>(rank_arg);
    const std::size_t step = static_cast<std::size_t>(e.arg("step", 0.0));
    if (!seen_flags.insert({rank, step}).second) {
      continue;
    }
    auto [it, inserted] = by_rank.try_emplace(rank);
    StragglerFinding& f = it->second;
    f.rank = rank;
    ++f.flags;
    f.max_score = std::max(f.max_score, e.arg("score", 0.0));
    f.first_step = inserted ? step : std::min(f.first_step, step);
  }
  for (const auto& [rank, f] : by_rank) {
    report.stragglers.push_back(f);
  }
  std::sort(report.stragglers.begin(), report.stragglers.end(),
            [](const StragglerFinding& a, const StragglerFinding& b) {
              return a.max_score > b.max_score;
            });

  // Pass 3: per-step interval arithmetic.
  for (StepBuild& sb : steps) {
    StepAttribution& a = sb.attr;
    const auto compute = intervals::merge(sb.compute);
    const auto comm_busy = intervals::merge(sb.comm);
    a.comm_busy_us = intervals::covered(comm_busy);
    a.exposed_comm_us = intervals::subtract_covered(comm_busy, compute);
    a.overlapped_comm_us = a.comm_busy_us - a.exposed_comm_us;
    // Stall: step-window time covered by neither compute, data, nor comm.
    std::vector<Interval> all = sb.compute;
    all.insert(all.end(), sb.data.begin(), sb.data.end());
    all.insert(all.end(), sb.comm.begin(), sb.comm.end());
    const double covered = intervals::covered(intervals::clip(
        intervals::merge(std::move(all)), a.start_us, a.end_us));
    a.stall_us = std::max(0.0, a.duration_us() - covered);

    // Critical path: the step is comm-bound when a collective (or its
    // unpack copy) outlived backward, serializing ahead of the optimizer.
    // Forward and backward are contiguous from the step start.
    const double backward_end = a.start_us + a.forward_us + a.backward_us;
    double comm_end = a.start_us;
    for (const Interval& iv : sb.comm) {
      comm_end = std::max(comm_end, iv.second);
    }
    a.comm_bound = comm_end > backward_end + kEpsUs &&
                   a.exposed_comm_us > kEpsUs;
    // Bounding op: the latest-ending wire op that actually contributed
    // exposed time. Fully-overlapped ops (e.g. the 8-byte metric
    // allreduces inside the optimizer span) never gate the step.
    const CommEvent* bounding = nullptr;
    for (const CommEvent& c : sb.wire_ops) {
      if (bounding && c.end_us() <= bounding->end_us()) {
        continue;
      }
      const std::vector<Interval> op{{c.ts_us, c.end_us()}};
      if (intervals::subtract_covered(op, compute) > kEpsUs) {
        bounding = &c;
      }
    }
    if (bounding) {
      // Bucket by on-the-wire bytes (matches the live profiler) and tag
      // compressed wires so the gradient dtype is visible in the report.
      a.bounding_op = strfmt(
          "%s %s", bounding->name.c_str(),
          prof::Hvprof::bucket_labels()[prof::Hvprof::bucket_index(
              bounding->wire_bytes)]);
      if (bounding->wire != "fp32") {
        a.bounding_op += strfmt(" [%s]", bounding->wire.c_str());
      }
    }
    report.steps.push_back(a);
  }

  // Whole-run critical path: chain each step's gating segments in time
  // order, attributed to that step's critical rank. The exposed-comm
  // segment reuses the interval-arithmetic figure above verbatim, so the
  // chain's comm total equals total_exposed_comm_us() by construction.
  for (const StepAttribution& a : report.steps) {
    const auto push = [&](const char* kind, std::string detail, double us) {
      if (us <= kEpsUs) {
        return;
      }
      CriticalSegment seg;
      seg.step = a.step;
      seg.rank = a.rank;
      seg.kind = kind;
      seg.detail = std::move(detail);
      seg.us = us;
      report.critical_path.push_back(std::move(seg));
    };
    push("data", "", a.data_us);
    push("forward", "", a.forward_us);
    push("backward", "", a.backward_us);
    push("exposed-comm", a.bounding_op.empty() ? "comm" : a.bounding_op,
         a.exposed_comm_us);
    push("optimizer", "", a.optimizer_us);
    push("stall", "", a.stall_us);
  }
  return report;
}

double AnalysisReport::total_exposed_comm_us() const {
  double total = 0.0;
  for (const StepAttribution& s : steps) {
    total += s.exposed_comm_us;
  }
  return total;
}

double AnalysisReport::total_step_us() const {
  double total = 0.0;
  for (const StepAttribution& s : steps) {
    total += s.duration_us();
  }
  return total;
}

Table AnalysisReport::attribution_table() const {
  double fwd = 0.0, bwd = 0.0, opt = 0.0, data = 0.0, exposed = 0.0,
         overlapped = 0.0, stall = 0.0;
  for (const StepAttribution& s : steps) {
    fwd += s.forward_us;
    bwd += s.backward_us;
    opt += s.optimizer_us;
    data += s.data_us;
    exposed += s.exposed_comm_us;
    overlapped += s.overlapped_comm_us;
    stall += s.stall_us;
  }
  const double total = total_step_us();
  const auto share = [&](double us) {
    return total > 0.0 ? strfmt("%.1f", us / total * 100.0)
                       : std::string("-");
  };
  Table t({"class", "time ms", "share %"});
  t.add_row({"forward", strfmt("%.3f", fwd / 1e3), share(fwd)});
  t.add_row({"backward", strfmt("%.3f", bwd / 1e3), share(bwd)});
  t.add_row({"optimizer", strfmt("%.3f", opt / 1e3), share(opt)});
  t.add_row({"data", strfmt("%.3f", data / 1e3), share(data)});
  t.add_row({"exposed comm", strfmt("%.3f", exposed / 1e3), share(exposed)});
  t.add_row({"stall", strfmt("%.3f", stall / 1e3), share(stall)});
  // Overlapped comm is hidden under the compute rows above, so it has no
  // additive share of step time.
  t.add_row({"overlapped comm", strfmt("%.3f", overlapped / 1e3), "-"});
  t.add_row({"setup comm", strfmt("%.3f", setup_comm_us / 1e3), "-"});
  t.add_row({"total steps", strfmt("%.3f", total / 1e3), "100.0"});
  return t;
}

Table AnalysisReport::step_table() const {
  Table t({"step", "total ms", "fwd ms", "bwd ms", "opt ms", "exposed ms",
           "overlap ms", "stall ms", "bound by", "bounding op"});
  for (const StepAttribution& s : steps) {
    t.add_row({strfmt("%zu", s.step), strfmt("%.3f", s.duration_us() / 1e3),
               strfmt("%.3f", s.forward_us / 1e3),
               strfmt("%.3f", s.backward_us / 1e3),
               strfmt("%.3f", s.optimizer_us / 1e3),
               strfmt("%.3f", s.exposed_comm_us / 1e3),
               strfmt("%.3f", s.overlapped_comm_us / 1e3),
               strfmt("%.3f", s.stall_us / 1e3),
               s.comm_bound ? "comm" : "compute", s.bounding_op});
  }
  return t;
}

Table AnalysisReport::critical_path_table() const {
  Table t({"step", "rank", "segment", "detail", "ms"});
  for (const CriticalSegment& s : critical_path) {
    t.add_row({strfmt("%zu", s.step), strfmt("%d", s.rank), s.kind, s.detail,
               strfmt("%.3f", s.us / 1e3)});
  }
  return t;
}

Table AnalysisReport::straggler_table() const {
  Table t({"rank", "flags", "max score", "first step"});
  for (const StragglerFinding& f : stragglers) {
    t.add_row({strfmt("%zu", f.rank), strfmt("%zu", f.flags),
               strfmt("%.1f", f.max_score), strfmt("%zu", f.first_step)});
  }
  return t;
}

std::string AnalysisReport::to_json() const {
  std::string out = "{\"schema\":\"dlsr-analysis-v1\",\"steps\":[";
  bool first = true;
  double fwd = 0.0, bwd = 0.0, opt = 0.0, data = 0.0, exposed = 0.0,
         overlapped = 0.0, stall = 0.0;
  for (const StepAttribution& s : steps) {
    fwd += s.forward_us;
    bwd += s.backward_us;
    opt += s.optimizer_us;
    data += s.data_us;
    exposed += s.exposed_comm_us;
    overlapped += s.overlapped_comm_us;
    stall += s.stall_us;
    out += strfmt(
        "%s{\"step\":%zu,\"rank\":%d,\"start_us\":%.3f,\"end_us\":%.3f,"
        "\"forward_us\":%.3f,\"backward_us\":%.3f,\"optimizer_us\":%.3f,"
        "\"data_us\":%.3f,\"comm_busy_us\":%.3f,\"exposed_comm_us\":%.3f,"
        "\"overlapped_comm_us\":%.3f,\"stall_us\":%.3f,"
        "\"bound_by\":\"%s\",\"bounding_op\":\"%s\"}",
        first ? "" : ",", s.step, s.rank, s.start_us, s.end_us, s.forward_us,
        s.backward_us, s.optimizer_us, s.data_us, s.comm_busy_us,
        s.exposed_comm_us, s.overlapped_comm_us, s.stall_us,
        s.comm_bound ? "comm" : "compute", s.bounding_op.c_str());
    first = false;
  }
  out += strfmt(
      "],\"totals\":{\"steps\":%zu,\"step_us\":%.3f,\"forward_us\":%.3f,"
      "\"backward_us\":%.3f,\"optimizer_us\":%.3f,\"data_us\":%.3f,"
      "\"exposed_comm_us\":%.3f,\"overlapped_comm_us\":%.3f,"
      "\"stall_us\":%.3f,\"setup_comm_us\":%.3f},\"stragglers\":[",
      steps.size(), total_step_us(), fwd, bwd, opt, data, exposed,
      overlapped, stall, setup_comm_us);
  first = true;
  for (const StragglerFinding& f : stragglers) {
    out += strfmt(
        "%s{\"rank\":%zu,\"flags\":%zu,\"max_score\":%.3f,"
        "\"first_step\":%zu}",
        first ? "" : ",", f.rank, f.flags, f.max_score, f.first_step);
    first = false;
  }
  out += "],\"critical_path\":[";
  first = true;
  for (const CriticalSegment& s : critical_path) {
    out += strfmt(
        "%s{\"step\":%zu,\"rank\":%d,\"kind\":\"%s\",\"detail\":\"%s\","
        "\"us\":%.3f}",
        first ? "" : ",", s.step, s.rank, s.kind.c_str(), s.detail.c_str(),
        s.us);
    first = false;
  }
  out += strfmt("],\"comm_profile\":%s}", comm_profile.to_json().c_str());
  return out;
}

}  // namespace dlsr::obs
