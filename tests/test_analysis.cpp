// Tests for the critical-path analyzer (obs/critical_path, obs/comm_attrib)
// and the perf gate (obs/perf_compare): hand-built traces with known
// attribution, the multi-run error paths, hvprof reconstruction from comm
// lanes, the end-to-end equivalence of analyzed exposed comm against the
// simulator's own StepTimeline accounting, and envelope comparison
// semantics (self-compare clean, synthetic regression flagged, baseline
// pins the tolerance policy).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "core/experiments.hpp"
#include "obs/critical_path.hpp"
#include "obs/perf_compare.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "obs/trace_summary.hpp"

namespace dlsr::obs {
namespace {

constexpr int kSim = static_cast<int>(kSimPid);
constexpr int kLane = static_cast<int>(kCommLaneBase);
constexpr std::size_t MiB = 1024 * 1024;

ParsedEvent span(const std::string& name, const std::string& cat, double ts,
                 double dur, int tid,
                 std::vector<std::pair<std::string, double>> args = {}) {
  ParsedEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'X';
  e.ts_us = ts;
  e.dur_us = dur;
  e.pid = kSim;
  e.tid = tid;
  e.args = std::move(args);
  return e;
}

ParsedEvent step_span(const std::string& name, std::size_t step, double ts,
                      double dur) {
  return span(name, "sim", ts, dur, 0, {{"step", static_cast<double>(step)}});
}

ParsedEvent comm_span(const std::string& name, double ts, double dur,
                      std::size_t bytes, int slot = 0) {
  return span(name, "comm", ts, dur, kLane + slot,
              {{"bytes", static_cast<double>(bytes)}});
}

// --- hand-built traces --------------------------------------------------

TEST(AnalyzeTrace, AttributesOneStepExactly) {
  // forward [0,100) backward [100,300) optimizer [360,400); one 40 MiB
  // allreduce [250,340) and one 8-byte metric allreduce [365,370).
  const std::vector<ParsedEvent> events = {
      step_span("forward", 0, 0.0, 100.0),
      step_span("backward", 0, 100.0, 200.0),
      step_span("optimizer", 0, 360.0, 40.0),
      comm_span("allreduce", 250.0, 90.0, 40 * MiB),
      comm_span("allreduce", 365.0, 5.0, 8),
  };
  const AnalysisReport report = analyze_trace(events);
  ASSERT_EQ(report.steps.size(), 1u);
  const StepAttribution& s = report.steps.front();
  EXPECT_DOUBLE_EQ(s.forward_us, 100.0);
  EXPECT_DOUBLE_EQ(s.backward_us, 200.0);
  EXPECT_DOUBLE_EQ(s.optimizer_us, 40.0);
  EXPECT_DOUBLE_EQ(s.duration_us(), 400.0);
  EXPECT_DOUBLE_EQ(s.comm_busy_us, 95.0);
  // Comm not covered by compute: [300,340) only — the metric allreduce
  // sits inside the optimizer span.
  EXPECT_DOUBLE_EQ(s.exposed_comm_us, 40.0);
  EXPECT_DOUBLE_EQ(s.overlapped_comm_us, 55.0);
  // Nothing runs in [340,360).
  EXPECT_DOUBLE_EQ(s.stall_us, 20.0);
  EXPECT_TRUE(s.comm_bound);
  // The bounding op is the exposed gradient allreduce, not the
  // later-ending but fully-hidden metric allreduce.
  EXPECT_EQ(s.bounding_op, "allreduce 32 MB - 64 MB");
  EXPECT_DOUBLE_EQ(report.total_exposed_comm_us(), 40.0);
  EXPECT_DOUBLE_EQ(report.total_step_us(), 400.0);
}

TEST(AnalyzeTrace, ComputeBoundStepHasNoExposedComm) {
  const std::vector<ParsedEvent> events = {
      step_span("forward", 0, 0.0, 100.0),
      step_span("backward", 0, 100.0, 200.0),
      step_span("optimizer", 0, 300.0, 40.0),
      comm_span("allreduce", 150.0, 100.0, 40 * MiB),  // inside backward
  };
  const AnalysisReport report = analyze_trace(events);
  const StepAttribution& s = report.steps.front();
  EXPECT_DOUBLE_EQ(s.exposed_comm_us, 0.0);
  EXPECT_DOUBLE_EQ(s.overlapped_comm_us, 100.0);
  EXPECT_FALSE(s.comm_bound);
  EXPECT_TRUE(s.bounding_op.empty());
}

TEST(AnalyzeTrace, CommBeforeFirstStepIsSetup) {
  const std::vector<ParsedEvent> events = {
      comm_span("broadcast", 0.0, 800.0, 150 * MiB),
      step_span("forward", 0, 1000.0, 100.0),
      step_span("backward", 0, 1100.0, 200.0),
      step_span("optimizer", 0, 1300.0, 50.0),
  };
  const AnalysisReport report = analyze_trace(events);
  EXPECT_DOUBLE_EQ(report.setup_comm_us, 800.0);
  EXPECT_DOUBLE_EQ(report.steps.front().comm_busy_us, 0.0);
  // Setup ops still feed the traced hvprof profile.
  EXPECT_EQ(report.comm_profile.total_count(prof::Collective::Broadcast), 1u);
}

TEST(AnalyzeTrace, UnpackSpansCountAsCommTimeButNotWireOps) {
  const std::vector<ParsedEvent> events = {
      step_span("forward", 0, 0.0, 100.0),
      comm_span("allreduce", 50.0, 40.0, 1 * MiB),
      comm_span("unpack", 90.0, 20.0, 1 * MiB),
  };
  const AnalysisReport report = analyze_trace(events);
  const StepAttribution& s = report.steps.front();
  // Comm runs [50,110); compute covers [0,100): exposed is the unpack tail.
  EXPECT_DOUBLE_EQ(s.comm_busy_us, 60.0);
  EXPECT_DOUBLE_EQ(s.exposed_comm_us, 10.0);
  // Only the wire op feeds the profile, matching the live prof::Hvprof.
  EXPECT_EQ(report.comm_profile.total_count(prof::Collective::Allreduce), 1u);
  const prof::BucketStats& b = report.comm_profile.bucket(
      prof::Collective::Allreduce, prof::Hvprof::bucket_index(1 * MiB));
  EXPECT_EQ(b.count, 1u);
  EXPECT_EQ(b.bytes, 1 * MiB);
}

TEST(AnalyzeTrace, OverlappingSlotLanesUnionOnce) {
  // Two allreduces on different slots overlap [100,200)∩[150,250): busy
  // time is the union (150), not the sum (200).
  const std::vector<ParsedEvent> events = {
      step_span("forward", 0, 0.0, 80.0),
      comm_span("allreduce", 100.0, 100.0, 40 * MiB, /*slot=*/0),
      comm_span("allreduce", 150.0, 100.0, 40 * MiB, /*slot=*/1),
  };
  const AnalysisReport report = analyze_trace(events);
  const StepAttribution& s = report.steps.front();
  EXPECT_DOUBLE_EQ(s.comm_busy_us, 150.0);
  EXPECT_DOUBLE_EQ(s.exposed_comm_us, 150.0);
  EXPECT_EQ(report.comm_profile.total_count(prof::Collective::Allreduce), 2u);
}

TEST(AnalyzeTrace, RejectsEmptyAndMultiRunTraces) {
  EXPECT_THROW(analyze_trace({}), Error);
  // The same step number appearing twice means several runs were traced
  // into one file (sim time restarts per run).
  const std::vector<ParsedEvent> duplicate = {
      step_span("forward", 0, 0.0, 100.0),
      step_span("forward", 0, 5000.0, 100.0),
  };
  EXPECT_THROW(analyze_trace(duplicate), Error);
  // Distinct step numbers with overlapping windows are the same disease.
  const std::vector<ParsedEvent> overlapping = {
      step_span("forward", 0, 0.0, 100.0),
      step_span("forward", 1, 50.0, 100.0),
  };
  try {
    analyze_trace(overlapping);
    FAIL() << "expected a multi-run error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("more than one run"),
              std::string::npos);
  }
}

TEST(CommAttrib, CollectiveNamesRoundTrip) {
  EXPECT_EQ(collective_from_name("allreduce"), prof::Collective::Allreduce);
  EXPECT_EQ(collective_from_name("broadcast"), prof::Collective::Broadcast);
  EXPECT_EQ(collective_from_name("allgather"), prof::Collective::Allgather);
  EXPECT_THROW(collective_from_name("unpack"), Error);
  EXPECT_THROW(collective_from_name("sendrecv"), Error);
}

// --- cross-rank merge and whole-run critical path -----------------------

ParsedEvent rank_step_span(const std::string& name, std::size_t step,
                           int rank, double ts, double dur) {
  return span(name, "sim", ts, dur, rank,
              {{"step", static_cast<double>(step)},
               {"rank", static_cast<double>(rank)}});
}

TEST(AnalyzeTrace, WholeRunCriticalPathFollowsPerStepCriticalRank) {
  // Two ranks, two steps. Step 0: rank 1's backward ends last (330 vs
  // 300) so rank 1 is critical; step 1: rank 0 (900 vs 800). One exposed
  // allreduce per step sits between backward-end and the optimizer.
  const std::vector<ParsedEvent> events = {
      rank_step_span("forward", 0, 0, 0.0, 100.0),
      rank_step_span("backward", 0, 0, 100.0, 200.0),
      rank_step_span("optimizer", 0, 0, 400.0, 40.0),
      rank_step_span("forward", 0, 1, 0.0, 120.0),
      rank_step_span("backward", 0, 1, 120.0, 210.0),
      rank_step_span("optimizer", 0, 1, 400.0, 40.0),
      comm_span("allreduce", 330.0, 70.0, 40 * MiB),
      rank_step_span("forward", 1, 0, 500.0, 140.0),
      rank_step_span("backward", 1, 0, 640.0, 260.0),
      rank_step_span("optimizer", 1, 0, 960.0, 40.0),
      rank_step_span("forward", 1, 1, 500.0, 100.0),
      rank_step_span("backward", 1, 1, 600.0, 200.0),
      rank_step_span("optimizer", 1, 1, 960.0, 40.0),
      comm_span("allreduce", 900.0, 60.0, 10 * MiB),
  };
  const AnalysisReport report = analyze_trace(events);
  ASSERT_EQ(report.steps.size(), 2u);

  const StepAttribution& s0 = report.steps[0];
  EXPECT_EQ(s0.rank, 1);
  EXPECT_DOUBLE_EQ(s0.forward_us, 120.0);
  EXPECT_DOUBLE_EQ(s0.backward_us, 210.0);
  EXPECT_DOUBLE_EQ(s0.optimizer_us, 40.0);
  EXPECT_DOUBLE_EQ(s0.exposed_comm_us, 70.0);
  EXPECT_DOUBLE_EQ(s0.stall_us, 0.0);
  EXPECT_EQ(s0.bounding_op, "allreduce 32 MB - 64 MB");

  const StepAttribution& s1 = report.steps[1];
  EXPECT_EQ(s1.rank, 0);
  EXPECT_DOUBLE_EQ(s1.forward_us, 140.0);
  EXPECT_DOUBLE_EQ(s1.backward_us, 260.0);
  EXPECT_DOUBLE_EQ(s1.exposed_comm_us, 60.0);
  EXPECT_EQ(s1.bounding_op, "allreduce 128 KB - 16 MB");

  // The whole-run critical path chains both steps, each hop owned by the
  // step's critical rank, with the exposed collectives named inline.
  ASSERT_EQ(report.critical_path.size(), 8u);
  const char* kinds[] = {"forward", "backward", "exposed-comm", "optimizer",
                         "forward", "backward", "exposed-comm", "optimizer"};
  const int ranks[] = {1, 1, 1, 1, 0, 0, 0, 0};
  const double us[] = {120.0, 210.0, 70.0, 40.0, 140.0, 260.0, 60.0, 40.0};
  double comm_us = 0.0;
  for (std::size_t i = 0; i < report.critical_path.size(); ++i) {
    const CriticalSegment& seg = report.critical_path[i];
    EXPECT_EQ(seg.kind, kinds[i]) << "segment " << i;
    EXPECT_EQ(seg.rank, ranks[i]) << "segment " << i;
    EXPECT_DOUBLE_EQ(seg.us, us[i]) << "segment " << i;
    EXPECT_EQ(seg.step, i < 4 ? 0u : 1u) << "segment " << i;
    if (seg.kind == "exposed-comm") {
      comm_us += seg.us;
    }
  }
  EXPECT_EQ(report.critical_path[2].detail, "allreduce 32 MB - 64 MB");
  EXPECT_EQ(report.critical_path[6].detail, "allreduce 128 KB - 16 MB");
  // The path's comm hops sum to the per-step exposed-comm total exactly —
  // they are the same intervals.
  EXPECT_DOUBLE_EQ(comm_us, report.total_exposed_comm_us());

  const std::string table = report.critical_path_table().to_string();
  EXPECT_NE(table.find("exposed-comm"), std::string::npos);
  EXPECT_NE(table.find("allreduce 32 MB - 64 MB"), std::string::npos);
}

TEST(AnalyzeTrace, StragglerFlagsDedupAcrossMergedRankViews) {
  std::vector<ParsedEvent> events = {
      step_span("forward", 0, 0.0, 100.0),
      step_span("backward", 0, 100.0, 200.0),
      step_span("optimizer", 0, 300.0, 40.0),
  };
  // The same flag edge shows up once per traced rank file in a merged
  // trace; only one copy may count.
  const auto flag = [](std::size_t rank, std::size_t step, double score) {
    return span("straggler", "straggler", 10.0, 0.0, 0,
                {{"rank", static_cast<double>(rank)},
                 {"step", static_cast<double>(step)},
                 {"score", score}});
  };
  events.push_back(flag(3, 0, 5.0));
  events.push_back(flag(3, 0, 5.0));  // duplicate view of the same edge
  events.push_back(flag(3, 1, 7.0));
  events.push_back(flag(9, 1, 4.0));
  const AnalysisReport report = analyze_trace(events);
  ASSERT_EQ(report.stragglers.size(), 2u);
  EXPECT_EQ(report.stragglers[0].rank, 3u);  // worst score first
  EXPECT_EQ(report.stragglers[0].flags, 2u);
  EXPECT_DOUBLE_EQ(report.stragglers[0].max_score, 7.0);
  EXPECT_EQ(report.stragglers[0].first_step, 0u);
  EXPECT_EQ(report.stragglers[1].rank, 9u);
  EXPECT_EQ(report.stragglers[1].flags, 1u);
}

TEST(TraceMerge, AlignsClocksKeepsRankZeroCommLanesAndTagsRanks) {
  // Two views of the same simulated instant, rank 1's clock running 2 ms
  // ahead. Both carry the clock_sync anchor, the same comm lane, and the
  // same deterministic flow id.
  const auto rank_view = [](double skew) {
    std::vector<ParsedEvent> v;
    v.push_back(span("clock_sync", "sim", 900.0 + skew, 0.0, 0));
    ParsedEvent fwd = step_span("forward", 0, 1000.0 + skew, 100.0);
    v.push_back(fwd);
    v.push_back(comm_span("allreduce", 1050.0 + skew, 40.0, MiB));
    ParsedEvent flow;
    flow.name = "comm_msg";
    flow.cat = "comm-flow";
    flow.phase = 's';
    flow.ts_us = 1049.0 + skew;
    flow.pid = kSim;
    flow.tid = 0;
    flow.flow_id = 7;
    v.push_back(flow);
    ParsedEvent wall = span("request", "serve", 5.0 + skew, 1.0, 0);
    wall.pid = static_cast<int>(kWallPid);
    v.push_back(wall);
    return v;
  };
  const std::vector<ParsedEvent> r0 = rank_view(0.0);
  const std::vector<ParsedEvent> r1 = rank_view(2000.0);

  EXPECT_DOUBLE_EQ(merge_clock_offset_us(r0, r1), -2000.0);
  EXPECT_DOUBLE_EQ(merge_clock_offset_us(r0, r0), 0.0);
  // No anchor on either side -> no alignment.
  EXPECT_DOUBLE_EQ(merge_clock_offset_us({}, r1), 0.0);
  EXPECT_THROW(merge_rank_traces({}), Error);

  const std::string json = merge_rank_traces({r0, r1});
  EXPECT_NO_THROW(json::parse(json));
  // Lanes are named for the trace viewer.
  EXPECT_NE(json.find("rank 1 compute"), std::string::npos);
  EXPECT_NE(json.find("comm slot 0"), std::string::npos);

  const std::vector<ParsedEvent> merged = parse_trace_events(json);
  std::size_t comm_lanes = 0, flows = 0, wall_events = 0;
  const ParsedEvent* fwd0 = nullptr;
  const ParsedEvent* fwd1 = nullptr;
  for (const ParsedEvent& e : merged) {
    if (e.pid != kSim && e.phase != 'M') {
      ++wall_events;
    }
    if (e.tid >= kLane && e.phase == 'X') {
      ++comm_lanes;
    }
    if (e.phase == 's' && e.flow_id == 7) {
      ++flows;
    }
    if (e.name == "forward" && e.phase == 'X') {
      (e.arg("rank", -1.0) == 1.0 ? fwd1 : fwd0) = &e;
    }
  }
  // Wall-clock events are dropped; rank 0's comm lane is the canonical
  // copy; both ranks' flow starts survive with the id untouched so they
  // fan into that one collective.
  EXPECT_EQ(wall_events, 0u);
  EXPECT_EQ(comm_lanes, 1u);
  EXPECT_EQ(flows, 2u);
  ASSERT_NE(fwd0, nullptr);
  ASSERT_NE(fwd1, nullptr);
  // Rank 1's skew is removed and its compute lane remapped to tid == rank.
  EXPECT_NEAR(fwd1->ts_us, 1000.0, 0.01);
  EXPECT_NEAR(fwd0->ts_us, 1000.0, 0.01);
  EXPECT_EQ(fwd0->tid, 0);
  EXPECT_EQ(fwd1->tid, 1);
}

TEST(TraceMerge, ControlCharactersSurviveAndReparse) {
  // Names and string args go through the Tracer's JSON escape: a newline
  // and a raw 0x01 must come back byte for byte, not be dropped.
  const std::string odd = std::string("layer\n") + '\x01' + "\"q\"\\";
  ParsedEvent e = step_span(odd, 0, 10.0, 5.0);
  e.str_args.emplace_back("label" + odd, "v" + odd);
  const std::string json = merge_rank_traces({{e}});
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_NO_THROW(json::parse(json)) << json;
  bool found = false;
  for (const ParsedEvent& back : parse_trace_events(json)) {
    if (back.phase == 'X') {
      EXPECT_EQ(back.name, odd);
      ASSERT_EQ(back.str_args.size(), 1u);
      EXPECT_EQ(back.str_args[0].first, "label" + odd);
      EXPECT_EQ(back.str_args[0].second, "v" + odd);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- end-to-end equivalence against the simulator -----------------------

TEST(AnalyzeTrace, MatchesSimulatorExposedCommAndHvprof) {
  auto& tracer = Tracer::instance();
  tracer.disable();
  tracer.reset();
  tracer.enable(/*ring_capacity=*/1 << 20);

  const core::PaperExperiment exp;
  core::TrainingJobConfig job = exp.job;
  job.fusion.inflight_buffers = 4;
  const core::DistributedTrainer trainer(exp.graph, exp.perf, job);
  constexpr std::size_t kSteps = 10;
  const core::RunResult r =
      trainer.run(core::BackendKind::MpiOpt, 32, kSteps);

  const std::string path = testing::TempDir() + "dlsr_analyze_e2e.json";
  tracer.write(path);
  tracer.disable();
  tracer.reset();

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const AnalysisReport report = analyze_trace(parse_trace_events(buf.str()));

  ASSERT_EQ(report.steps.size(), kSteps);
  // Acceptance: exposed comm from interval arithmetic on the trace matches
  // the simulator's own StepTimeline::exposed_comm within 1 %.
  const double sim_exposed_us = r.mean_exposed_comm * kSteps * 1e6;
  ASSERT_GT(sim_exposed_us, 0.0);
  EXPECT_NEAR(report.total_exposed_comm_us(), sim_exposed_us,
              sim_exposed_us * 0.01);

  // The traced wire ops rebuild the live hvprof exactly: same counts and
  // bytes per (collective, bucket); times agree to the trace exporter's
  // microsecond rounding (0.0005 us per op).
  for (const prof::Collective c :
       {prof::Collective::Allreduce, prof::Collective::Broadcast,
        prof::Collective::Allgather}) {
    for (std::size_t b = 0; b < prof::Hvprof::kBucketCount; ++b) {
      const prof::BucketStats& live = r.profiler.bucket(c, b);
      const prof::BucketStats& traced = report.comm_profile.bucket(c, b);
      EXPECT_EQ(traced.count, live.count)
          << collective_name(c) << " bucket " << b;
      EXPECT_EQ(traced.bytes, live.bytes)
          << collective_name(c) << " bucket " << b;
      EXPECT_NEAR(traced.time, live.time,
                  1e-9 * static_cast<double>(live.count) + 1e-9)
          << collective_name(c) << " bucket " << b;
    }
  }

  // The report JSON is valid and carries the analysis schema tag.
  const std::string json = report.to_json();
  const json::Value doc = json::parse(json);
  EXPECT_EQ(doc.find("schema")->as_string(), "dlsr-analysis-v1");
  std::remove(path.c_str());
}

TEST(AnalyzeTrace, MergedFig12TraceYieldsConsistentWholeRunCriticalPath) {
  // The acceptance run: 32 nodes (128 GPUs, the paper's fig. 12 scale),
  // four traced rank views with injected clock skew, merged and analyzed
  // whole-run. The critical path's comm hops must agree with the merged
  // trace's per-step exposed-comm total within 1 % (they are equal by
  // construction) and the gating collectives must be named.
  constexpr std::size_t kSteps = 8;
  const std::vector<int> kRanks = {0, 5, 17, 127};
  const core::PaperExperiment exp;

  std::vector<std::vector<ParsedEvent>> views;
  for (const int r : kRanks) {
    auto& tracer = Tracer::instance();
    tracer.disable();
    tracer.reset();
    tracer.enable(/*ring_capacity=*/1 << 20);
    core::TrainingJobConfig job = exp.job;
    job.fusion.inflight_buffers = 4;
    job.trace_rank = r;
    const core::DistributedTrainer trainer(exp.graph, exp.perf, job);
    trainer.run(core::BackendKind::MpiOpt, 32, kSteps);
    // Model per-rank clock skew; the merge must recover and remove it.
    tracer.set_export_ts_offset_us(static_cast<double>(r) * 1000.0);
    const std::string path =
        testing::TempDir() + strfmt("dlsr_fig12_rank%d.json", r);
    tracer.write(path);
    tracer.set_export_ts_offset_us(0.0);
    tracer.disable();
    tracer.reset();
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    views.push_back(parse_trace_events(buf.str()));
  }

  // Anchor alignment recovers the injected skew.
  for (std::size_t i = 1; i < kRanks.size(); ++i) {
    EXPECT_NEAR(merge_clock_offset_us(views[0], views[i]),
                -static_cast<double>(kRanks[i]) * 1000.0, 0.01)
        << "rank " << kRanks[i];
  }

  const AnalysisReport report =
      analyze_trace(parse_trace_events(merge_rank_traces(views)));
  ASSERT_EQ(report.steps.size(), kSteps);

  double comm_us = 0.0;
  bool named_collective = false;
  for (const CriticalSegment& seg : report.critical_path) {
    if (seg.kind != "exposed-comm") {
      continue;
    }
    comm_us += seg.us;
    named_collective =
        named_collective || seg.detail.find("allreduce") != std::string::npos;
  }
  const double exposed = report.total_exposed_comm_us();
  ASSERT_GT(exposed, 0.0);
  EXPECT_NEAR(comm_us, exposed, exposed * 0.01);  // acceptance: within 1 %
  EXPECT_NEAR(comm_us, exposed, 1e-6);            // in fact identical
  EXPECT_TRUE(named_collective);

  // Every step's attribution names a traced rank as its critical rank.
  for (const StepAttribution& s : report.steps) {
    EXPECT_TRUE(std::find(kRanks.begin(), kRanks.end(), s.rank) !=
                kRanks.end())
        << "step " << s.step << " rank " << s.rank;
  }
}

TEST(AnalyzeTrace, AttributesInjectedDataStallInlineVsPipeline) {
  // Simulated 128 nodes (512 GPUs) with a 50 ms/step input load. Inline,
  // the full load is exposed and the analyzer's data row must account for
  // it; through the prefetching loader model the producer hides it under
  // compute and the residual data attribution must be ~zero (the PR's
  // acceptance bar: <= 1 % of step time).
  constexpr std::size_t kSteps = 8;
  constexpr std::size_t kNodes = 128;
  constexpr double kDataTime = 50e-3;

  const core::PaperExperiment exp;
  const auto analyzed = [&](bool pipeline) {
    core::TrainingJobConfig job = exp.job;
    job.data_time = kDataTime;
    job.data_pipeline = pipeline;
    job.prefetch_depth = 2;
    auto& tracer = Tracer::instance();
    tracer.disable();
    tracer.reset();
    tracer.enable(/*ring_capacity=*/1 << 20);
    const core::DistributedTrainer trainer(exp.graph, exp.perf, job);
    const core::RunResult r =
        trainer.run(core::BackendKind::MpiOpt, kNodes, kSteps);
    const std::string path = testing::TempDir() + "dlsr_data_attr.json";
    tracer.write(path);
    tracer.disable();
    tracer.reset();
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    return std::make_pair(analyze_trace(parse_trace_events(buf.str())), r);
  };

  const auto [inline_report, inline_run] = analyzed(false);
  ASSERT_EQ(inline_report.steps.size(), kSteps);
  double inline_data_us = 0.0;
  for (const StepAttribution& s : inline_report.steps) {
    EXPECT_GT(s.data_us, 0.0) << "step " << s.step;
    inline_data_us += s.data_us;
  }
  // The analyzer's data row matches the simulator's own stall accounting
  // (trace-export rounding only)...
  EXPECT_NEAR(inline_data_us, inline_run.mean_data_stall * kSteps * 1e6,
              kSteps * 1.0);
  // ...and the stall is the injected load times the straggler factor: at
  // least the nominal 50 ms/step, at most 1.5x it.
  EXPECT_GE(inline_data_us, kSteps * kDataTime * 1e6 * 0.999);
  EXPECT_LE(inline_data_us, kSteps * kDataTime * 1e6 * 1.5);

  const auto [pipe_report, pipe_run] = analyzed(true);
  ASSERT_EQ(pipe_report.steps.size(), kSteps);
  double pipe_data_us = 0.0;
  for (const StepAttribution& s : pipe_report.steps) {
    pipe_data_us += s.data_us;
  }
  // Acceptance: data-attributed stall <= 1 % of total step time with the
  // pipeline on, versus the measurable inline stall above.
  EXPECT_LE(pipe_data_us, pipe_report.total_step_us() * 0.01);
  EXPECT_LE(pipe_run.mean_data_stall, kDataTime * 0.01);
  // Hiding the load makes steps strictly faster.
  EXPECT_LT(pipe_report.total_step_us(), inline_report.total_step_us());
}

// --- perf gate ----------------------------------------------------------

struct MetricSpec {
  std::string name;
  double value;
  bool higher_is_better;
  double tolerance_pct;
};

std::string envelope_json(const std::string& bench,
                          const std::vector<MetricSpec>& metrics) {
  std::string out = strfmt(
      "{\"schema\":\"dlsr-bench-v1\",\"bench\":\"%s\","
      "\"context\":{\"git_sha\":\"test\",\"threads\":4},\"metrics\":[",
      bench.c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSpec& m = metrics[i];
    out += strfmt(
        "%s{\"name\":\"%s\",\"value\":%.6g,\"unit\":\"x\","
        "\"higher_is_better\":%s,\"tolerance_pct\":%.6g}",
        i == 0 ? "" : ",", m.name.c_str(), m.value,
        m.higher_is_better ? "true" : "false", m.tolerance_pct);
  }
  return out + "]}";
}

CompareResult compare(const std::vector<MetricSpec>& current,
                      const std::vector<MetricSpec>& baseline) {
  return perf_compare(json::parse(envelope_json("bench", current)),
                      json::parse(envelope_json("bench", baseline)));
}

TEST(PerfCompare, SelfCompareIsClean) {
  const std::vector<MetricSpec> m = {{"speedup", 2.5, true, 10.0},
                                     {"step_ms", 12.0, false, 25.0}};
  const CompareResult r = compare(m, m);
  EXPECT_FALSE(r.regression);
  ASSERT_EQ(r.metrics.size(), 2u);
  for (const MetricDelta& d : r.metrics) {
    EXPECT_EQ(d.status, MetricDelta::Status::Ok);
    EXPECT_DOUBLE_EQ(d.improvement_pct, 0.0);
  }
}

TEST(PerfCompare, TwentyPercentRegressionIsFlagged) {
  // Acceptance: a synthetic 20 % regression against a 10 % tolerance exits
  // the gate nonzero (the CLI returns CompareResult::regression).
  const CompareResult r = compare({{"speedup", 2.0, true, 10.0}},
                                  {{"speedup", 2.5, true, 10.0}});
  EXPECT_TRUE(r.regression);
  ASSERT_EQ(r.metrics.size(), 1u);
  EXPECT_EQ(r.metrics[0].status, MetricDelta::Status::Regressed);
  EXPECT_NEAR(r.metrics[0].improvement_pct, -20.0, 1e-9);
}

TEST(PerfCompare, DirectionAwareForLowerIsBetter) {
  // step_ms rising is a regression, falling is an improvement.
  EXPECT_TRUE(compare({{"step_ms", 13.0, false, 20.0}},
                      {{"step_ms", 10.0, false, 20.0}})
                  .regression);
  const CompareResult improved = compare({{"step_ms", 7.0, false, 20.0}},
                                         {{"step_ms", 10.0, false, 20.0}});
  EXPECT_FALSE(improved.regression);
  EXPECT_EQ(improved.metrics[0].status, MetricDelta::Status::Improved);
  EXPECT_NEAR(improved.metrics[0].improvement_pct, 30.0, 1e-9);
}

TEST(PerfCompare, WithinToleranceIsOk) {
  const CompareResult r = compare({{"speedup", 2.3, true, 10.0}},
                                  {{"speedup", 2.5, true, 10.0}});
  EXPECT_FALSE(r.regression);
  EXPECT_EQ(r.metrics[0].status, MetricDelta::Status::Ok);
}

TEST(PerfCompare, BaselinePinsTheTolerancePolicy) {
  // The current run cannot loosen its own gate: a 15 % drop regresses
  // against the baseline's 10 % band even if the current envelope claims a
  // 50 % tolerance.
  const CompareResult r = compare({{"speedup", 2.125, true, 50.0}},
                                  {{"speedup", 2.5, true, 10.0}});
  EXPECT_TRUE(r.regression);
  EXPECT_DOUBLE_EQ(r.metrics[0].tolerance_pct, 10.0);
}

TEST(PerfCompare, MissingMetricRegressesNewMetricInforms) {
  const CompareResult r =
      compare({{"brand_new", 1.0, true, 10.0}},
              {{"vanished", 2.5, true, 10.0}});
  EXPECT_TRUE(r.regression);
  ASSERT_EQ(r.metrics.size(), 2u);
  EXPECT_EQ(r.metrics[0].status, MetricDelta::Status::MissingCurrent);
  EXPECT_EQ(r.metrics[1].status, MetricDelta::Status::NewMetric);
}

TEST(PerfCompare, RejectsMismatchedBenchesAndBadSchemas) {
  const json::Value a = json::parse(envelope_json("a", {}));
  const json::Value b = json::parse(envelope_json("b", {}));
  EXPECT_THROW(perf_compare(a, b), Error);
  EXPECT_THROW(perf_compare(json::parse("{\"schema\":\"nope\"}"), a), Error);
  EXPECT_THROW(perf_compare(json::parse("[1,2]"), a), Error);
}

TEST(PerfCompare, FileRoundTripMatchesInMemory) {
  const std::string cur = testing::TempDir() + "pc_current.json";
  const std::string base = testing::TempDir() + "pc_baseline.json";
  {
    std::ofstream(cur) << envelope_json("bench",
                                        {{"speedup", 2.0, true, 10.0}});
    std::ofstream(base) << envelope_json("bench",
                                         {{"speedup", 2.5, true, 10.0}});
  }
  const CompareResult r = perf_compare_files(cur, base);
  EXPECT_TRUE(r.regression);
  EXPECT_FALSE(r.summary().empty());
  EXPECT_THROW(perf_compare_files(cur, base + ".missing"), Error);
  std::remove(cur.c_str());
  std::remove(base.c_str());
}

}  // namespace
}  // namespace dlsr::obs
