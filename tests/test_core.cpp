// Tests for the distributed trainer and the paper's headline properties.
// The quantitative assertions use deliberately loose bands — they pin the
// *shape* of the reproduction (who wins, by roughly what factor), not exact
// simulator output.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/backend_kind.hpp"
#include "core/experiments.hpp"
#include "obs/trace.hpp"
#include "obs/trace_summary.hpp"

namespace dlsr::core {
namespace {

/// One shared experiment for the expensive runs in this file.
class TrainerFixture : public ::testing::Test {
 protected:
  static const PaperExperiment& exp() {
    static PaperExperiment e;
    return e;
  }
  static const DistributedTrainer& trainer() {
    static DistributedTrainer t = exp().make_trainer();
    return t;
  }
};

TEST(BackendKindTest, Names) {
  EXPECT_STREQ(backend_kind_name(BackendKind::Mpi), "MPI");
  EXPECT_STREQ(backend_kind_name(BackendKind::MpiReg), "MPI-Reg");
  EXPECT_STREQ(backend_kind_name(BackendKind::MpiOpt), "MPI-Opt");
  EXPECT_STREQ(backend_kind_name(BackendKind::Nccl), "NCCL");
}

TEST(BackendKindTest, FactoryConfiguresEnv) {
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  auto mpi = make_backend(BackendKind::Mpi, cluster);
  EXPECT_EQ(mpi->name(), "MPI");
  EXPECT_FALSE(mpi->overlaps_compute());
  auto opt = make_backend(BackendKind::MpiOpt, cluster);
  EXPECT_EQ(opt->name(), "MPI-Opt");
  EXPECT_TRUE(opt->overlaps_compute());
  auto nccl = make_backend(BackendKind::Nccl, cluster);
  EXPECT_GT(nccl->compute_contention(), 1.0);
}

TEST(JobConfig, PaperPreset) {
  const TrainingJobConfig job = TrainingJobConfig::paper_edsr();
  EXPECT_EQ(job.batch_per_gpu, 4u);
  EXPECT_EQ(job.fusion.fusion_threshold, 64ull * 1024 * 1024);
  EXPECT_GT(job.fusion.cycle_time, 0.0);
}

TEST_F(TrainerFixture, SingleGpuBaselineMatchesFig1) {
  EXPECT_NEAR(trainer().single_gpu_images_per_second(), 10.3, 1.0);
}

TEST_F(TrainerFixture, RunsAreDeterministic) {
  const RunResult a = trainer().run(BackendKind::MpiOpt, 2, 5);
  const RunResult b = trainer().run(BackendKind::MpiOpt, 2, 5);
  ASSERT_EQ(a.step_times.size(), b.step_times.size());
  for (std::size_t i = 0; i < a.step_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.step_times[i], b.step_times[i]);
  }
  EXPECT_DOUBLE_EQ(a.images_per_second, b.images_per_second);
}

TEST_F(TrainerFixture, ThroughputGrowsWithNodes) {
  const RunResult small = trainer().run(BackendKind::MpiOpt, 1, 8);
  const RunResult big = trainer().run(BackendKind::MpiOpt, 16, 8);
  EXPECT_GT(big.images_per_second, 8.0 * small.images_per_second);
}

TEST_F(TrainerFixture, EfficiencyDegradesWithScale) {
  const RunResult small = trainer().run(BackendKind::Mpi, 1, 8);
  const RunResult big = trainer().run(BackendKind::Mpi, 64, 8);
  EXPECT_LT(big.scaling_efficiency, small.scaling_efficiency);
  EXPECT_LE(small.scaling_efficiency, 1.0);
  EXPECT_GT(big.scaling_efficiency, 0.0);
}

TEST_F(TrainerFixture, OptimizedBeatsDefaultEverywhere) {
  for (const std::size_t nodes : {1ul, 4ul, 32ul}) {
    const RunResult def = trainer().run(BackendKind::Mpi, nodes, 8);
    const RunResult opt = trainer().run(BackendKind::MpiOpt, nodes, 8);
    EXPECT_GT(opt.images_per_second, def.images_per_second)
        << nodes << " nodes";
  }
}

TEST_F(TrainerFixture, RegCacheBetweenDefaultAndOpt) {
  const RunResult def = trainer().run(BackendKind::Mpi, 16, 10);
  const RunResult reg = trainer().run(BackendKind::MpiReg, 16, 10);
  const RunResult opt = trainer().run(BackendKind::MpiOpt, 16, 10);
  EXPECT_GT(reg.images_per_second, def.images_per_second);
  EXPECT_LT(reg.images_per_second, opt.images_per_second);
  EXPECT_GT(reg.reg_cache_hit_rate, 0.85);
  EXPECT_EQ(def.reg_cache_hit_rate, 0.0);  // cache disabled counts all misses
}

TEST_F(TrainerFixture, PaperHeadlineShapeAt512Gpus) {
  // The paper's §VII numbers, with generous bands:
  //   default < 60 % efficiency, MPI-Opt > 70 %, speedup ~1.26x.
  const RunResult def = trainer().run(BackendKind::Mpi, 128, 20);
  const RunResult opt = trainer().run(BackendKind::MpiOpt, 128, 20);
  EXPECT_EQ(def.gpus, 512u);
  EXPECT_LT(def.scaling_efficiency, 0.62);
  EXPECT_GT(def.scaling_efficiency, 0.40);
  EXPECT_GT(opt.scaling_efficiency, 0.68);
  EXPECT_LT(opt.scaling_efficiency, 0.85);
  const double speedup = opt.images_per_second / def.images_per_second;
  EXPECT_GT(speedup, 1.15);
  EXPECT_LT(speedup, 1.45);
}

TEST_F(TrainerFixture, TableOneShapeAt4Gpus) {
  const RunResult def = trainer().run(BackendKind::Mpi, 1, 30);
  const RunResult opt = trainer().run(BackendKind::MpiOpt, 1, 30);
  const double d = def.allreduce_time_total;
  const double o = opt.allreduce_time_total;
  // Total improvement ~45 % (band 30-60 %).
  EXPECT_GT((d - o) / d, 0.30);
  EXPECT_LT((d - o) / d, 0.60);
  // Large buckets (>=16 MB) must dominate the default time.
  const double big =
      def.profiler.bucket(prof::Collective::Allreduce, 2).time +
      def.profiler.bucket(prof::Collective::Allreduce, 3).time;
  EXPECT_GT(big / d, 0.75);
  // Small bucket (latency-bound) must be essentially unchanged.
  const double ds = def.profiler.bucket(prof::Collective::Allreduce, 0).time;
  const double os = opt.profiler.bucket(prof::Collective::Allreduce, 0).time;
  EXPECT_NEAR(os, ds, 0.15 * ds);
}

TEST_F(TrainerFixture, ExposedCommDropsWithIpc) {
  const RunResult def = trainer().run(BackendKind::Mpi, 32, 10);
  const RunResult opt = trainer().run(BackendKind::MpiOpt, 32, 10);
  EXPECT_LT(opt.mean_exposed_comm, 0.5 * def.mean_exposed_comm);
}

TEST_F(TrainerFixture, NcclCompetitive) {
  const RunResult def = trainer().run(BackendKind::Mpi, 64, 10);
  const RunResult nccl = trainer().run(BackendKind::Nccl, 64, 10);
  EXPECT_GT(nccl.images_per_second, def.images_per_second);
  EXPECT_EQ(nccl.reg_cache_hit_rate, 0.0);  // no registration cache in NCCL
}


TEST_F(TrainerFixture, StragglerNodeGatesTheJob) {
  // Failure injection: one 2x-slow node drags synchronous training down to
  // roughly the straggler's pace, at any scale.
  core::TrainingJobConfig job = exp().job;
  const core::DistributedTrainer healthy(exp().graph, exp().perf, job);
  job.straggler_slowdown = 2.0;
  const core::DistributedTrainer degraded(exp().graph, exp().perf, job);
  const core::RunResult h = healthy.run(core::BackendKind::MpiOpt, 8, 8);
  const core::RunResult d = degraded.run(core::BackendKind::MpiOpt, 8, 8);
  EXPECT_LT(d.images_per_second, 0.65 * h.images_per_second);
  EXPECT_GT(d.images_per_second, 0.40 * h.images_per_second);
}

TEST_F(TrainerFixture, TimelineRecordsEveryStepAndMessage) {
  // The Horovod-timeline view of a run is its trace's simulated-time
  // lanes: per-step forward/backward spans, plus one allreduce span with
  // its byte count per message on the comm-slot lanes.
  constexpr std::size_t kSteps = 5;
  constexpr double kEpsUs = 0.5;  // %.3f export rounding
  auto& tracer = obs::Tracer::instance();
  tracer.disable();
  tracer.reset();
  tracer.enable();
  const core::RunResult r =
      trainer().run(core::BackendKind::MpiOpt, 2, kSteps);
  tracer.disable();
  const std::vector<obs::ParsedEvent> events =
      obs::parse_trace_events(tracer.to_chrome_trace_json());
  tracer.reset();

  std::vector<const obs::ParsedEvent*> forward;
  std::vector<const obs::ParsedEvent*> backward;
  std::vector<double> fused_starts;  ///< gradient messages (metric ones are 8 B)
  for (const obs::ParsedEvent& e : events) {
    if (e.phase != 'X' || e.pid != static_cast<int>(obs::kSimPid)) {
      continue;
    }
    if (e.tid >= obs::kCommLaneBase) {
      if (e.name == "allreduce") {
        EXPECT_GT(e.arg("bytes", 0.0), 0.0);
        if (e.arg("bytes", 0.0) > 8.0) {
          fused_starts.push_back(e.ts_us);
        }
      }
    } else if (e.name == "forward") {
      forward.push_back(&e);
    } else if (e.name == "backward") {
      backward.push_back(&e);
    }
  }
  ASSERT_EQ(forward.size(), kSteps);
  ASSERT_EQ(backward.size(), kSteps);
  for (std::size_t s = 0; s < kSteps; ++s) {
    const double step = static_cast<double>(s);
    EXPECT_EQ(forward[s]->arg("step", -1.0), step);
    EXPECT_EQ(backward[s]->arg("step", -1.0), step);
    EXPECT_NEAR(backward[s]->ts_us, forward[s]->ts_us + forward[s]->dur_us,
                kEpsUs);
    const double next = s + 1 < kSteps
                            ? forward[s + 1]->ts_us
                            : std::numeric_limits<double>::infinity();
    EXPECT_LE(backward[s]->ts_us + backward[s]->dur_us, next + kEpsUs);
    EXPECT_TRUE(std::any_of(fused_starts.begin(), fused_starts.end(),
                            [&](double ts) {
                              return ts >= forward[s]->ts_us && ts < next;
                            }))
        << "no fused message in step " << s;
  }
  // The profiler also counts the per-step metric allreduces.
  EXPECT_LE(fused_starts.size() + kSteps * 2,
            r.profiler.total_count(prof::Collective::Allreduce));
}

TEST_F(TrainerFixture, TracedRunKeepsLinkCounterTrackNames) {
  // Links format their counter-track names only while tracing; the names
  // a trace viewer groups by must stay what they were.
  auto& tracer = obs::Tracer::instance();
  tracer.disable();
  tracer.reset();
  tracer.enable(/*ring_capacity=*/1 << 18);
  for (const BackendKind kind : {BackendKind::Mpi, BackendKind::MpiOpt}) {
    (void)trainer().run(kind, 2, 3);
  }
  tracer.disable();
  const std::vector<obs::ParsedEvent> events =
      obs::parse_trace_events(tracer.to_chrome_trace_json());
  tracer.reset();
  std::set<std::string> tracks;
  for (const obs::ParsedEvent& e : events) {
    if (e.phase == 'C' && e.cat == "sim") {
      tracks.insert(e.name);
    }
  }
  for (const char* name : {"gpu0.nvlink", "node1.hostbus", "node0.ib1"}) {
    EXPECT_EQ(tracks.count(name), 1u) << name;
  }
}

TEST(Experiments, NodeCountsMatchPaper) {
  const auto nodes = paper_node_counts();
  EXPECT_EQ(nodes.front(), 1u);
  EXPECT_EQ(nodes.back(), 128u);  // 512 GPUs
}

TEST(Experiments, RunScalingProducesOnePointPerNodeCount) {
  const PaperExperiment exp;
  const DistributedTrainer trainer = exp.make_trainer();
  const auto results =
      run_scaling(trainer, BackendKind::MpiOpt, {1, 2, 4}, 4);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].gpus, 4u);
  EXPECT_EQ(results[2].gpus, 16u);
}

TEST(Experiments, InvalidRunRejected) {
  const PaperExperiment exp;
  const DistributedTrainer trainer = exp.make_trainer();
  EXPECT_THROW(trainer.run(BackendKind::Mpi, 0, 10), dlsr::Error);
  EXPECT_THROW(trainer.run(BackendKind::Mpi, 1, 0), dlsr::Error);
}

}  // namespace
}  // namespace dlsr::core
