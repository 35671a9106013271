// sim_scaling / sim_overlap: core::DistributedTrainer on the Lassen model —
// MPI, MPI-Reg, MPI-Opt and NCCL at 1..128 nodes (4..512 GPUs). Only sim,
// mpisim, ncclsim, comm scheduling, hvd fusion and prof work here.
//
//   sim_scaling  the paper's job (one fused buffer in flight, fp32 wire,
//                free input) plus its Table I pair: default MPI vs MPI-Opt,
//                100 steps on 4 GPUs.
//   sim_overlap  the same job with 4 fused buffers in flight, the fp16
//                gradient wire and a 50 ms/step input load hidden by the
//                prefetching loader model: the comm-slot scheduler,
//                quantize costs and the data-stall model, which sim_scaling
//                bypasses.
//
// One operation is one simulated point; a round is every point once, and
// rounds repeat for the run's length, each checked bit for bit against the
// first. The seed drives the per-rank compute jitter.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "core/experiments.hpp"
#include "layers.hpp"
#include "mpisim/allreduce.hpp"
#include "mpisim/transport.hpp"
#include "prof/hvprof.hpp"
#include "sim/topology.hpp"

namespace perfbench {
namespace {

using dlsr::core::BackendKind;
using dlsr::core::RunResult;
using dlsr::prof::Collective;
using dlsr::strfmt;

/// Simulated points per second of --seconds (about what this 4-core host
/// runs), and set-ups timed per run, spread evenly over its rounds.
constexpr double kPointsPerSecond = 700.0;
constexpr std::size_t kSetupRepeats = 40;
constexpr std::size_t kSteps = 40;        ///< per scaling point (Figs. 10-13)
constexpr std::size_t kTableSteps = 100;  ///< Table I
constexpr std::size_t kWarmupSteps = 2;
constexpr std::size_t kHeadlineSteps = 1600;
constexpr BackendKind kBackends[] = {BackendKind::Mpi, BackendKind::MpiReg,
                                     BackendKind::MpiOpt, BackendKind::Nccl};
/// Paper bands at 512 GPUs (Fig. 13) and the Table I allreduce cut.
constexpr double kMpiEffMaxPct = 60.0;
constexpr double kMpiOptEffMinPct = 70.0;
constexpr double kPaperCutPct = 45.4;
constexpr double kCutBandPct = 5.0;
/// sim_overlap settings.
constexpr std::size_t kOverlapInflight = 4;
constexpr double kOverlapDataTimeS = 0.050;
/// The pipeline must hide all but this share of the input time.
constexpr double kMaxDataStallShare = 0.1;

struct Point {
  BackendKind kind = BackendKind::Mpi;
  std::size_t nodes = 1;
  std::size_t steps = kSteps;
};

std::vector<Point> round_points(bool overlap) {
  std::vector<Point> points;
  for (const BackendKind kind : kBackends) {
    for (const std::size_t nodes : dlsr::core::paper_node_counts()) {
      points.push_back({kind, nodes, kSteps});
    }
  }
  if (!overlap) {
    points.push_back({BackendKind::Mpi, 1, kTableSteps});
    points.push_back({BackendKind::MpiOpt, 1, kTableSteps});
  }
  return points;
}

dlsr::core::TrainingJobConfig job_config(const dlsr::core::PaperExperiment& exp,
                                         bool overlap, std::uint64_t seed) {
  dlsr::core::TrainingJobConfig job = exp.job;
  job.seed = seed;
  if (overlap) {
    job.fusion.inflight_buffers = kOverlapInflight;
    job.fusion.wire = dlsr::comm::WireFormat::Fp16;
    job.data_time = kOverlapDataTimeS;
    job.data_pipeline = true;
  }
  return job;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool identical(const RunResult& a, const RunResult& b) {
  if (!same_bits(a.images_per_second, b.images_per_second) ||
      !same_bits(a.mean_exposed_comm, b.mean_exposed_comm) ||
      !same_bits(a.mean_data_stall, b.mean_data_stall) ||
      !same_bits(a.allreduce_time_total, b.allreduce_time_total) ||
      !same_bits(a.reg_cache_hit_rate, b.reg_cache_hit_rate) ||
      a.step_times.size() != b.step_times.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.step_times.size(); ++i) {
    if (!same_bits(a.step_times[i], b.step_times[i])) {
      return false;
    }
  }
  return true;
}

/// Runs one round; each point is one operation record.
std::vector<RunResult> run_round(const dlsr::core::DistributedTrainer& trainer,
                                 const std::vector<Point>& points,
                                 std::size_t round,
                                 std::vector<double>* round_ms) {
  const Clock::time_point r0 = Clock::now();
  std::vector<RunResult> results;
  results.reserve(points.size());
  for (const Point& p : points) {
    const Clock::time_point t0 = Clock::now();
    results.push_back(trainer.run(p.kind, p.nodes, p.steps));
    emit(strfmt(R"({"t":"op","round":%zu,"backend":"%s","nodes":%zu,)"
                R"("ms":%.6f})",
                round, dlsr::core::backend_kind_name(p.kind), p.nodes,
                seconds_since(t0) * 1e3));
  }
  round_ms->push_back(seconds_since(r0) * 1e3);
  return results;
}

const RunResult& at(const std::vector<RunResult>& results,
                    const std::vector<Point>& points, BackendKind kind,
                    std::size_t nodes, std::size_t steps = kSteps) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].kind == kind && points[i].nodes == nodes &&
        points[i].steps == steps) {
      return results[i];
    }
  }
  throw std::runtime_error("no such scaling point");
}

std::size_t top_nodes() { return dlsr::core::paper_node_counts().back(); }

/// Bytes of every allreduce above the 128 KB metric bucket (the fused
/// gradient messages).
double fused_bytes(const RunResult& r) {
  double bytes = 0.0;
  for (std::size_t b = 1; b < dlsr::prof::Hvprof::kBucketCount; ++b) {
    bytes += static_cast<double>(r.profiler.bucket(Collective::Allreduce, b).bytes);
  }
  return bytes;
}

/// Ring allreduce on 2 Lassen nodes: every node's IB ports carry exactly
/// 2(p-1)/p of the payload, computed here independently of mpisim.
void check_ring_wire_bytes(std::uint64_t seed) {
  constexpr std::size_t kPayload = 8ull << 20;  // ring range (32 KiB-16 MiB)
  dlsr::sim::Cluster cluster(dlsr::sim::ClusterSpec::lassen(2));
  dlsr::mpisim::Transport transport(
      cluster, dlsr::mpisim::MpiEnv::mpi_opt(),
      dlsr::mpisim::TransportConfig::mvapich2_gdr(), seed);
  dlsr::mpisim::AllreduceEngine engine(transport,
                                       dlsr::mpisim::AllreduceConfig{});
  engine.run(kPayload, 1, 0.0, dlsr::mpisim::AllreduceAlgo::Ring);
  const std::size_t p = cluster.total_gpus();
  const std::size_t want = 2 * kPayload * (p - 1) / p;
  bool ok = true;
  std::string detail;
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    std::size_t bytes = 0;
    for (std::size_t port = 0; port < cluster.spec().ib_ports_per_node;
         ++port) {
      bytes += cluster.ib_port(n, port).total_bytes();
    }
    ok = ok && bytes == want;
    detail += strfmt("node %zu: %zu B; ", n, bytes);
  }
  emit_check("ring_wire_bytes", ok,
             detail + strfmt("want 2(p-1)/p x %zu B = %zu B (p = %zu)",
                             kPayload, want, p));
}

void check_buckets(const std::vector<RunResult>& r) {
  bool sums = true;
  for (const RunResult& run : r) {
    double bucket_sum = 0.0;
    for (std::size_t b = 0; b < dlsr::prof::Hvprof::kBucketCount; ++b) {
      bucket_sum += run.profiler.bucket(Collective::Allreduce, b).time;
    }
    const double total = run.profiler.total_time(Collective::Allreduce);
    sums = sums && std::fabs(bucket_sum - total) <= 1e-12 * total;
  }
  emit_check("hvprof_buckets_sum_to_total", sums,
             "per-bucket allreduce times add up to the profiler total on "
             "every point");
}

/// The paper's bands, on the paper's job.
void check_paper(const std::vector<RunResult>& r,
                 const std::vector<Point>& points) {
  const std::vector<std::size_t> nodes = dlsr::core::paper_node_counts();
  const double mpi_eff =
      at(r, points, BackendKind::Mpi, top_nodes()).scaling_efficiency;
  const double opt_eff =
      at(r, points, BackendKind::MpiOpt, top_nodes()).scaling_efficiency;
  emit_check("mpi_eff_512_below_60", mpi_eff * 100 < kMpiEffMaxPct,
             strfmt("MPI efficiency at 512 GPUs %.2f %%", mpi_eff * 100));
  emit_check("mpi_opt_eff_512_above_70", opt_eff * 100 > kMpiOptEffMinPct,
             strfmt("MPI-Opt efficiency at 512 GPUs %.2f %%", opt_eff * 100));

  const double def_total = at(r, points, BackendKind::Mpi, 1, kTableSteps)
                               .profiler.total_time(Collective::Allreduce);
  const double opt_total = at(r, points, BackendKind::MpiOpt, 1, kTableSteps)
                               .profiler.total_time(Collective::Allreduce);
  const double cut = (def_total - opt_total) / def_total * 100.0;
  emit_check("table1_cut_near_45_4",
             std::fabs(cut - kPaperCutPct) <= kCutBandPct,
             strfmt("allreduce cut %.2f %% (paper %.1f %% +- %.1f pp)", cut,
                    kPaperCutPct, kCutBandPct));

  bool falls = true;
  std::string effs;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double e =
        at(r, points, BackendKind::Mpi, nodes[i]).scaling_efficiency;
    effs += strfmt("%.2f ", e * 100);
    if (i > 0) {
      falls = falls && e < at(r, points, BackendKind::Mpi, nodes[i - 1])
                               .scaling_efficiency;
    }
  }
  emit_check("mpi_eff_falls_with_nodes", falls,
             "MPI efficiency % by node count: " + effs);
}

/// The overlap job against the paper's job at 512 GPUs, MPI-Opt: the fp16
/// wire moves exactly half the fused bytes, deeper queues cut exposed
/// comm, and the pipeline hides the input time.
void check_overlap(const RunResult& overlap, const RunResult& paper,
                   double data_time_s) {
  const double half = fused_bytes(paper) / 2.0;
  emit_check("fp16_wire_halves_bytes", fused_bytes(overlap) == half,
             strfmt("fused allreduce bytes %.0f, fp32 job / 2 = %.0f",
                    fused_bytes(overlap), half));
  emit_check("overlap_cuts_exposed_comm",
             overlap.mean_exposed_comm < paper.mean_exposed_comm,
             strfmt("exposed comm %.3f ms vs %.3f ms on the paper's job",
                    overlap.mean_exposed_comm * 1e3,
                    paper.mean_exposed_comm * 1e3));
  emit_check("pipeline_hides_input",
             overlap.mean_data_stall <= kMaxDataStallShare * data_time_s,
             strfmt("exposed input wait %.3f ms of %.1f ms per step",
                    overlap.mean_data_stall * 1e3, data_time_s * 1e3));
}

/// Per-layer figures of the simulated run (see README.md).
void emit_layers(const std::vector<RunResult>& r,
                 const std::vector<Point>& points, bool overlap) {
  const RunResult& opt = at(r, points, BackendKind::MpiOpt, top_nodes());
  const RunResult& table_opt = overlap ? at(r, points, BackendKind::MpiOpt, 1)
                                       : at(r, points, BackendKind::MpiOpt, 1,
                                            kTableSteps);
  const RunResult& table_def =
      overlap ? at(r, points, BackendKind::Mpi, 1)
              : at(r, points, BackendKind::Mpi, 1, kTableSteps);
  const double def_total = table_def.profiler.total_time(Collective::Allreduce);
  const double opt_total = table_opt.profiler.total_time(Collective::Allreduce);
  emit_metric("mpisim.allreduce_s_total", opt_total, "s");
  emit_metric("mpisim.allreduce_cut_pct",
              (def_total - opt_total) / def_total * 100.0, "%");
  emit_metric("mpisim.reg_cache_hit_ratio", opt.reg_cache_hit_rate, "ratio");
  emit_metric("prof.bucket_16_64mb_s",
              table_opt.profiler.bucket(Collective::Allreduce, 2).time +
                  table_opt.profiler.bucket(Collective::Allreduce, 3).time,
              "s");
  double count = 0.0;
  for (std::size_t b = 1; b < dlsr::prof::Hvprof::kBucketCount; ++b) {
    count += static_cast<double>(
        opt.profiler.bucket(Collective::Allreduce, b).count);
  }
  emit_metric("hvd.fused_msg_mib_mean",
              count > 0 ? fused_bytes(opt) / count / (1024.0 * 1024.0) : 0.0,
              "MiB");
  const double steps = static_cast<double>(opt.step_times.size());
  emit_metric("sim.overlapped_comm_ms",
              (opt.allreduce_time_total / steps - opt.mean_exposed_comm) * 1e3,
              "ms");
  emit_metric("sim.data_stall_ms", opt.mean_data_stall * 1e3, "ms");
  emit_metric("sim.mpi_img_per_s",
              at(r, points, BackendKind::Mpi, top_nodes()).images_per_second,
              "img/s");
  emit_metric("sim.mpi_reg_img_per_s",
              at(r, points, BackendKind::MpiReg, top_nodes()).images_per_second,
              "img/s");
  emit_metric("sim.nccl_img_per_s",
              at(r, points, BackendKind::Nccl, top_nodes()).images_per_second,
              "img/s");
}

/// Wall-clock self time per simulator layer, per traced point, from the
/// spans the program emits; they add up to core/simulate_run.
void emit_wall_layers(const std::map<std::string, LayerTime>& times,
                      std::size_t points, double traced_ms_per_point) {
  const double n = static_cast<double>(points);
  double sum = 0.0;
  const auto self_ms = [&](const char* key) {
    const auto it = times.find(key);
    const double ms = it == times.end() ? 0.0 : it->second.self_us / 1e3 / n;
    sum += ms;
    return ms;
  };
  emit_metric("core.simulate_self_ms", self_ms("core/simulate_run"), "ms");
  emit_metric("hvd.fusion_self_ms", self_ms("hvd/fusion_step"), "ms");
  emit_metric("mpisim.allreduce_model_self_ms",
              self_ms("mpisim/allreduce_model"), "ms");
  emit_metric("ncclsim.allreduce_model_self_ms",
              self_ms("ncclsim/allreduce_model"), "ms");
  emit_metric("sim.layer_sum_ms", sum, "ms");
  emit_metric("sim.unattributed_ms", traced_ms_per_point - sum, "ms");
}

/// The experiment and its trainer.
struct Sim {
  std::unique_ptr<dlsr::core::PaperExperiment> exp;
  std::unique_ptr<dlsr::core::DistributedTrainer> trainer;
};

/// One timed set-up: the experiment, the trainer, and a warm-up point.
Sim set_up(std::uint64_t seed, bool overlap) {
  const Clock::time_point t0 = Clock::now();
  Sim s;
  s.exp = std::make_unique<dlsr::core::PaperExperiment>();
  s.trainer = std::make_unique<dlsr::core::DistributedTrainer>(
      s.exp->graph, s.exp->perf, job_config(*s.exp, overlap, seed));
  (void)s.trainer->single_gpu_images_per_second();
  // Warm-up: a short 512-GPU point builds the largest cluster once.
  (void)s.trainer->run(BackendKind::MpiOpt, top_nodes(), kWarmupSteps);
  emit_setup(seconds_since(t0));
  return s;
}

}  // namespace

int run_sim(const Args& args, bool overlap) {
  const std::uint64_t seed = derive_seed(args.seed, 31);
  const Sim sim = set_up(seed, overlap);
  const dlsr::core::DistributedTrainer* trainer = sim.trainer.get();

  const std::vector<Point> points = round_points(overlap);
  std::vector<double> round_ms;
  // A fixed amount of work per second asked for, not a deadline: the
  // metrics registry keeps every simulated step's sample, so peak RSS
  // depends on how many points ran, and must not depend on host speed.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::size_t total_rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(
             untraced_s * kPointsPerSecond /
             static_cast<double>(points.size()))));
  const std::size_t setup_every =
      std::max<std::size_t>(1, total_rounds / kSetupRepeats);
  emit_plan(total_rounds * points.size());
  const std::vector<RunResult> first =
      run_round(*trainer, points, 0, &round_ms);

  // Simulated end-to-end figures: MPI-Opt at 512 GPUs, over enough steps
  // that the seed's jitter draws average out.
  const RunResult& opt = at(first, points, BackendKind::MpiOpt, top_nodes());
  const RunResult headline =
      trainer->run(BackendKind::MpiOpt, top_nodes(), kHeadlineSteps);
  emit(strfmt(R"({"t":"sim","img_per_s":%.9g,"eff_pct":%.9g,)"
              R"("exposed_comm_ms":%.9g})",
              headline.images_per_second,
              headline.scaling_efficiency * 100.0,
              headline.mean_exposed_comm * 1e3));

  std::size_t diverged = 0;
  for (std::size_t round = 1; round < total_rounds; ++round) {
    // Set-up is timed again through the run, so its median spans the
    // host's slow and fast spells like the rounds do.
    if (round % setup_every == 0) {
      (void)set_up(seed, overlap);
    }
    const std::vector<RunResult> again =
        run_round(*trainer, points, round, &round_ms);
    for (std::size_t i = 0; i < again.size(); ++i) {
      diverged += identical(again[i], first[i]) ? 0 : 1;
    }
  }
  emit_check("bit_identical_across_rounds", diverged == 0,
             strfmt("%zu of %zu repeated points differ from round 1",
                    diverged, (total_rounds - 1) * points.size()));
  check_buckets(first);
  check_ring_wire_bytes(derive_seed(args.seed, 32));
  if (overlap) {
    dlsr::core::PaperExperiment paper_exp;
    const dlsr::core::DistributedTrainer paper(
        paper_exp.graph, paper_exp.perf, job_config(paper_exp, false, seed));
    check_overlap(opt, paper.run(BackendKind::MpiOpt, top_nodes(), kSteps),
                  kOverlapDataTimeS);
  } else {
    check_paper(first, points);
  }

  if (args.trace) {
    // Alternate untraced and traced runs of the 512-GPU MPI-Opt and NCCL
    // points for the rest of the run, one point per tracer session so the
    // ring never wraps.
    constexpr BackendKind kTraced[] = {BackendKind::MpiOpt, BackendKind::Nccl};
    std::vector<double> overhead_pct;
    double traced_ms = 0.0;
    std::size_t traced_points = 0;
    std::map<std::string, LayerTime> times;
    bool same = true;
    const Clock::time_point t1 = Clock::now();
    while (seconds_since(t1) < args.seconds - untraced_s) {
      for (const BackendKind kind : kTraced) {
        const RunResult& want = at(first, points, kind, top_nodes());
        Clock::time_point p0 = Clock::now();
        same = same && identical(trainer->run(kind, top_nodes(), kSteps), want);
        const double base_ms = seconds_since(p0) * 1e3;
        start_tracing(1 << 18);
        p0 = Clock::now();
        same = same && identical(trainer->run(kind, top_nodes(), kSteps), want);
        const double ms = seconds_since(p0) * 1e3;
        for (const auto& [key, lt] : layer_times(stop_tracing())) {
          LayerTime& sum = times[key];
          sum.count += lt.count;
          sum.total_us += lt.total_us;
          sum.self_us += lt.self_us;
        }
        traced_ms += ms;
        ++traced_points;
        overhead_pct.push_back((ms - base_ms) / base_ms * 100.0);
      }
    }
    emit_check("tracing_keeps_results", same,
               "traced and untraced 512-GPU points match round 1 bit for bit");
    emit_layers(first, points, overlap);
    emit_metric("sim.round_ms_p50", dlsr::percentile(round_ms, 0.5), "ms");
    emit_wall_layers(times, traced_points,
                     traced_ms / static_cast<double>(traced_points));
    emit_metric("obs.trace_overhead_pct", dlsr::percentile(overhead_pct, 0.5),
                "%");
  }
  return 0;
}

}  // namespace perfbench
