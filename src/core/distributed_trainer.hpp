// DistributedTrainer — simulates synchronous data-parallel EDSR training on
// the modeled cluster and reports the metrics the paper plots: training
// throughput (images/second) and scaling efficiency.
//
// Per step:
//   1. Compute times (forward/backward/optimizer) come from the calibrated
//      V100 performance model.
//   2. Each rank's compute is perturbed by lognormal jitter (OS noise,
//      dataloader variance); the synchronous step runs at the pace of the
//      slowest rank — the straggler effect that grows with scale.
//   3. Gradient tensors become ready through backward per the model graph;
//      the Horovod Tensor Fusion engine packs them and issues allreduces on
//      the configured backend over the shared cluster links.
//   4. The step ends when compute and the last allreduce have finished.
//
// Scaling efficiency is throughput / (GPUs x single-GPU throughput), the
// paper's Fig. 13 metric.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/backend_kind.hpp"
#include "hvd/fusion.hpp"
#include "models/model_graph.hpp"
#include "obs/straggler.hpp"
#include "perf/v100_model.hpp"

namespace dlsr::core {

struct TrainingJobConfig {
  std::size_t batch_per_gpu = 4;  ///< the paper's chosen batch size (§IV-C)
  hvd::FusionConfig fusion;
  /// Lognormal sigma of per-rank per-step compute jitter (OS noise plus
  /// parallel-filesystem dataloader variance; SR training streams 2K
  /// images, so this is larger than classification workloads see).
  double jitter_sigma = 0.07;
  /// Small (8 B) metric allreduces per step: loss averaging + logging sync
  /// (the paper's §III-A step 5 adds per-step logging).
  std::size_t metric_allreduces_per_step = 2;
  /// Failure injection: multiplies the compute time of every rank on
  /// `straggler_node` (1.0 = healthy). Synchronous training runs at the
  /// slowest rank's pace, so a single slow node gates the whole job.
  double straggler_slowdown = 1.0;
  std::size_t straggler_node = 0;
  /// Single-rank fault injection for straggler-detector validation
  /// (`--perturb-rank R,factor`): multiplies rank R's compute time by
  /// `perturb_factor`. -1 = no perturbation. Unlike straggler_slowdown
  /// (whole node), this models one sick GPU.
  std::int64_t perturb_rank = -1;
  double perturb_factor = 1.0;
  /// Per-rank straggler detection over rolling step times (obs::
  /// StragglerDetector). On by default; the detector's report lands in
  /// RunResult::straggler and flag edges are mirrored into the trace.
  bool detect_stragglers = true;
  obs::StragglerConfig straggler_detect;
  /// Per-replica input load/decode latency per step, seconds (parallel
  /// filesystem read + decode + augment of one batch). 0 models free data
  /// and reproduces pre-pipeline traces exactly — no extra RNG draws.
  double data_time = 0.0;
  /// When true the dlsr::data prefetching loader is modeled: batches are
  /// produced ahead on the data threads (production of batch N+1 overlaps
  /// step N's compute, bounded by `prefetch_depth` queue slots, with
  /// warmup during the setup broadcast) and only the residual wait — the
  /// producer falling behind — lands on the step's critical path. When
  /// false the load is serialized ahead of forward, the legacy inline
  /// behavior.
  bool data_pipeline = false;
  std::size_t prefetch_depth = 2;
  /// Which rank's view the simulated-time trace shows. -1 (default) keeps
  /// the legacy emission: compute spans at the straggler's pace, i.e. the
  /// slowest rank every step. 0 <= R < gpus scales forward/backward to
  /// rank R's own jitter draw and tags its spans with a numeric "rank"
  /// arg, so per-rank trace files genuinely differ — the inputs `dlsr
  /// trace-merge` aligns and joins. The collective schedule itself is
  /// shared and identical across views.
  std::int64_t trace_rank = -1;
  std::uint64_t seed = 2021;

  /// The paper's tuned Horovod settings for EDSR: a large cycle time and the
  /// default 64 MB threshold so fused messages reach the 16–64 MB range
  /// (Table I / Fig. 14).
  static TrainingJobConfig paper_edsr();
};

/// Aggregate result of one simulated run.
struct RunResult {
  std::size_t nodes = 0;
  std::size_t gpus = 0;
  double images_per_second = 0.0;
  double scaling_efficiency = 0.0;  ///< vs. GPUs x single-GPU throughput
  double mean_step_time = 0.0;      ///< seconds
  double mean_exposed_comm = 0.0;   ///< seconds of unhidden communication
  double mean_data_stall = 0.0;     ///< seconds of exposed input wait
  double allreduce_time_total = 0.0;  ///< profiler total over all steps
  double reg_cache_hit_rate = 0.0;    ///< 0 for NCCL
  prof::Hvprof profiler;              ///< bucketed collective profile
  std::vector<double> step_times;
  /// Per-rank straggler detection over the run (empty `flagged` = clean).
  obs::StragglerReport straggler;
};

class DistributedTrainer {
 public:
  DistributedTrainer(const models::ModelGraph& graph, perf::PerfModel perf,
                     TrainingJobConfig config);

  /// Ideal single-GPU throughput (no communication), images/second.
  double single_gpu_images_per_second() const;

  /// Simulates `steps` training steps on `nodes` Lassen nodes. With
  /// tracing enabled, every step's compute and communication schedule
  /// lands on the trace's simulated-time lanes (the HOROVOD_TIMELINE view).
  RunResult run(BackendKind kind, std::size_t nodes,
                std::size_t steps) const;

  const models::ModelGraph& graph() const { return graph_; }
  const TrainingJobConfig& config() const { return config_; }

 private:
  const models::ModelGraph& graph_;
  perf::PerfModel perf_;
  TrainingJobConfig config_;
};

}  // namespace dlsr::core
