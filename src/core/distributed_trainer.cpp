#include "core/distributed_trainer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/topology.hpp"

namespace dlsr::core {
namespace {

/// Mirrors one simulated step's compute phases onto the trace's
/// simulated-time process (pid kSimPid), SimTime seconds mapped to trace
/// microseconds. Communication spans are emitted by the dlsr::comm layer
/// itself, one lane per in-flight slot, as operations execute.
void emit_sim_step_events(std::size_t step, sim::SimTime step_begin,
                          sim::SimTime step_start,
                          sim::SimTime backward_start,
                          const hvd::StepTimeline& comm,
                          sim::SimTime step_end, double view_ratio,
                          std::int64_t view_rank) {
  auto& tracer = obs::Tracer::instance();
  const auto us = [](sim::SimTime t) { return t * 1e6; };
  const std::string args =
      view_rank >= 0
          ? strfmt("{\"step\":%zu,\"rank\":%lld}", step,
                   static_cast<long long>(view_rank))
          : strfmt("{\"step\":%zu}", step);
  if (step_start > step_begin) {
    // Exposed input wait: the full load on the inline path, only the
    // producer-behind residual when the prefetching pipeline is modeled.
    tracer.complete("data", "sim", us(step_begin),
                    us(step_start - step_begin), args, obs::kSimPid);
  }
  // The viewed rank's compute runs view_ratio (its jitter draw over the
  // straggler's) as long as the step pace-setter; it then idles until the
  // shared collectives land — the gap on this lane IS that rank's exposed
  // wait. view_ratio == 1 reproduces the legacy straggler's-eye emission.
  const sim::SimTime fwd_dur = (backward_start - step_start) * view_ratio;
  const sim::SimTime bwd_dur =
      (comm.backward_end - backward_start) * view_ratio;
  tracer.complete("forward", "sim", us(step_start), us(fwd_dur), args,
                  obs::kSimPid);
  tracer.complete("backward", "sim", us(step_start + fwd_dur), us(bwd_dur),
                  args, obs::kSimPid);
  const sim::SimTime comm_done = std::max(comm.backward_end, comm.comm_end);
  if (step_end > comm_done) {
    tracer.complete("optimizer", "sim", us(comm_done),
                    us(step_end - comm_done), args, obs::kSimPid);
  }
}

}  // namespace

TrainingJobConfig TrainingJobConfig::paper_edsr() {
  TrainingJobConfig c;
  c.batch_per_gpu = 4;
  c.fusion.fusion_threshold = 64ull * 1024 * 1024;
  c.fusion.cycle_time = 108e-3;
  return c;
}

DistributedTrainer::DistributedTrainer(const models::ModelGraph& graph,
                                       perf::PerfModel perf,
                                       TrainingJobConfig config)
    : graph_(graph), perf_(std::move(perf)), config_(config) {}

double DistributedTrainer::single_gpu_images_per_second() const {
  return perf_.images_per_second(graph_, config_.batch_per_gpu);
}

RunResult DistributedTrainer::run(BackendKind kind, std::size_t nodes,
                                  std::size_t steps) const {
  DLSR_CHECK(nodes > 0 && steps > 0, "run needs nodes and steps");
  obs::ScopedSpan run_span("core", "simulate_run");
  if (run_span.active()) {
    run_span.set_args(strfmt("{\"nodes\":%zu,\"steps\":%zu}", nodes, steps));
  }
  auto& registry = obs::MetricsRegistry::global();
  const auto step_ms_hist = registry.histogram("sim/step_ms");
  const auto exposed_ms_hist = registry.histogram("sim/exposed_comm_ms");
  const auto data_ms_hist = config_.data_time > 0.0
                                ? registry.histogram("sim/data_ms")
                                : std::shared_ptr<obs::Histogram>();
  sim::Cluster cluster(sim::ClusterSpec::lassen(nodes));
  auto backend = make_backend(kind, cluster, config_.seed);
  hvd::TensorFusionEngine fusion(config_.fusion, *backend);

  const perf::StepTime compute =
      perf_.step_time(graph_, config_.batch_per_gpu);
  const auto grads = graph_.gradient_sequence();
  const std::size_t gpus = cluster.total_gpus();

  Rng rng(config_.seed ^ (nodes * 0x51ed2701ULL) ^
          static_cast<std::uint64_t>(kind));

  RunResult result;
  result.nodes = nodes;
  result.gpus = gpus;
  result.step_times.reserve(steps);

  // Per-rank straggler detection: each rank's compute time for the step
  // feeds a rolling MAD detector; flag edges become zero-duration trace
  // events on the simulated-time process.
  std::unique_ptr<obs::StragglerDetector> detector;
  std::vector<double> per_rank_s;
  if (config_.detect_stragglers) {
    detector = std::make_unique<obs::StragglerDetector>(
        gpus, config_.straggler_detect);
    per_rank_s.resize(gpus);
  }
  const double rank_compute = compute.forward + compute.overhead +
                              compute.backward + compute.optimizer;

  // Initial parameter broadcast (hvd.broadcast_parameters).
  sim::SimTime t = backend->broadcast(graph_.param_bytes(), 0xB0ADCA57ull, 0.0);
  if (obs::tracing_enabled()) {
    // Clock-sync anchor: the broadcast completes at the same simulated
    // instant on every rank, so `dlsr trace-merge` aligns per-rank files
    // (each shifted by its own clock skew) on this event.
    obs::Tracer::instance().complete(
        "clock_sync", "sim", t * 1e6, 0.0,
        config_.trace_rank >= 0
            ? strfmt("{\"rank\":%lld}",
                     static_cast<long long>(config_.trace_rank))
            : std::string(),
        obs::kSimPid);
  }

  // Prefetching-loader model (config.data_pipeline): the producer starts
  // filling the bounded batch queue at t=0, overlapping the setup
  // broadcast. Batch s starts producing once batch s-1 finished AND queue
  // slot s-prefetch_depth was freed by consumption; only the residual wait
  // (producer behind the consumer) lands on the step's critical path.
  double producer_ready = 0.0;       // finish time of the last produced batch
  std::vector<double> consumed;      // consume time of batch j (slot free)
  if (config_.data_pipeline) {
    consumed.reserve(steps);
  }

  double exposed_total = 0.0;
  double data_total = 0.0;
  for (std::size_t s = 0; s < steps; ++s) {
    // Straggler model: the synchronous step runs at the slowest rank's
    // pace. With lognormal(0, sigma) per-rank noise the expected max grows
    // with log(gpus); sampling every rank keeps the distribution honest.
    double worst = 0.0;
    double trace_factor = 0.0;
    for (std::size_t r = 0; r < gpus; ++r) {
      double factor = std::exp(config_.jitter_sigma * rng.normal());
      if (config_.straggler_slowdown != 1.0 &&
          cluster.node_of(r) == config_.straggler_node % nodes) {
        factor *= config_.straggler_slowdown;
      }
      if (config_.perturb_rank >= 0 &&
          r == static_cast<std::size_t>(config_.perturb_rank) % gpus) {
        factor *= config_.perturb_factor;
      }
      if (detector) {
        per_rank_s[r] = rank_compute * factor;
      }
      if (config_.trace_rank >= 0 &&
          r == static_cast<std::size_t>(config_.trace_rank) % gpus) {
        trace_factor = factor;
      }
      worst = std::max(worst, factor);
    }
    if (config_.trace_rank < 0) {
      trace_factor = worst;  // legacy view: the straggler's pace
    }
    // `bwd` is full-rate backward work; backends whose collectives steal
    // compute cycles (NCCL SM contention) stretch it inside the fusion
    // engine, only where compute actually overlaps an in-service op.
    const double fwd = (compute.forward + compute.overhead) * worst;
    const double bwd = compute.backward * worst;
    // Input latency shares the step's jitter draw — a slow parallel
    // filesystem is noisy the same way compute is, and reusing `worst`
    // keeps the RNG stream identical to the data_time==0 simulation.
    const double data_cost = config_.data_time * worst;

    const sim::SimTime step_begin = t;
    double data_stall = 0.0;
    if (config_.data_pipeline) {
      double produce_start = producer_ready;
      if (s >= config_.prefetch_depth && config_.prefetch_depth > 0) {
        produce_start =
            std::max(produce_start, consumed[s - config_.prefetch_depth]);
      }
      producer_ready = produce_start + data_cost;
      data_stall = std::max(0.0, producer_ready - t);
    } else {
      data_stall = data_cost;
    }
    t += data_stall;
    if (config_.data_pipeline) {
      consumed.push_back(t);
    }
    data_total += data_stall;
    if (data_ms_hist) {
      data_ms_hist->observe(data_stall * 1e3);
    }

    const sim::SimTime step_start = t;
    const sim::SimTime backward_start = step_start + fwd;
    const hvd::StepTimeline comm_timeline =
        fusion.simulate_step(grads, backward_start, bwd);
    sim::SimTime step_end =
        std::max(comm_timeline.backward_end, comm_timeline.comm_end) +
        compute.optimizer;
    // Per-step metric scalars (loss averaging / logging sync): small
    // latency-bound allreduces on the critical path after the update.
    for (std::size_t m = 0; m < config_.metric_allreduces_per_step; ++m) {
      step_end = backend->allreduce(8, 0x3E7A1Cull + m, step_end);
    }
    if (obs::tracing_enabled()) {
      emit_sim_step_events(s, step_begin, step_start, backward_start,
                           comm_timeline, step_end,
                           worst > 0.0 ? trace_factor / worst : 1.0,
                           config_.trace_rank);
    }
    if (detector) {
      for (const std::size_t r : detector->record_step(per_rank_s)) {
        obs::MetricsRegistry::global()
            .counter("sim/stragglers_flagged")
            ->add(1);
        if (obs::tracing_enabled()) {
          const obs::StragglerReport rep = detector->report();
          double score = 0.0;
          for (const obs::StragglerRank& f : rep.flagged) {
            if (f.rank == r) {
              score = f.score;
            }
          }
          // Zero-duration complete event (instant() stamps wall time; the
          // straggler flag belongs on the simulated clock).
          obs::Tracer::instance().complete(
              strfmt("rank%zu", r), "straggler", step_end * 1e6, 0.0,
              strfmt("{\"rank\":%zu,\"step\":%zu,\"score\":%.3f}", r, s,
                     score),
              obs::kSimPid);
        }
      }
    }
    step_ms_hist->observe((step_end - step_begin) * 1e3);
    const double exposed = comm_timeline.exposed_comm();
    exposed_ms_hist->observe(exposed * 1e3);
    result.step_times.push_back(step_end - step_begin);
    exposed_total += exposed;
    t = step_end;
  }

  // Throughput counts training steps only; the one-off broadcast is
  // amortized away over a real 300-epoch run, so exclude it here.
  double step_sum = 0.0;
  for (const double st : result.step_times) {
    step_sum += st;
  }
  result.mean_step_time = step_sum / static_cast<double>(steps);
  result.mean_exposed_comm = exposed_total / static_cast<double>(steps);
  result.mean_data_stall = data_total / static_cast<double>(steps);
  result.images_per_second =
      static_cast<double>(gpus * config_.batch_per_gpu) /
      result.mean_step_time;
  result.scaling_efficiency =
      result.images_per_second /
      (static_cast<double>(gpus) * single_gpu_images_per_second());
  result.allreduce_time_total =
      backend->profiler().total_time(prof::Collective::Allreduce);
  result.profiler = backend->profiler();
  if (auto* mpi = dynamic_cast<hvd::MpiBackend*>(backend.get())) {
    result.reg_cache_hit_rate =
        mpi->communicator().transport().reg_cache().hit_rate();
  }
  if (detector) {
    result.straggler = detector->report();
  }
  return result;
}

}  // namespace dlsr::core
