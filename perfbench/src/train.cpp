// train_fp32 / train_bf16: the paper's synchronous data-parallel step run for
// real through core::TrainingSession — 4 replicas x batch 4 of a mid-size
// EDSR (8 blocks x 32 features, x2) on 12-px LR patches, with the
// prefetching loader and planned activation memory. train_bf16 runs the
// 16-bit forward panels and the fp16 gradient wire.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "core/training_session.hpp"
#include "image/metrics.hpp"
#include "layers.hpp"
#include "mem/plan.hpp"
#include "mem/registry.hpp"
#include "models/edsr.hpp"
#include "obs/metrics.hpp"
#include "reference.hpp"
#include "tensor/precision.hpp"

namespace perfbench {
namespace {

using dlsr::strfmt;

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kBatch = 4;
constexpr std::size_t kLrPatch = 12;
constexpr std::size_t kImageSize = 48;  ///< HR side of the synthetic images
constexpr std::size_t kSetupRepeats = 3;
/// Planner phases: warmup, record, observe, then replay — step 4 is the
/// first steady-state step.
constexpr std::size_t kWarmupSteps = 4;
/// The loss averaged over the last steps must be at most this share of the
/// first step's loss.
constexpr double kLossFallRatio = 0.5;
constexpr std::size_t kLossTail = 10;
constexpr double kFp32RelTol = 1e-4;
constexpr double kBf16MinPsnrDb = 35.0;
constexpr std::size_t kHeldOut = 2;

dlsr::models::EdsrConfig model_config() {
  dlsr::models::EdsrConfig c;
  c.n_resblocks = 8;
  c.n_feats = 32;
  c.scale = 2;
  c.res_scale = 0.1f;
  return c;
}

std::uint64_t upstream_allocs() {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < dlsr::mem::kPoolCount; ++i) {
    total += dlsr::mem::Registry::global()
                 .stats(static_cast<dlsr::mem::PoolId>(i))
                 .upstream_allocs;
  }
  return total;
}

std::uint64_t wire_bytes() {
  auto& reg = dlsr::obs::MetricsRegistry::global();
  return reg.counter("comm/wire_bytes_fp32")->value() +
         reg.counter("comm/wire_bytes_fp16")->value() +
         reg.counter("comm/wire_bytes_bf16")->value() +
         reg.counter("comm/wire_bytes_topk")->value();
}

struct Setup {
  std::unique_ptr<dlsr::img::SyntheticDiv2k> dataset;
  std::unique_ptr<dlsr::core::TrainingSession> session;
  double first_loss = 0.0;
};

Setup set_up(const Args& args, bool bf16) {
  Setup s;
  dlsr::img::Div2kConfig data_cfg;
  data_cfg.image_size = kImageSize;
  data_cfg.seed = derive_seed(args.seed, 11);
  s.dataset = std::make_unique<dlsr::img::SyntheticDiv2k>(data_cfg);

  dlsr::core::SessionConfig cfg;
  cfg.workers = kWorkers;
  cfg.batch_per_worker = kBatch;
  cfg.scale = 2;
  cfg.lr_patch = kLrPatch;
  cfg.data_pipeline = true;
  cfg.activation_memory = dlsr::mem::ActivationMemory::kPlanned;
  cfg.precision = bf16 ? dlsr::Precision::Bf16 : dlsr::Precision::Fp32;
  cfg.wire_format =
      bf16 ? dlsr::comm::WireFormat::Fp16 : dlsr::comm::WireFormat::Fp32;
  cfg.seed = derive_seed(args.seed, 12);
  const std::uint64_t model_seed = derive_seed(args.seed, 13);
  s.session = std::make_unique<dlsr::core::TrainingSession>(
      *s.dataset,
      [model_seed] {
        dlsr::Rng rng(model_seed);
        return std::make_unique<dlsr::models::Edsr>(model_config(), rng);
      },
      cfg);
  s.first_loss = s.session->run_steps(kWarmupSteps).first_loss;
  return s;
}

/// One timed step: the benchmark's own span around the public call.
double timed_step(dlsr::core::TrainingSession& session, double* loss) {
  const Clock::time_point t0 = Clock::now();
  const dlsr::core::SessionStats st = session.run_steps(1);
  const double ms = seconds_since(t0) * 1e3;
  *loss = st.last_loss;
  emit(strfmt(R"({"t":"op","ms":%.6f,"images":%zu,"loss":%.9g})", ms,
              st.images, st.last_loss));
  return ms;
}

void check_outputs(Setup& s, bool bf16, const std::vector<double>& losses) {
  dlsr::core::TrainingSession& session = *s.session;
  emit_check("replicas_in_sync", session.workers().replicas_in_sync(),
             "all replicas hold identical parameters after the run");

  std::vector<double> tail(
      losses.end() - static_cast<long>(std::min(kLossTail, losses.size())),
      losses.end());
  double tail_mean = 0.0;
  for (const double l : tail) {
    tail_mean += l;
  }
  tail_mean /= static_cast<double>(std::max<std::size_t>(1, tail.size()));
  emit_check("loss_falls",
             !tail.empty() && tail_mean <= kLossFallRatio * s.first_loss,
             strfmt("first-step loss %.5f, mean of last %zu steps %.5f "
                    "(must be <= %.2f x first)",
                    s.first_loss, tail.size(), tail_mean, kLossFallRatio));

  auto& model = dynamic_cast<dlsr::models::Edsr&>(session.model());
  const ReferenceEdsr reference(model);
  for (std::size_t i = 0; i < kHeldOut; ++i) {
    const dlsr::Tensor lr =
        s.dataset->lr_image(dlsr::img::Split::Validation, i, 2);
    const dlsr::Tensor want = reference.forward(lr);
    dlsr::Tensor got;
    {
      const dlsr::ScopedKernelPrecision scoped(
          bf16 ? dlsr::Precision::Bf16 : dlsr::Precision::Fp32);
      got = model.forward(lr);
    }
    if (bf16) {
      const double db = dlsr::img::psnr(got, want);
      emit_check(strfmt("bf16_vs_reference_%zu", i), db >= kBf16MinPsnrDb,
                 strfmt("PSNR of the bf16 forward against the fp32 naive "
                        "reference %.2f dB (bound %.1f dB)",
                        db, kBf16MinPsnrDb));
    } else {
      const double rel = max_rel_error(got, want);
      emit_check(strfmt("fp32_vs_reference_%zu", i), rel <= kFp32RelTol,
                 strfmt("max relative error against the naive reference "
                        "%.3g (bound %.0e)",
                        rel, kFp32RelTol));
    }
  }
}

/// Per-layer figures of the traced steps (see README.md for the mapping).
void emit_layers(const Trace& trace, bool bf16, std::size_t steps,
                 const std::vector<double>& traced_ms,
                 double untraced_p50_ms, std::uint64_t wire_delta,
                 std::uint64_t upstream_delta, const Setup& s) {
  const auto times = layer_times(trace);
  const auto total_ms = [&times](const char* key) {
    const auto it = times.find(key);
    return it == times.end() ? 0.0 : it->second.total_us / 1e3;
  };
  const auto count = [&times](const char* key) {
    const auto it = times.find(key);
    return it == times.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double n = static_cast<double>(steps);
  double step_ms = 0.0;
  for (const double ms : traced_ms) {
    step_ms += ms;
  }
  step_ms /= n;
  const double fwd = total_ms("hvd/forward") / n;
  const double bwd = total_ms("hvd/backward") / n;
  const double ar = total_ms("hvd/allreduce") / n;
  const double opt = total_ms("hvd/optimizer") / n;
  const double wait = total_ms("data/wait") / n;
  const double parts = fwd + bwd + ar + opt + wait;
  emit_metric("core.step_ms", step_ms, "ms");
  emit_metric("hvd.forward_ms", fwd, "ms");
  emit_metric("hvd.backward_ms", bwd, "ms");
  emit_metric("hvd.allreduce_ms", ar, "ms");
  emit_metric("hvd.optimizer_ms", opt, "ms");
  emit_metric("data.wait_ms", wait, "ms");
  emit_metric("core.layer_sum_ms", parts, "ms");
  emit_metric("core.unattributed_ms", step_ms - parts, "ms");

  const double flops_fwd =
      edsr_forward_flops(model_config(), kLrPatch, kLrPatch) *
      static_cast<double>(kWorkers * kBatch) * n;
  const double conv_fwd_s = total_ms("tensor/conv2d_forward") / 1e3;
  const double conv_bwd_s = total_ms("tensor/conv2d_backward") / 1e3;
  const double fwd_gflops = conv_fwd_s > 0 ? flops_fwd / conv_fwd_s / 1e9 : 0;
  emit_metric(bf16 ? "tensor.conv_fwd16_gflops" : "tensor.conv_fwd_gflops",
              fwd_gflops, "GFLOP/s");
  // Backward: grad input + grad weight, twice the forward FLOPs.
  emit_metric("tensor.conv_bwd_gflops",
              conv_bwd_s > 0 ? 2.0 * flops_fwd / conv_bwd_s / 1e9 : 0,
              "GFLOP/s");
  emit_metric("comm.wire_bytes_per_step", static_cast<double>(wire_delta) / n,
              "B");
  emit_metric("comm.allreduces_per_step",
              count("mpisim/ring_allreduce") / n, "count");

  const dlsr::mem::ActivationPlan* plan =
      s.session->workers().activation_plan();
  emit_metric("mem.activation_peak_mib",
              plan ? static_cast<double>(plan->planned_peak_bytes()) /
                         (1024.0 * 1024.0)
                   : 0.0,
              "MiB");
  emit_metric("mem.replay_fallbacks",
              plan ? static_cast<double>(plan->fallback_allocs()) : 0.0,
              "count");
  emit_metric("mem.upstream_allocs_per_step",
              static_cast<double>(upstream_delta) / n, "count");
  const double traced_p50 = dlsr::percentile(traced_ms, 0.5);
  emit_metric("obs.trace_overhead_pct",
              untraced_p50_ms > 0
                  ? (traced_p50 - untraced_p50_ms) / untraced_p50_ms * 100.0
                  : 0.0,
              "%");
}

}  // namespace

int run_train(const Args& args, bool bf16) {
  Setup s;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    // Tear the previous set-up down outside the timed region, the session
    // (and its loader thread) before the dataset it reads.
    s.session.reset();
    s.dataset.reset();
    const Clock::time_point t0 = Clock::now();
    s = set_up(args, bf16);
    emit_setup(seconds_since(t0));
  }
  dlsr::core::TrainingSession& session = *s.session;

  // Steps the timed phase will attempt, from one more warm step; a child
  // that dies counts every step it did not finish as failed.
  double loss = 0.0;
  const double probe_ms = timed_step(session, &loss);
  std::vector<double> losses{loss};
  emit_plan(static_cast<std::size_t>(
      std::ceil(args.seconds * 1e3 / std::max(probe_ms, 1e-3))));

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> step_ms{probe_ms};
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < untraced_s) {
    step_ms.push_back(timed_step(session, &loss));
    losses.push_back(loss);
  }
  if (args.trace) {
    const double untraced_p50 = dlsr::percentile(step_ms, 0.5);
    const std::uint64_t wire0 = wire_bytes();
    const std::uint64_t up0 = upstream_allocs();
    std::vector<double> traced_ms;
    start_tracing(1 << 17);
    const Clock::time_point t1 = Clock::now();
    while (seconds_since(t1) < args.seconds - untraced_s) {
      traced_ms.push_back(timed_step(session, &loss));
      losses.push_back(loss);
    }
    const Trace trace = stop_tracing();
    emit_layers(trace, bf16, traced_ms.size(), traced_ms, untraced_p50,
                wire_bytes() - wire0, upstream_allocs() - up0, s);
  }
  check_outputs(s, bf16, losses);
  return 0;
}

}  // namespace perfbench
