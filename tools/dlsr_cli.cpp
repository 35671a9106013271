// dlsr — command-line front end for the library.
//
// Subcommands:
//   simulate  — run the Lassen-scale training simulation and print a
//               throughput/efficiency table (optionally CSV; --trace-out
//               writes the simulated schedule as a Chrome trace).
//   profile   — hvprof: bucketed allreduce profile under a backend config.
//   train     — functional data-parallel training on synthetic DIV2K with
//               checkpointing.
//   models    — model-zoo inventory: parameters, gradient bytes, FLOPs.
//   serve     — batched tiled SR inference server demo on a synthetic
//               request stream; prints SLO metrics and a JSON snapshot.
//
// Examples:
//   dlsr simulate --backends MPI,MPI-Opt --nodes 1,8,64 --steps 30 --csv
//   dlsr simulate --nodes 32 --inflight-buffers 4 --fusion-threshold 16777216
//   dlsr profile --backend MPI-Opt --nodes 1 --steps 100
//   dlsr train --workers 4 --steps 50 --checkpoint /tmp/edsr.ckpt
//   dlsr train --workers 4 --inflight-buffers 4
//   dlsr train --workers 4 --precision bf16 --wire fp16
//   dlsr simulate --nodes 32 --gradient-dtype fp16
//   dlsr train --trace-out trace.json --metrics-out metrics.json
//   dlsr train --flight-recorder --stall-timeout 30
//   dlsr trace-summary trace.json
//   dlsr trace-summary rank0.json rank1.json rank2.json
//   dlsr simulate --nodes 32 --backends MPI-Opt --trace-rank 0 \
//       --trace-out rank0.json
//   dlsr trace-merge rank0.json rank1.json --out merged.json
//   dlsr analyze merged.json --whole-run
//   dlsr analyze trace.json --json report.json
//   dlsr perf-compare BENCH_kernels.json bench/baselines/kernel_suite.json
//   dlsr models
//   dlsr serve --requests 24 --image 96 --clients 4
//
// Global flags (any position before the subcommand's own flags):
//   --log-level <debug|info|warn|error|off>
//
// simulate, profile, train, and serve all take --trace-out FILE (Chrome
// trace-event JSON, open in chrome://tracing or ui.perfetto.dev) and
// --metrics-out FILE (unified metrics-registry JSON).
//
// simulate and profile expose the fusion-scheduler knobs
// --fusion-threshold (bytes), --cycle-time (ms), and --inflight-buffers
// (dlsr::comm service slots; 1 = the paper's blocking schedule). train
// takes --inflight-buffers for the real gradient data plane.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/experiments.hpp"
#include "core/training_session.hpp"
#include "data/dataset.hpp"
#include "data/stream.hpp"
#include "image/eval.hpp"
#include "mem/plan.hpp"
#include "mem/registry.hpp"
#include "models/edsr_graph.hpp"
#include "models/resnet50_graph.hpp"
#include "models/srresnet.hpp"
#include "models/vdsr.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_compare.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "obs/trace_store.hpp"
#include "obs/trace_summary.hpp"
#include "serve/server.hpp"
#include "serve/stream_ingest.hpp"

namespace {

using namespace dlsr;

/// Observability flags shared by simulate/profile/train/serve.
void define_obs_flags(Flags& flags) {
  flags.define("trace-out", "write a Chrome trace-event JSON here",
               std::nullopt);
  flags.define("metrics-out", "write the unified metrics JSON here",
               std::nullopt);
  flags.define("trace-clock-skew-us",
               "shift every exported trace timestamp by this many us "
               "(models per-rank clock skew for trace-merge testing)",
               std::nullopt);
}

/// Turns tracing on before the command body when --trace-out was given.
void obs_begin(const Flags& flags) {
  if (flags.has("trace-out")) {
    obs::Tracer::instance().enable();
    if (flags.has("trace-clock-skew-us")) {
      obs::Tracer::instance().set_export_ts_offset_us(
          flags.get_double("trace-clock-skew-us"));
    }
  }
}

/// Writes the requested trace/metrics files after the command body.
void obs_end(const Flags& flags) {
  if (flags.has("trace-out")) {
    auto& tracer = obs::Tracer::instance();
    tracer.write(flags.get("trace-out"));
    std::printf("trace written to %s (%zu events%s; open in "
                "chrome://tracing or ui.perfetto.dev)\n",
                flags.get("trace-out").c_str(), tracer.event_count(),
                tracer.dropped_count()
                    ? strfmt(", %zu dropped", tracer.dropped_count()).c_str()
                    : "");
    tracer.disable();
  }
  if (flags.has("metrics-out")) {
    // Final pool-gauge refresh so the written JSON reflects end-of-run
    // live/peak bytes even for commands without a per-step publish.
    mem::Registry::global().publish_gauges();
    obs::MetricsRegistry::global().write_json(flags.get("metrics-out"));
    std::printf("metrics written to %s\n", flags.get("metrics-out").c_str());
  }
}

/// Flight-recorder knobs shared by train and serve.
void define_recorder_flags(Flags& flags) {
  flags.define("flight-recorder",
               "arm the crash/hang flight-recorder ring", "false");
  flags.define("flight-dump", "flight-recorder dump path",
               "dlsr-flight.dump");
  flags.define("stall-timeout",
               "seconds without a step heartbeat before the ring dumps "
               "(0 = off)",
               "0");
}

/// Arms the recorder when requested; returns the stall timeout in seconds.
double apply_recorder_flags(const Flags& flags) {
  if (flags.get_bool("flight-recorder")) {
    obs::FlightRecorder::Config cfg;
    cfg.dump_path = flags.get("flight-dump");
    obs::FlightRecorder::instance().enable(cfg);
    log_info("flight recorder armed (dump on crash/stall: " +
             cfg.dump_path + ")");
  }
  return flags.get_double("stall-timeout");
}

/// Live-telemetry knobs shared by train and serve.
void define_telemetry_flags(Flags& flags) {
  flags.define("telemetry-port",
               "serve live telemetry (/metrics, /healthz, /seriesz, "
               "/alertz) on this loopback port (0 = ephemeral)",
               std::nullopt);
  flags.define("telemetry-hold-s",
               "keep the process (and telemetry endpoints) alive this many "
               "seconds after the workload finishes",
               "0");
}

/// Starts the telemetry plane when --telemetry-port was given.
std::unique_ptr<obs::TelemetryServer> apply_telemetry_flags(
    const Flags& flags, std::function<double()> heartbeat_age_s) {
  if (!flags.has("telemetry-port")) {
    return nullptr;
  }
  obs::TelemetryConfig cfg;
  cfg.port = static_cast<int>(flags.get_int("telemetry-port"));
  cfg.heartbeat_age_s = std::move(heartbeat_age_s);
  auto server = std::make_unique<obs::TelemetryServer>(std::move(cfg));
  std::printf("telemetry on http://127.0.0.1:%d (/metrics /metrics.json "
              "/healthz /seriesz /alertz)\n",
              server->port());
  std::fflush(stdout);
  return server;
}

/// Honors --telemetry-hold-s so scrapers can reach a short-lived demo run.
void telemetry_hold(const Flags& flags,
                    const obs::TelemetryServer* telemetry) {
  const double hold = flags.get_double("telemetry-hold-s");
  if (!telemetry || hold <= 0.0) {
    return;
  }
  std::printf("holding telemetry open for %.0f s (port %d)\n", hold,
              telemetry->port());
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::duration<double>(hold));
}

/// Wraps a session/server stall watchdog into the /healthz heartbeat hook.
std::function<double()> heartbeat_from(const obs::StallWatchdog* watchdog) {
  if (!watchdog) {
    return {};
  }
  return [watchdog] { return watchdog->seconds_since_kick(); };
}

/// `--trace-rank R`: emit the simulated-time trace from rank R's view
/// (compute spans scaled to that rank's jitter, numeric "rank" args).
/// Per-rank files produced this way are the inputs `dlsr trace-merge`
/// aligns and joins.
void define_trace_view_flag(Flags& flags) {
  flags.define("trace-rank",
               "emit the sim trace from this rank's view (default: the "
               "straggler's pace, untagged)",
               std::nullopt);
}

void apply_trace_view_flag(const Flags& flags,
                           core::TrainingJobConfig& job) {
  if (flags.has("trace-rank")) {
    job.trace_rank = static_cast<std::int64_t>(flags.get_int("trace-rank"));
    DLSR_CHECK(job.trace_rank >= 0, "--trace-rank wants a nonnegative rank");
  }
}

/// `--perturb-rank R[,factor]`: single-rank fault injection for the
/// straggler detector (simulate and profile).
void define_perturb_flag(Flags& flags) {
  flags.define("perturb-rank",
               "R[,factor] — multiply rank R's compute time by factor "
               "(default 1.3) to exercise the straggler detector",
               std::nullopt);
}

void apply_perturb_flag(const Flags& flags, core::TrainingJobConfig& job) {
  if (!flags.has("perturb-rank")) {
    return;
  }
  const std::vector<std::string> parts =
      split(flags.get("perturb-rank"), ',');
  DLSR_CHECK(!parts.empty() && parts.size() <= 2,
             "--perturb-rank wants R or R,factor");
  job.perturb_rank = static_cast<std::int64_t>(std::stol(trim(parts[0])));
  job.perturb_factor =
      parts.size() == 2 ? std::stod(trim(parts[1])) : 1.3;
  DLSR_CHECK(job.perturb_rank >= 0 && job.perturb_factor > 0.0,
             "--perturb-rank wants a nonnegative rank and positive factor");
}

/// Prints the straggler detector's findings for one simulated run.
void print_stragglers(const core::RunResult& r, const std::string& label) {
  if (r.straggler.clean()) {
    return;
  }
  for (const obs::StragglerRank& f : r.straggler.flagged) {
    std::printf("straggler %s: rank %zu mean %.2f ms vs fleet median "
                "%.2f ms (score %.1f MADs, %llu flagged steps, first at "
                "step %zu)\n",
                label.c_str(), f.rank, f.mean_s * 1e3, f.median_s * 1e3,
                f.score, static_cast<unsigned long long>(f.flagged_steps),
                f.first_flagged_step);
  }
}

/// Fusion/scheduler knobs shared by simulate and profile.
void define_fusion_flags(Flags& flags) {
  flags.define("fusion-threshold",
               "HOROVOD_FUSION_THRESHOLD in bytes (fused-buffer capacity)",
               std::nullopt);
  flags.define("cycle-time", "HOROVOD_CYCLE_TIME in milliseconds",
               std::nullopt);
  flags.define("inflight-buffers",
               "fused buffers allowed in flight concurrently (1 = serial)",
               std::nullopt);
  flags.define("gradient-dtype",
               "gradient wire format: fp32, fp16, bf16, or topk "
               "(HOROVOD_COMPRESSION-style payload compression)",
               std::nullopt);
  flags.define("topk-fraction",
               "fraction of gradient elements kept by the topk wire",
               std::nullopt);
}

/// Applies the fusion flags onto a job config copy.
void apply_fusion_flags(const Flags& flags, core::TrainingJobConfig& job) {
  if (flags.has("fusion-threshold")) {
    job.fusion.fusion_threshold =
        static_cast<std::size_t>(flags.get_int("fusion-threshold"));
  }
  if (flags.has("cycle-time")) {
    job.fusion.cycle_time = flags.get_double("cycle-time") * 1e-3;
  }
  if (flags.has("inflight-buffers")) {
    job.fusion.inflight_buffers =
        static_cast<std::size_t>(flags.get_int("inflight-buffers"));
  }
  if (flags.has("gradient-dtype")) {
    job.fusion.wire = comm::parse_wire_format(flags.get("gradient-dtype"));
  }
  if (flags.has("topk-fraction")) {
    job.fusion.topk_fraction = flags.get_double("topk-fraction");
  }
}

/// Input-latency model knobs shared by simulate and profile.
void define_data_flags(Flags& flags) {
  flags.define("data-time-ms",
               "per-replica input load/decode latency per step in ms "
               "(0 = free data)",
               std::nullopt);
  flags.define("data-pipeline",
               "model the dlsr::data prefetching loader (input latency "
               "overlaps compute; only residual wait is exposed)",
               "false");
  flags.define("prefetch-depth", "modeled loader queue depth in batches",
               std::nullopt);
}

/// Applies the data-model flags onto a job config copy.
void apply_data_flags(const Flags& flags, core::TrainingJobConfig& job) {
  if (flags.has("data-time-ms")) {
    job.data_time = flags.get_double("data-time-ms") * 1e-3;
  }
  job.data_pipeline = flags.get_bool("data-pipeline");
  if (flags.has("prefetch-depth")) {
    job.prefetch_depth =
        static_cast<std::size_t>(flags.get_int("prefetch-depth"));
  }
}

core::BackendKind parse_backend(const std::string& name) {
  if (name == "MPI") return core::BackendKind::Mpi;
  if (name == "MPI-Reg") return core::BackendKind::MpiReg;
  if (name == "MPI-Opt") return core::BackendKind::MpiOpt;
  if (name == "NCCL") return core::BackendKind::Nccl;
  throw Error("unknown backend \"" + name +
              "\" (expected MPI, MPI-Reg, MPI-Opt, or NCCL)");
}

std::vector<std::size_t> parse_size_list(const std::string& csv) {
  std::vector<std::size_t> out;
  for (const std::string& part : split(csv, ',')) {
    const std::string t = trim(part);
    DLSR_CHECK(!t.empty(), "empty entry in list: " + csv);
    out.push_back(static_cast<std::size_t>(std::stoul(t)));
  }
  return out;
}

int cmd_simulate(int argc, const char* const* argv) {
  Flags flags;
  flags.define("backends", "comma list: MPI,MPI-Reg,MPI-Opt,NCCL",
               "MPI,MPI-Opt");
  flags.define("nodes", "comma list of node counts", "1,2,4,8,16,32,64,128");
  flags.define("steps", "training steps per point", "30");
  flags.define("csv", "emit CSV instead of a table", "false");
  define_fusion_flags(flags);
  define_data_flags(flags);
  define_perturb_flag(flags);
  define_trace_view_flag(flags);
  define_obs_flags(flags);
  flags.parse(argc, argv);
  obs_begin(flags);

  const core::PaperExperiment exp;
  core::TrainingJobConfig job = exp.job;
  apply_fusion_flags(flags, job);
  apply_data_flags(flags, job);
  apply_perturb_flag(flags, job);
  apply_trace_view_flag(flags, job);
  const core::DistributedTrainer trainer(exp.graph, exp.perf, job);
  const auto nodes = parse_size_list(flags.get("nodes"));
  const auto steps = static_cast<std::size_t>(flags.get_int("steps"));

  std::vector<std::string> headers = {"nodes", "gpus"};
  std::vector<core::BackendKind> kinds;
  std::vector<std::string> kind_names;
  for (const std::string& b : split(flags.get("backends"), ',')) {
    kinds.push_back(parse_backend(trim(b)));
    kind_names.push_back(trim(b));
    headers.push_back(trim(b) + " img/s");
    headers.push_back(trim(b) + " eff%");
  }
  Table table(headers);
  std::vector<std::pair<std::string, core::RunResult>> straggler_runs;
  for (const std::size_t n : nodes) {
    std::vector<std::string> row = {strfmt("%zu", n), strfmt("%zu", n * 4)};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      core::RunResult r = trainer.run(kinds[k], n, steps);
      row.push_back(strfmt("%.1f", r.images_per_second));
      row.push_back(strfmt("%.1f", r.scaling_efficiency * 100.0));
      if (!r.straggler.clean()) {
        straggler_runs.emplace_back(
            strfmt("(%s, %zu nodes)", kind_names[k].c_str(), n),
            std::move(r));
      }
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", flags.get_bool("csv") ? table.to_csv().c_str()
                                          : table.to_string().c_str());
  for (const auto& [label, r] : straggler_runs) {
    print_stragglers(r, label);
  }

  obs_end(flags);
  return 0;
}

int cmd_profile(int argc, const char* const* argv) {
  Flags flags;
  flags.define("backend", "MPI, MPI-Reg, MPI-Opt, or NCCL", "MPI");
  flags.define("nodes", "node count", "1");
  flags.define("steps", "training steps to profile", "100");
  define_fusion_flags(flags);
  define_data_flags(flags);
  define_perturb_flag(flags);
  define_trace_view_flag(flags);
  define_obs_flags(flags);
  flags.parse(argc, argv);
  obs_begin(flags);

  const core::PaperExperiment exp;
  core::TrainingJobConfig job = exp.job;
  apply_fusion_flags(flags, job);
  apply_data_flags(flags, job);
  apply_perturb_flag(flags, job);
  apply_trace_view_flag(flags, job);
  const core::DistributedTrainer trainer(exp.graph, exp.perf, job);
  const core::RunResult r = trainer.run(
      parse_backend(flags.get("backend")),
      static_cast<std::size_t>(flags.get_int("nodes")),
      static_cast<std::size_t>(flags.get_int("steps")));
  std::printf("%s\n",
              r.profiler.report(prof::Collective::Allreduce).to_string()
                  .c_str());
  std::printf("throughput %.1f img/s, efficiency %.1f%%, reg-cache hits "
              "%.1f%%\n",
              r.images_per_second, r.scaling_efficiency * 100.0,
              r.reg_cache_hit_rate * 100.0);
  if (job.data_time > 0.0) {
    std::printf("exposed input wait %.2f ms/step (%s loader)\n",
                r.mean_data_stall * 1e3,
                job.data_pipeline ? "prefetching" : "inline");
  }
  print_stragglers(r, strfmt("(%s, %s nodes)", flags.get("backend").c_str(),
                             flags.get("nodes").c_str()));
  obs_end(flags);
  return 0;
}

int cmd_train(int argc, const char* const* argv) {
  Flags flags;
  flags.define("workers", "data-parallel replicas", "4");
  flags.define("steps", "training steps", "50");
  flags.define("image-size", "synthetic DIV2K image side", "48");
  flags.define("lr", "base learning rate (scaled by workers)", "5e-4");
  flags.define("warmup", "warmup steps", "10");
  flags.define("checkpoint", "path to save the trained weights",
               std::nullopt);
  flags.define("inflight-buffers",
               "gradient allreduces allowed in flight on the data plane",
               "1");
  flags.define("data-pipeline",
               "stage batches through the dlsr::data prefetching loader "
               "(bit-identical to the inline path at equal seed)",
               "false");
  flags.define("prefetch-depth", "loader queue capacity in batches", "2");
  flags.define("data-threads",
               "materialize-stage threads (0 = share the compute pool)",
               "0");
  flags.define("loader-delay-ms",
               "injected per-step decode latency in ms (demo/bench knob)",
               "0");
  flags.define("precision",
               "forward-pass kernel precision: fp32, bf16, or fp16 "
               "(16-bit packed GEMM panels, fp32 accumulation)",
               "fp32");
  flags.define("wire",
               "gradient allreduce wire format: fp32, fp16, bf16, or topk",
               "fp32");
  flags.define("topk-fraction",
               "fraction of gradient elements kept by the topk wire",
               "0.01");
  flags.define("activation-memory",
               "step-temporary storage: planned (lifetime-planned slots), "
               "arena (per-step bump), or heap; all bit-identical",
               "planned");
  flags.define("crash-with",
               "inject a fault after training (segv|abort|throw) to "
               "exercise the flight recorder",
               std::nullopt);
  define_recorder_flags(flags);
  define_telemetry_flags(flags);
  define_obs_flags(flags);
  flags.parse(argc, argv);
  obs_begin(flags);
  const double stall_timeout = apply_recorder_flags(flags);

  img::Div2kConfig data_cfg;
  data_cfg.image_size =
      static_cast<std::size_t>(flags.get_int("image-size"));
  const img::SyntheticDiv2k dataset(data_cfg);

  core::SessionConfig cfg;
  cfg.workers = static_cast<std::size_t>(flags.get_int("workers"));
  cfg.learning_rate = flags.get_double("lr");
  cfg.warmup_steps = static_cast<std::size_t>(flags.get_int("warmup"));
  cfg.inflight_buffers =
      static_cast<std::size_t>(flags.get_int("inflight-buffers"));
  cfg.stall_timeout_seconds = stall_timeout;
  cfg.data_pipeline = flags.get_bool("data-pipeline");
  cfg.prefetch_depth =
      static_cast<std::size_t>(flags.get_int("prefetch-depth"));
  cfg.data_threads = static_cast<std::size_t>(flags.get_int("data-threads"));
  cfg.loader_delay_ms = flags.get_double("loader-delay-ms");
  cfg.precision = parse_precision(flags.get("precision"));
  cfg.wire_format = comm::parse_wire_format(flags.get("wire"));
  cfg.topk_fraction = flags.get_double("topk-fraction");
  cfg.activation_memory = mem::parse_activation_memory(
      flags.get("activation-memory"));
  std::uint64_t seed = 7;
  core::TrainingSession session(
      dataset,
      [&seed] {
        Rng rng(seed);
        return std::make_unique<models::Edsr>(models::EdsrConfig::tiny(),
                                              rng);
      },
      cfg);
  const std::unique_ptr<obs::TelemetryServer> telemetry =
      apply_telemetry_flags(flags, heartbeat_from(session.watchdog()));

  const auto steps = static_cast<std::size_t>(flags.get_int("steps"));
  const core::SessionStats stats = session.run_steps(steps);
  std::printf("trained %zu steps on %zu workers (%s kernels, %s wire): "
              "loss %.4f -> %.4f, val PSNR %.2f dB\n",
              stats.steps, cfg.workers, precision_name(cfg.precision),
              comm::wire_format_name(cfg.wire_format), stats.first_loss,
              stats.last_loss, session.validate_psnr(2));
  if (const mem::ActivationPlan* plan =
          session.workers().activation_plan();
      plan != nullptr && plan->planned()) {
    std::printf("activation planner: %zu slots hold %.2f MiB "
                "(unplanned per-step demand %.2f MiB, %llu replay "
                "fallbacks)\n",
                plan->slot_count(),
                static_cast<double>(plan->planned_peak_bytes()) / 1048576.0,
                static_cast<double>(plan->recorded_demand_bytes()) /
                    1048576.0,
                static_cast<unsigned long long>(plan->fallback_allocs()));
  }
  if (const data::TrainLoader* loader = session.loader()) {
    const data::LoaderStats ls = loader->stats();
    std::printf("data pipeline: %zu batches prefetched, consumer wait "
                "%.1f ms total, produce %.1f ms total\n",
                ls.steps, ls.wait_ms_total, ls.produce_ms_total);
  }
  if (flags.has("checkpoint")) {
    session.save_checkpoint(flags.get("checkpoint"));
    std::printf("checkpoint written to %s\n",
                flags.get("checkpoint").c_str());
  }
  if (flags.has("crash-with")) {
    const std::string mode = flags.get("crash-with");
    std::printf("injecting fault after training: %s\n", mode.c_str());
    std::fflush(stdout);
    // Die inside a live span: with --trace-out arming the tracer, the
    // flight recorder's post-mortem dump reconstructs this span as the
    // active stack at the instant of death.
    obs::ScopedSpan crash_span("cli", "inject_fault");
    if (mode == "segv") {
      std::raise(SIGSEGV);
    } else if (mode == "abort") {
      std::abort();
    } else if (mode == "throw") {
      // Not a dlsr::Error, so it escapes main() into std::terminate.
      throw std::runtime_error("injected uncaught exception");
    } else {
      throw Error("unknown --crash-with \"" + mode +
                  "\" (segv, abort, or throw)");
    }
  }
  telemetry_hold(flags, telemetry.get());
  obs_end(flags);
  return 0;
}

models::ModelGraph graph_by_name(const std::string& name) {
  if (name == "edsr") {
    return models::build_edsr_graph(models::EdsrConfig::paper(), 48);
  }
  if (name == "edsr-baseline") {
    return models::build_edsr_graph(models::EdsrConfig::baseline(), 48);
  }
  if (name == "srresnet") {
    return models::build_srresnet_graph(models::SrResNetConfig{}, 48);
  }
  if (name == "vdsr") {
    return models::build_vdsr_graph(models::VdsrConfig{}, 96, 96);
  }
  if (name == "resnet50") {
    return models::build_resnet50_graph(224, 1000);
  }
  throw Error("unknown model \"" + name +
              "\" (edsr, edsr-baseline, srresnet, vdsr, resnet50)");
}

int cmd_layers(int argc, const char* const* argv) {
  Flags flags;
  flags.define("model", "edsr, edsr-baseline, srresnet, vdsr, or resnet50",
               "edsr");
  flags.define("batch", "batch size for the timing columns", "4");
  flags.define("top", "show only the N most expensive layers (0 = all)",
               "0");
  flags.parse(argc, argv);

  const models::ModelGraph graph = graph_by_name(flags.get("model"));
  const perf::PerfModel perf_model(
      perf::GpuSpec::v100_16gb(),
      flags.get("model") == "resnet50"
          ? perf::EfficiencyCalibration::resnet50()
          : perf::EfficiencyCalibration::edsr());
  const auto batch = static_cast<std::size_t>(flags.get_int("batch"));
  auto top = static_cast<std::size_t>(flags.get_int("top"));

  std::vector<const models::LayerDesc*> layers;
  for (const auto& l : graph.layers()) {
    layers.push_back(&l);
  }
  if (top > 0 && top < layers.size()) {
    std::partial_sort(layers.begin(), layers.begin() + top, layers.end(),
                      [](const auto* a, const auto* b) {
                        return a->fwd_flops > b->fwd_flops;
                      });
    layers.resize(top);
  }
  Table t({"Layer", "Kind", "MFLOP/img", "Act KB", "Params",
           "fwd+bwd ms @batch"});
  for (const auto* l : layers) {
    t.add_row({l->name, l->kind, strfmt("%.1f", l->fwd_flops / 1e6),
               strfmt("%.1f", l->output_bytes / 1e3),
               strfmt("%zu", l->param_count),
               strfmt("%.3f", (perf_model.layer_forward_time(*l, batch) +
                               perf_model.layer_backward_time(*l, batch)) *
                                  1e3)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("total: %.2f GFLOP fwd/img, %.1f MB params, %zu layers\n",
              graph.fwd_flops_per_item() / 1e9, graph.param_bytes() / 1e6,
              graph.layers().size());
  return 0;
}

int cmd_models(int argc, const char* const* argv) {
  Flags flags;
  flags.parse(argc, argv);
  Table t({"Model", "Params (M)", "Grad MB", "Fwd GFLOP/img", "Input"});
  const auto add = [&](const char* name, const models::ModelGraph& g,
                       const char* input) {
    t.add_row({name, strfmt("%.2f", g.param_count() / 1e6),
               strfmt("%.1f", g.param_bytes() / 1e6),
               strfmt("%.2f", g.fwd_flops_per_item() / 1e9), input});
  };
  add("EDSR (paper, B32/F256/x2)",
      models::build_edsr_graph(models::EdsrConfig::paper(), 48),
      "48x48 LR patch");
  add("EDSR-baseline (B16/F64)",
      models::build_edsr_graph(models::EdsrConfig::baseline(), 48),
      "48x48 LR patch");
  add("SRResNet (B16/F64)",
      models::build_srresnet_graph(models::SrResNetConfig{}, 48),
      "48x48 LR patch");
  add("VDSR (20 layers)",
      models::build_vdsr_graph(models::VdsrConfig{}, 96, 96),
      "96x96 upscaled");
  add("ResNet-50", models::build_resnet50_graph(224, 1000), "224x224 image");
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  Flags flags;
  flags.define("requests", "synthetic requests to issue", "24");
  flags.define("unique", "distinct images in the request stream", "8");
  flags.define("image", "LR image side in pixels", "96");
  flags.define("clients", "concurrent client threads", "4");
  flags.define("tile", "tile side in pixels", "48");
  flags.define("max-batch", "micro-batch size cap", "8");
  flags.define("workers", "server worker threads", "2");
  flags.define("cache-mb", "LRU result-cache byte budget in MiB", "64");
  flags.define("deadline-ms", "per-request deadline (0 = none)", "0");
  flags.define("stream-frames",
               "stream this many synthetic video frames through the data "
               "pipeline instead of issuing client requests (0 = off)",
               "0");
  flags.define("stream-prefetch", "decode-ahead queue depth in frames", "4");
  flags.define("stream-delay-ms",
               "injected per-frame decode latency in ms", "0");
  flags.define("seed", "rng seed", "7");
  define_recorder_flags(flags);
  define_telemetry_flags(flags);
  define_obs_flags(flags);
  flags.parse(argc, argv);
  obs_begin(flags);

  serve::ServeConfig cfg;
  cfg.stall_timeout_seconds = apply_recorder_flags(flags);
  cfg.tile_size = static_cast<std::size_t>(flags.get_int("tile"));
  cfg.max_batch = static_cast<std::size_t>(flags.get_int("max-batch"));
  cfg.workers = static_cast<std::size_t>(flags.get_int("workers"));
  cfg.cache_capacity_bytes =
      static_cast<std::size_t>(flags.get_int("cache-mb")) << 20;
  cfg.default_deadline =
      std::chrono::milliseconds(flags.get_int("deadline-ms"));

  // Tail-sampled trace retention: with tracing or telemetry on, keep the
  // slow/error request traces so /tracez (and the latency-histogram
  // exemplars) can drill from a bad percentile to the causal span tree.
  if (flags.has("trace-out") || flags.has("telemetry-port")) {
    obs::TraceStore::global().enable();
    if (!obs::tracing_enabled()) {
      // Request contexts and spans only exist while the tracer is live;
      // /tracez needs them even when no trace file was requested. The
      // ring is bounded and nothing is written at exit without
      // --trace-out.
      obs::Tracer::instance().enable();
    }
  }

  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  auto model =
      std::make_shared<models::Edsr>(models::EdsrConfig::tiny(), rng);
  serve::SrServer server(model, cfg);
  const std::unique_ptr<obs::TelemetryServer> telemetry =
      apply_telemetry_flags(flags, heartbeat_from(server.watchdog()));
  if (telemetry) {
    // SRE-workbook burn-rate rules over the serving SLO; alerts land in
    // the log, the flight recorder (when armed), and /alertz.
    telemetry->slo().install_serve_rules();
  }

  const auto unique = static_cast<std::size_t>(flags.get_int("unique"));
  const auto side = static_cast<std::size_t>(flags.get_int("image"));

  const auto stream_frames =
      static_cast<std::size_t>(flags.get_int("stream-frames"));
  if (stream_frames > 0) {
    // Streaming-ingest mode: an ordered synthetic frame sequence decoded
    // ahead by the dlsr::data pipeline, fed through the tiled server with
    // bounded in-flight frames.
    img::ShapesConfig frames_cfg;
    frames_cfg.samples = stream_frames;
    frames_cfg.image_size = side;
    frames_cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    const img::SyntheticShapes clip(frames_cfg);
    data::ShapesFrameDataset view(clip);
    auto store = std::make_shared<data::SampleStore>(view);
    data::StreamConfig scfg;
    scfg.prefetch_depth =
        static_cast<std::size_t>(flags.get_int("stream-prefetch"));
    scfg.decode_delay_ms = flags.get_double("stream-delay-ms");
    data::StreamReader reader(view, store, scfg);
    serve::StreamIngestConfig icfg;
    icfg.max_in_flight = cfg.max_batch;
    std::printf("streaming %zu %zux%zu frames (decode-ahead %zu, "
                "max in flight %zu, tile %zu)\n",
                stream_frames, side, side, scfg.prefetch_depth,
                icfg.max_in_flight, cfg.tile_size);
    const serve::StreamIngestStats st = serve::serve_stream(
        server, reader, icfg,
        [](std::size_t i, const serve::ServeResult& r) {
          if (r.status != serve::ServeStatus::Ok) {
            std::printf("frame %zu %s: %s\n", i, to_string(r.status),
                        r.error.c_str());
          }
        });
    Table t({"metric", "value"});
    t.add_row({"frames", strfmt("%zu", st.frames)});
    t.add_row({"ok", strfmt("%zu", st.ok)});
    t.add_row({"failed", strfmt("%zu", st.failed)});
    t.add_row({"throughput", strfmt("%.1f frames/s", st.fps)});
    t.add_row({"decode wait", strfmt("%.1f ms total", st.ingest_wait_ms)});
    std::printf("%s", t.to_string().c_str());
    telemetry_hold(flags, telemetry.get());
    obs_end(flags);
    return st.failed == 0 ? 0 : 1;
  }
  std::vector<Tensor> pool;
  for (std::size_t i = 0; i < unique; ++i) {
    Tensor img({1, 3, side, side});
    for (float& v : img.data()) {
      v = static_cast<float>(rng.uniform());
    }
    pool.push_back(std::move(img));
  }

  const auto requests = static_cast<std::size_t>(flags.get_int("requests"));
  const auto clients = static_cast<std::size_t>(flags.get_int("clients"));
  std::printf("serving %zu requests over %zu unique %zux%zu images "
              "(%zu clients, tile %zu, halo %zu, max batch %zu)\n",
              requests, unique, side, side, clients, cfg.tile_size,
              server.config().halo, cfg.max_batch);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> ok{0}, failed{0};
  std::mutex mu;
  Rng pick(static_cast<std::uint64_t>(flags.get_int("seed")) + 1);
  std::vector<std::size_t> sequence;
  for (std::size_t i = 0; i < requests; ++i) {
    sequence.push_back(pick.uniform_index(unique));
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= sequence.size()) return;
        const serve::ServeResult r = server.upscale(pool[sequence[i]]);
        if (r.status == serve::ServeStatus::Ok) {
          ++ok;
        } else {
          ++failed;
          std::lock_guard<std::mutex> lock(mu);
          std::printf("request %zu %s: %s\n", i, to_string(r.status),
                      r.error.c_str());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::MetricsSnapshot snap = server.metrics_snapshot();
  Table t({"metric", "value"});
  t.add_row({"completed", strfmt("%zu", snap.completed)});
  t.add_row({"rejected", strfmt("%zu", snap.rejected)});
  t.add_row({"timed_out", strfmt("%zu", snap.timed_out)});
  t.add_row({"cache_hits", strfmt("%zu", snap.cache_hits)});
  t.add_row({"throughput", strfmt("%.1f req/s", ok.load() / wall)});
  t.add_row({"mean batch", strfmt("%.2f tiles", snap.mean_batch)});
  t.add_row({"latency p50", strfmt("%.2f ms", snap.latency_p50_ms)});
  t.add_row({"latency p95", strfmt("%.2f ms", snap.latency_p95_ms)});
  t.add_row({"latency p99", strfmt("%.2f ms", snap.latency_p99_ms)});
  std::printf("%s", t.to_string().c_str());
  std::printf("%s\n", snap.to_json().c_str());
  telemetry_hold(flags, telemetry.get());
  obs_end(flags);
  return failed.load() == 0 ? 0 : 1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DLSR_CHECK(in.good(), "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int cmd_trace_summary(int argc, const char* const* argv) {
  Flags flags;
  flags.define("json", "write the machine-readable summary here",
               std::nullopt);
  flags.parse(argc, argv);
  DLSR_CHECK(!flags.positional().empty(),
             "usage: dlsr trace-summary <trace.json> [more.json ...] "
             "[--json summary.json]");
  // Several files = one per rank: events from file i are tagged rank i
  // (unless they already carry a rank arg) so the summary gains a per-rank
  // column. One file keeps the flat single-trace view.
  std::vector<obs::ParsedEvent> events;
  for (std::size_t i = 0; i < flags.positional().size(); ++i) {
    const std::string& path = flags.positional()[i];
    auto file_events = obs::parse_trace_events(read_file(path));
    std::printf("%zu events in %s\n", file_events.size(), path.c_str());
    if (flags.positional().size() > 1) {
      obs::tag_rank(file_events, static_cast<int>(i));
    }
    events.insert(events.end(),
                  std::make_move_iterator(file_events.begin()),
                  std::make_move_iterator(file_events.end()));
  }
  std::printf("%s", obs::trace_summary(events).to_string().c_str());
  if (flags.has("json")) {
    std::ofstream out(flags.get("json"));
    DLSR_CHECK(out.good(), "cannot open " + flags.get("json"));
    out << obs::trace_summary_json(events) << "\n";
    std::printf("summary written to %s\n", flags.get("json").c_str());
  }
  return 0;
}

int cmd_trace_merge(int argc, const char* const* argv) {
  Flags flags;
  flags.define("out", "write the merged Chrome trace here",
               "merged-trace.json");
  flags.parse(argc, argv);
  DLSR_CHECK(flags.positional().size() >= 2,
             "usage: dlsr trace-merge <rank0.json> <rank1.json> [...] "
             "[--out merged.json]");
  std::vector<std::vector<obs::ParsedEvent>> ranks;
  ranks.reserve(flags.positional().size());
  for (const std::string& path : flags.positional()) {
    ranks.push_back(obs::parse_trace_events(read_file(path)));
  }
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    std::printf("rank %zu (%s): clock offset %+.3f us vs rank 0\n", r,
                flags.positional()[r].c_str(),
                obs::merge_clock_offset_us(ranks[0], ranks[r]));
  }
  const std::string merged = obs::merge_rank_traces(ranks);
  std::ofstream out(flags.get("out"), std::ios::binary);
  DLSR_CHECK(out.good(), "cannot open " + flags.get("out"));
  out << merged;
  std::printf("merged %zu rank traces into %s (analyze with "
              "`dlsr analyze %s --whole-run`)\n",
              ranks.size(), flags.get("out").c_str(),
              flags.get("out").c_str());
  return 0;
}

int cmd_analyze(int argc, const char* const* argv) {
  Flags flags;
  flags.define("json", "write the machine-readable report here",
               std::nullopt);
  flags.define("whole-run",
               "print the whole-run critical path (straggler-aware rank/"
               "op/bucket segments; best on a trace-merge output)",
               "false");
  flags.parse(argc, argv);
  DLSR_CHECK(flags.positional().size() == 1,
             "usage: dlsr analyze <trace.json> [--whole-run] "
             "[--json report.json]");
  const std::string& path = flags.positional().front();
  const auto events = obs::parse_trace_events(read_file(path));
  const obs::AnalysisReport report = obs::analyze_trace(events);

  std::printf("critical-path analysis of %s: %zu steps\n\n", path.c_str(),
              report.steps.size());
  std::printf("%s\n", report.attribution_table().to_string().c_str());
  std::printf("%s\n", report.step_table().to_string().c_str());
  std::printf("traced communication profile (hvprof buckets):\n%s\n",
              report.comm_profile.report(prof::Collective::Allreduce)
                  .to_string()
                  .c_str());
  const double total = report.total_step_us();
  std::printf("exposed comm: %.1f us over %.1f us of steps (%.1f%%)\n",
              report.total_exposed_comm_us(), total,
              total > 0.0 ? report.total_exposed_comm_us() / total * 100.0
                          : 0.0);
  if (!report.stragglers.empty()) {
    std::printf("\nstragglers flagged during the traced run:\n%s",
                report.straggler_table().to_string().c_str());
    for (const obs::StragglerFinding& f : report.stragglers) {
      std::printf("rank %zu flagged from step %zu (max score %.1f MADs "
                  "over the fleet median)\n",
                  f.rank, f.first_step, f.max_score);
    }
  }
  if (flags.get_bool("whole-run")) {
    double comm_us = 0.0;
    for (const obs::CriticalSegment& s : report.critical_path) {
      if (s.kind == "exposed-comm") {
        comm_us += s.us;
      }
    }
    std::printf("\nwhole-run critical path (%zu segments):\n%s",
                report.critical_path.size(),
                report.critical_path_table().to_string().c_str());
    std::printf("critical-path comm total: %.1f us (per-step exposed comm "
                "%.1f us)\n",
                comm_us, report.total_exposed_comm_us());
  }
  if (flags.has("json")) {
    std::ofstream out(flags.get("json"));
    DLSR_CHECK(out.good(), "cannot open " + flags.get("json"));
    out << report.to_json() << "\n";
    std::printf("report written to %s\n", flags.get("json").c_str());
  }
  return 0;
}

int cmd_perf_compare(int argc, const char* const* argv) {
  Flags flags;
  flags.parse(argc, argv);
  DLSR_CHECK(flags.positional().size() == 2,
             "usage: dlsr perf-compare <current.json> <baseline.json>");
  const obs::CompareResult result = obs::perf_compare_files(
      flags.positional()[0], flags.positional()[1]);
  std::printf("%s\n", result.table().to_string().c_str());
  std::printf("%s\n", result.summary().c_str());
  return result.regression ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: dlsr [--log-level LEVEL] "
      "<simulate|profile|train|models|layers|serve|trace-summary|"
      "trace-merge|analyze|perf-compare> [flags]\n"
      "run `dlsr <command> --help` conceptually: flags are listed in "
      "tools/dlsr_cli.cpp\n";
  // Strip the global --log-level flag (valid anywhere before the
  // subcommand's own flags) so subcommand parsers never see it.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  try {
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--log-level") {
        if (i + 1 >= argc) {
          throw dlsr::Error("--log-level needs a value");
        }
        dlsr::set_log_level(dlsr::parse_log_level(argv[++i]));
      } else if (arg.rfind("--log-level=", 0) == 0) {
        dlsr::set_log_level(
            dlsr::parse_log_level(arg.substr(std::string("--log-level=")
                                                 .size())));
      } else {
        args.push_back(argv[i]);
      }
    }
    if (args.size() < 2) {
      std::fprintf(stderr, "%s", usage.c_str());
      return 2;
    }
    const std::string command = args[1];
    const int sub_argc = static_cast<int>(args.size()) - 1;
    char** sub_argv = args.data() + 1;
    if (command == "simulate") return cmd_simulate(sub_argc, sub_argv);
    if (command == "profile") return cmd_profile(sub_argc, sub_argv);
    if (command == "train") return cmd_train(sub_argc, sub_argv);
    if (command == "models") return cmd_models(sub_argc, sub_argv);
    if (command == "layers") return cmd_layers(sub_argc, sub_argv);
    if (command == "serve") return cmd_serve(sub_argc, sub_argv);
    if (command == "trace-summary") {
      return cmd_trace_summary(sub_argc, sub_argv);
    }
    if (command == "trace-merge") {
      return cmd_trace_merge(sub_argc, sub_argv);
    }
    if (command == "analyze") return cmd_analyze(sub_argc, sub_argv);
    if (command == "perf-compare") {
      return cmd_perf_compare(sub_argc, sub_argv);
    }
    std::fprintf(stderr, "unknown command \"%s\"\n%s", command.c_str(),
                 usage.c_str());
    return 2;
  } catch (const dlsr::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
