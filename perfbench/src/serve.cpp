// serve_open: serve::SrServer under open-loop Poisson load. EDSR-tiny on
// mixed 48-128 px LR images with about 20 % repeats, so the result cache
// both inserts and hits. A reference phase at a fixed rate gives the
// latency percentiles; a ladder of rates gives the highest rate that meets
// the latency limit without a growing backlog.
//
// Latency runs from each request's due time, not from when the generator
// got round to submitting it, so a stall charges every request it delays.
// Outcomes are counted from each ServeResult (not from ServerMetrics), and
// every future is awaited with a timeout: one that never resolves counts as
// unresolved instead of hanging the run.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "layers.hpp"
#include "models/edsr.hpp"
#include "reference.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using dlsr::strfmt;

constexpr std::size_t kSetupRepeats = 3;
constexpr double kRepeatFraction = 0.2;
/// Repeats draw from this many most recent distinct images.
constexpr std::size_t kRepeatWindow = 16;
constexpr std::size_t kMinSide = 48;
constexpr std::size_t kSideStep = 16;
constexpr std::size_t kSideChoices = 6;  ///< 48, 64, ..., 128 px
/// Reference rate for the latency percentiles, and its share of the run.
constexpr double kRefRate = 100.0;
constexpr double kRefShare = 0.6;
/// Ladder rates (req/s), each run for an equal share of the rest.
constexpr double kLadder[] = {60.0, 120.0, 180.0, 240.0, 300.0};
/// A future still unresolved this long after its due time is abandoned.
constexpr double kResolveTimeoutS = 10.0;
/// Distinct images verified bit for bit against an untiled forward.
constexpr std::size_t kVerifyEvery = 8;
constexpr std::size_t kVerifyMax = 48;
/// Images also checked against the naive reference (smallest sides).
constexpr std::size_t kNaiveChecks = 2;
constexpr double kNaiveRelTol = 1e-4;

/// The LR image with id `id`: a seeded mix of gradients and rectangles,
/// regenerated identically for verification. Side from the id's draw.
dlsr::Tensor make_image(std::uint64_t seed, std::uint64_t id) {
  dlsr::Rng rng(derive_seed(seed, 1000 + id));
  const std::size_t side = kMinSide + kSideStep * rng.uniform_index(kSideChoices);
  dlsr::Tensor img({1, 3, side, side});
  for (std::size_t c = 0; c < 3; ++c) {
    const double a = rng.uniform(0.2, 0.8);
    const double gx = rng.uniform(-0.4, 0.4) / static_cast<double>(side);
    const double gy = rng.uniform(-0.4, 0.4) / static_cast<double>(side);
    const double f = rng.uniform(0.05, 0.4);
    const double amp = rng.uniform(0.05, 0.2);
    for (std::size_t y = 0; y < side; ++y) {
      for (std::size_t x = 0; x < side; ++x) {
        const double v = a + gx * static_cast<double>(x) +
                         gy * static_cast<double>(y) +
                         amp * std::sin(f * static_cast<double>(x + 2 * y));
        img.at4(0, c, y, x) = static_cast<float>(std::clamp(v, 0.0, 1.0));
      }
    }
  }
  for (int r = 0; r < 4; ++r) {
    const std::size_t y0 = rng.uniform_index(side / 2);
    const std::size_t x0 = rng.uniform_index(side / 2);
    const std::size_t h = 4 + rng.uniform_index(side / 3);
    const std::size_t w = 4 + rng.uniform_index(side / 3);
    for (std::size_t c = 0; c < 3; ++c) {
      const float v = static_cast<float>(rng.uniform());
      for (std::size_t y = y0; y < std::min(side, y0 + h); ++y) {
        for (std::size_t x = x0; x < std::min(side, x0 + w); ++x) {
          img.at4(0, c, y, x) = v;
        }
      }
    }
  }
  return img;
}

std::uint64_t fnv1a(const dlsr::Tensor& t) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.raw());
  for (std::size_t i = 0; i < t.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h ^ t.numel();
}

bool verified_id(std::uint64_t id) {
  return id % kVerifyEvery == 0 && id / kVerifyEvery < kVerifyMax;
}

/// One request of the schedule.
struct Request {
  double due_s = 0.0;  ///< offset from the phase start
  std::uint64_t image_id = 0;
};

/// One phase: Poisson arrivals at `rate` for `seconds`.
struct Phase {
  std::string name;
  double rate = 0.0;
  std::vector<Request> requests;
  bool traced = false;
};

/// Draws arrivals and image ids. Repeats reuse a recent distinct image;
/// `next_id` numbers distinct images across phases.
Phase make_phase(const std::string& name, double rate, double seconds,
                 dlsr::Rng& rng, std::uint64_t& next_id,
                 std::vector<std::uint64_t>& recent) {
  Phase p;
  p.name = name;
  p.rate = rate;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) {
      break;
    }
    Request r;
    r.due_s = t;
    if (!recent.empty() && rng.uniform() < kRepeatFraction) {
      r.image_id = recent[rng.uniform_index(recent.size())];
    } else {
      r.image_id = next_id++;
      recent.push_back(r.image_id);
      if (recent.size() > kRepeatWindow) {
        recent.erase(recent.begin());
      }
    }
    p.requests.push_back(r);
  }
  return p;
}

struct Outcome {
  std::uint64_t image_id = 0;
  std::uint64_t hash = 0;  ///< output hash (verified ids only)
};

struct PhaseStats {
  std::size_t ok = 0;
  std::size_t rejected = 0;
  std::size_t timed_out = 0;
  std::size_t unresolved = 0;
  std::size_t hits = 0;
  double lag_max_ms = 0.0;
  std::vector<double> latency_ms;  ///< Ok requests, from due time
};

/// Runs one phase open-loop: the calling thread submits on schedule while a
/// collector thread awaits the futures in order and records each outcome.
PhaseStats run_phase(dlsr::serve::SrServer& server, const Phase& phase,
                     std::uint64_t seed, std::vector<Outcome>& verified) {
  struct Slot {
    std::future<dlsr::serve::ServeResult> future;
    double submit_lag_s = 0.0;
    Clock::time_point due;
    std::uint64_t image_id = 0;
  };
  const std::size_t n = phase.requests.size();
  std::vector<Slot> slots(n);
  std::atomic<std::size_t> submitted{0};
  // Only the collector touches `stats` and `verified` until it is joined.
  PhaseStats stats;
  double lag_max_ms = 0.0;

  const dlsr::serve::MetricsSnapshot before = server.metrics().snapshot();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      Slot& s = slots[i];
      const auto deadline =
          std::max(Clock::now(), s.due + std::chrono::duration_cast<
                                             Clock::duration>(
                                             std::chrono::duration<double>(
                                                 kResolveTimeoutS)));
      const char* status = "unresolved";
      double latency_ms = -1.0;
      bool hit = false;
      if (s.future.wait_until(deadline) == std::future_status::ready) {
        try {
          dlsr::serve::ServeResult r = s.future.get();
          switch (r.status) {
            case dlsr::serve::ServeStatus::Ok:
              status = "ok";
              ++stats.ok;
              hit = r.cache_hit;
              stats.hits += hit ? 1 : 0;
              latency_ms = (s.submit_lag_s + r.latency_seconds) * 1e3;
              stats.latency_ms.push_back(latency_ms);
              if (verified_id(s.image_id)) {
                verified.push_back({s.image_id, fnv1a(r.image)});
              }
              break;
            case dlsr::serve::ServeStatus::Rejected:
              status = "rejected";
              ++stats.rejected;
              break;
            case dlsr::serve::ServeStatus::TimedOut:
              status = "timed_out";
              ++stats.timed_out;
              break;
          }
        } catch (const std::exception&) {
          // A broken promise: the request never got a result.
        }
      }
      if (std::strcmp(status, "unresolved") == 0) {
        ++stats.unresolved;
      }
      emit(strfmt(R"({"t":"op","phase":"%s","rate":%g,"i":%zu,)"
                  R"("status":"%s","hit":%d,"ms":%.6f,"lag_ms":%.6f})",
                  phase.name.c_str(), phase.rate, i, status, hit ? 1 : 0,
                  latency_ms, s.submit_lag_s * 1e3));
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = phase.requests[i];
    Slot& s = slots[i];
    s.image_id = r.image_id;
    const dlsr::Tensor image = make_image(seed, r.image_id);
    s.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(r.due_s));
    std::this_thread::sleep_until(s.due);
    s.submit_lag_s =
        std::max(0.0, std::chrono::duration<double>(Clock::now() - s.due)
                          .count());
    s.future = server.submit(image);
    lag_max_ms = std::max(lag_max_ms, s.submit_lag_s * 1e3);
    submitted.store(i + 1, std::memory_order_release);
  }
  collector.join();
  stats.lag_max_ms = lag_max_ms;
  // The server's own counters, independent of the collector: it must have
  // registered every submission, and its Ok, rejected and timed-out counts
  // must match the outcomes the futures delivered. Each counter is bumped
  // before the promise it belongs to is resolved, so the resolved futures
  // are all counted by now. A forward that throws resolves its requests as
  // rejected without a server count, and a dead worker leaves them
  // unresolved: either shows here.
  const dlsr::serve::MetricsSnapshot after = server.metrics().snapshot();
  const std::uint64_t counted = after.requests - before.requests;
  const std::uint64_t completed = after.completed - before.completed;
  const std::uint64_t rejected = after.rejected - before.rejected;
  const std::uint64_t timed_out = after.timed_out - before.timed_out;
  emit_check(
      "outcomes_sum_" + phase.name,
      counted == n &&
          counted ==
              stats.ok + stats.rejected + stats.timed_out + stats.unresolved &&
          completed == stats.ok && rejected == stats.rejected &&
          timed_out == stats.timed_out,
      strfmt("server counted %llu submitted of %zu sent; futures: ok %zu + "
             "rejected %zu + timed_out %zu + unresolved %zu; server: "
             "completed %llu, rejected %llu, timed_out %llu",
             static_cast<unsigned long long>(counted), n, stats.ok,
             stats.rejected, stats.timed_out, stats.unresolved,
             static_cast<unsigned long long>(completed),
             static_cast<unsigned long long>(rejected),
             static_cast<unsigned long long>(timed_out)));
  return stats;
}

std::unique_ptr<dlsr::serve::SrServer> make_server(
    const std::shared_ptr<dlsr::models::Edsr>& model, std::uint64_t seed) {
  auto server = std::make_unique<dlsr::serve::SrServer>(
      model, dlsr::serve::ServeConfig{});
  // Warm-up: one image of every side, ids outside the run's range.
  std::vector<std::future<dlsr::serve::ServeResult>> warm;
  for (std::uint64_t id = 0; warm.size() < 2 * kSideChoices; ++id) {
    warm.push_back(server->submit(make_image(seed ^ 0x5eedULL, id)));
  }
  for (auto& f : warm) {
    f.get();
  }
  return server;
}

/// Per-request split of the traced phase's latency into serve layers.
void emit_layers(const Trace& trace, const PhaseStats& traced,
                 double untraced_p50_ms,
                 const dlsr::models::EdsrConfig& model_cfg) {
  const auto times = layer_times(trace);
  const auto total_ms = [&times](const char* key) {
    const auto it = times.find(key);
    return it == times.end() ? 0.0 : it->second.total_us / 1e3;
  };

  // Batch spans per worker lane, sorted by start, to place the forward and
  // stitch spans nested in them and the requests' flow steps.
  std::map<std::int64_t, std::vector<const Span*>> batches;
  double tiles = 0.0;
  double batch_count = 0.0;
  double flops = 0.0;
  std::map<std::uint64_t, double> queue_ms;
  std::map<std::uint64_t, double> request_ms;
  for (const Span& s : trace.spans) {
    if (s.key == "serve/batch") {
      batches[s.tid].push_back(&s);
      tiles += s.tiles;
      batch_count += 1.0;
      flops += s.tiles * edsr_forward_flops(model_cfg, s.tile_h, s.tile_w);
    } else if (s.key == "serve/queue") {
      queue_ms[s.trace_id] = s.dur_us / 1e3;
    } else if (s.key == "serve/request") {
      request_ms[s.trace_id] = s.dur_us / 1e3;
    }
  }
  const auto by_start = [](const Span* a, const Span* b) {
    return a->ts_us < b->ts_us;
  };
  for (auto& [tid, v] : batches) {
    (void)tid;
    std::sort(v.begin(), v.end(), by_start);
  }
  // The batch span on `tid`'s lane that contains time `ts`, or null.
  const auto enclosing = [&batches](std::int64_t tid,
                                    double ts) -> const Span* {
    const auto lane = batches.find(tid);
    if (lane == batches.end()) {
      return nullptr;
    }
    const std::vector<const Span*>& v = lane->second;
    auto it = std::upper_bound(
        v.begin(), v.end(), ts,
        [](double t, const Span* s) { return t < s->ts_us; });
    if (it == v.begin()) {
      return nullptr;
    }
    --it;
    return ts <= (*it)->ts_us + (*it)->dur_us ? *it : nullptr;
  };

  // Forward and stitch milliseconds inside each batch span.
  std::map<const Span*, std::pair<double, double>> batch_parts;
  for (const Span& s : trace.spans) {
    const bool forward = s.key == "serve/forward";
    if (!forward && s.key != "serve/stitch") {
      continue;
    }
    if (const Span* b = enclosing(s.tid, s.ts_us)) {
      (forward ? batch_parts[b].first : batch_parts[b].second) +=
          s.dur_us / 1e3;
    }
  }

  // Each request's batches: the flow steps carrying its trace id.
  std::map<std::uint64_t, std::vector<const Span*>> touched;
  for (const Span& f : trace.flows) {
    if (f.key != "serve/request") {
      continue;
    }
    if (const Span* b = enclosing(f.tid, f.ts_us)) {
      touched[f.trace_id].push_back(b);
    }
  }
  double sum_request = 0.0, sum_queue = 0.0, sum_pack = 0.0;
  double sum_forward = 0.0, sum_stitch = 0.0;
  double computed = 0.0;
  for (const auto& [id, batch_list] : touched) {
    const auto req = request_ms.find(id);
    const auto q = queue_ms.find(id);
    if (req == request_ms.end() || q == queue_ms.end()) {
      continue;
    }
    computed += 1.0;
    sum_request += req->second;
    sum_queue += q->second;
    for (const Span* b : batch_list) {
      const auto [fwd, st] = batch_parts[b];
      sum_forward += fwd;
      sum_stitch += st;
      sum_pack += b->dur_us / 1e3 - fwd - st;
    }
  }
  const double per = computed > 0 ? 1.0 / computed : 0.0;
  const double parts = (sum_queue + sum_pack + sum_forward + sum_stitch) * per;
  emit_metric("serve.request_ms_mean", sum_request * per, "ms");
  emit_metric("serve.queue_ms_mean", sum_queue * per, "ms");
  emit_metric("serve.pack_ms_mean", sum_pack * per, "ms");
  emit_metric("serve.forward_ms_mean", sum_forward * per, "ms");
  emit_metric("serve.stitch_ms_mean", sum_stitch * per, "ms");
  emit_metric("serve.layer_sum_ms", parts, "ms");
  emit_metric("serve.unattributed_ms", sum_request * per - parts, "ms");

  std::vector<double> waits;
  for (const auto& [id, ms] : queue_ms) {
    (void)id;
    waits.push_back(ms);
  }
  emit_metric("serve.queue_wait_ms_p99", dlsr::percentile(waits, 0.99), "ms");
  emit_metric("serve.batch_tiles_mean",
              batch_count > 0 ? tiles / batch_count : 0.0, "count");
  emit_metric("serve.forward_ms_per_tile",
              tiles > 0 ? total_ms("serve/forward") / tiles : 0.0, "ms");
  const double misses = static_cast<double>(traced.ok - traced.hits);
  emit_metric("serve.stitch_ms_per_request",
              misses > 0 ? total_ms("serve/stitch") / misses : 0.0, "ms");
  emit_metric("serve.cache_hit_ratio",
              traced.ok > 0 ? static_cast<double>(traced.hits) /
                                  static_cast<double>(traced.ok)
                            : 0.0,
              "ratio");
  const double conv_s = total_ms("tensor/conv2d_forward") / 1e3;
  emit_metric("tensor.conv_fwd_gflops",
              conv_s > 0 ? flops / conv_s / 1e9 : 0.0, "GFLOP/s");
  const double traced_p50 = dlsr::percentile(traced.latency_ms, 0.5);
  emit_metric("obs.trace_overhead_pct",
              untraced_p50_ms > 0
                  ? (traced_p50 - untraced_p50_ms) / untraced_p50_ms * 100.0
                  : 0.0,
              "%");
}

/// Checks a sample of Ok outputs bit for bit against an untiled forward of
/// the whole image, and two images against the naive reference.
void check_outputs(const dlsr::serve::SrServer& server,
                   dlsr::models::Edsr& model, std::uint64_t seed,
                   const std::vector<Outcome>& verified) {
  std::map<std::uint64_t, std::uint64_t> want;  // image id -> hash
  std::vector<std::pair<std::size_t, std::uint64_t>> by_side;
  std::size_t mismatches = 0;
  for (const Outcome& o : verified) {
    auto it = want.find(o.image_id);
    if (it == want.end()) {
      const dlsr::Tensor image = make_image(seed, o.image_id);
      it = want.emplace(o.image_id, fnv1a(server.engine().infer(image)))
               .first;
      by_side.emplace_back(image.dim(2), o.image_id);
    }
    mismatches += it->second != o.hash ? 1 : 0;
  }
  emit_check("tiled_equals_untiled",
             !verified.empty() && mismatches == 0,
             strfmt("%zu of %zu sampled Ok outputs (%zu distinct images) "
                    "differ from an untiled whole-image forward",
                    mismatches, verified.size(), want.size()));

  // The smallest sampled images against the naive reference.
  std::sort(by_side.begin(), by_side.end());
  const ReferenceEdsr reference(model);
  for (std::size_t i = 0; i < std::min(kNaiveChecks, by_side.size()); ++i) {
    const dlsr::Tensor image = make_image(seed, by_side[i].second);
    const double rel =
        max_rel_error(server.engine().infer(image), reference.forward(image));
    emit_check(strfmt("served_vs_reference_%zu", i), rel <= kNaiveRelTol,
               strfmt("%zu px image: max relative error %.3g (bound %.0e)",
                      image.dim(2), rel, kNaiveRelTol));
  }
}

}  // namespace

int run_serve(const Args& args) {
  dlsr::Rng model_rng(derive_seed(args.seed, 21));
  const dlsr::models::EdsrConfig model_cfg = dlsr::models::EdsrConfig::tiny();
  auto model = std::make_shared<dlsr::models::Edsr>(model_cfg, model_rng);

  std::unique_ptr<dlsr::serve::SrServer> server;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = make_server(model, args.seed);
    emit_setup(seconds_since(t0));
  }

  // The schedule: the reference phase (split in two halves, the second
  // traced, when tracing) and, untraced, the ladder.
  dlsr::Rng rng(derive_seed(args.seed, 22));
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t> recent;
  std::vector<Phase> phases;
  if (args.trace) {
    phases.push_back(make_phase("ref", kRefRate, args.seconds / 2, rng,
                                next_id, recent));
    phases.push_back(make_phase("ref_traced", kRefRate, args.seconds / 2,
                                rng, next_id, recent));
    phases.back().traced = true;
  } else {
    phases.push_back(make_phase("ref", kRefRate, args.seconds * kRefShare,
                                rng, next_id, recent));
    const double rung_s = args.seconds * (1.0 - kRefShare) /
                          static_cast<double>(std::size(kLadder));
    for (const double rate : kLadder) {
      phases.push_back(make_phase(strfmt("rung_%g", rate), rate, rung_s, rng,
                                  next_id, recent));
    }
  }
  std::size_t total = 0;
  for (const Phase& p : phases) {
    total += p.requests.size();
  }
  emit_plan(total);

  std::vector<Outcome> verified;
  double untraced_p50 = 0.0;
  for (const Phase& p : phases) {
    if (p.traced) {
      start_tracing(1 << 18);
    }
    const PhaseStats stats = run_phase(*server, p, args.seed, verified);
    if (p.traced) {
      const Trace trace = stop_tracing();
      emit_layers(trace, stats, untraced_p50, model_cfg);
      emit_metric("serve.gen_lag_ms_max", stats.lag_max_ms, "ms");
    } else if (p.name == "ref") {
      untraced_p50 = dlsr::percentile(stats.latency_ms, 0.5);
    }
  }
  check_outputs(*server, *model, args.seed, verified);
  return 0;
}

}  // namespace perfbench
