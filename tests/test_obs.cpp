// Tests for dlsr::obs — the span tracer (JSON validity, nesting under
// concurrent producers, ring-buffer overwrite, disabled-path inertness),
// the metrics registry (bucketed percentiles within their stated bound of
// common/stats, exact concurrent counts, exports, rebinding),
// the trace parser/summary, and the end-to-end training pipeline producing
// spans from core, hvd, and mpisim plus step-phase histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "core/training_session.hpp"
#include "image/synthetic_div2k.hpp"
#include "models/edsr.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_store.hpp"
#include "obs/trace_summary.hpp"

namespace dlsr::obs {
namespace {

/// RAII guard: tests that enable the tracer always leave it disabled and
/// empty for the next test.
struct TracerGuard {
  explicit TracerGuard(std::size_t capacity = 1 << 15) {
    Tracer::instance().enable(capacity);
  }
  ~TracerGuard() {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
};

TEST(Tracer, DisabledByDefaultAndInert) {
  Tracer& tracer = Tracer::instance();
  tracer.disable();
  tracer.reset();
  ASSERT_FALSE(tracing_enabled());
  {
    OBS_SPAN("test", "noop");
    OBS_INSTANT("test", "noop");
    OBS_COUNTER("test", "noop", 1);
    ScopedSpan span("test", "explicit");
    EXPECT_FALSE(span.active());
    span.set_args("{\"ignored\":true}");
  }
  // A disabled tracer records nothing and registers no thread buffers —
  // the macros never reach the allocation path.
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.thread_count(), 0u);
  EXPECT_EQ(tracer.dropped_count(), 0u);
}

TEST(Tracer, RecordsCompleteInstantAndCounterEvents) {
  TracerGuard guard;
  Tracer& tracer = Tracer::instance();
  {
    OBS_SPAN("alpha", "outer");
    OBS_INSTANT("alpha", "ping");
    OBS_COUNTER("alpha", "queue_depth", 3);
  }
  EXPECT_EQ(tracer.event_count(), 3u);
  EXPECT_EQ(tracer.thread_count(), 1u);

  const std::string json = tracer.to_chrome_trace_json();
  EXPECT_NO_THROW(json::parse(json));
  const auto events = parse_trace_events(json);
  // Two "M" process-name metadata events precede the recorded three.
  std::size_t x = 0, i = 0, c = 0;
  for (const auto& e : events) {
    x += e.phase == 'X';
    i += e.phase == 'i';
    c += e.phase == 'C';
  }
  EXPECT_EQ(x, 1u);
  EXPECT_EQ(i, 1u);
  EXPECT_EQ(c, 1u);
}

TEST(Tracer, SpanNestingUnderConcurrentProducers) {
  TracerGuard guard;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t s = 0; s < kSpansPerThread; ++s) {
        OBS_SPAN("outer", "parent");
        OBS_SPAN("inner", "child");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  Tracer& tracer = Tracer::instance();
  EXPECT_EQ(tracer.event_count(), 2 * kThreads * kSpansPerThread);
  EXPECT_EQ(tracer.thread_count(), kThreads);
  EXPECT_EQ(tracer.dropped_count(), 0u);

  const std::string json = tracer.to_chrome_trace_json();
  ASSERT_NO_THROW(json::parse(json));
  const auto events = parse_trace_events(json);
  // Chrome-trace nesting: per (pid, tid), every child span lies within
  // its parent's [ts, ts+dur] envelope. Reconstruct with a per-tid stack
  // over the time-sorted events.
  std::map<int, std::vector<const ParsedEvent*>> stacks;
  std::size_t children = 0;
  for (const auto& e : events) {
    if (e.phase != 'X') {
      continue;
    }
    auto& stack = stacks[e.tid];
    while (!stack.empty() &&
           e.ts_us >= stack.back()->ts_us + stack.back()->dur_us - 1e-9) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      const ParsedEvent& parent = *stack.back();
      EXPECT_EQ(parent.name, "parent");
      EXPECT_EQ(e.name, "child");
      EXPECT_GE(e.ts_us, parent.ts_us - 1e-9);
      EXPECT_LE(e.ts_us + e.dur_us, parent.ts_us + parent.dur_us + 1e-9);
      ++children;
    }
    stack.push_back(&e);
  }
  EXPECT_EQ(children, kThreads * kSpansPerThread);
}

TEST(Tracer, RingBufferDropsOldestWhenFull) {
  TracerGuard guard(/*capacity=*/8);
  Tracer& tracer = Tracer::instance();
  for (int i = 0; i < 20; ++i) {
    tracer.instant(strfmt("e%d", i), "ring");
  }
  EXPECT_EQ(tracer.event_count(), 8u);
  EXPECT_EQ(tracer.dropped_count(), 12u);
  const auto events = parse_trace_events(tracer.to_chrome_trace_json());
  // The survivors are the newest 8 (e12..e19), exported oldest-first.
  std::vector<std::string> names;
  for (const auto& e : events) {
    if (e.phase == 'i') {
      names.push_back(e.name);
    }
  }
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "e12");
  EXPECT_EQ(names.back(), "e19");
}

TEST(Tracer, ExplicitTimestampEventsLandOnSimPid) {
  TracerGuard guard;
  Tracer& tracer = Tracer::instance();
  tracer.complete("allreduce", "sim", 1000.0, 250.0, "{\"bytes\":64}",
                  kSimPid);
  const auto events = parse_trace_events(tracer.to_chrome_trace_json());
  const auto it = std::find_if(events.begin(), events.end(),
                               [](const ParsedEvent& e) {
                                 return e.name == "allreduce";
                               });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->pid, static_cast<int>(kSimPid));
  EXPECT_DOUBLE_EQ(it->ts_us, 1000.0);
  EXPECT_DOUBLE_EQ(it->dur_us, 250.0);
}

// The bucketed histogram trades exact percentiles for bounded memory: each
// quantile must land within Histogram::kRelativeError of the two order
// statistics dlsr::percentile interpolates between.
TEST(Metrics, HistogramPercentilesWithinBoundOfCommonStats) {
  const double eps = Histogram::kRelativeError;
  ASSERT_LE(eps, 0.01);
  enum class Shape { Uniform, LogNormal, Constant, ZeroHeavy };
  for (const Shape shape :
       {Shape::Uniform, Shape::LogNormal, Shape::Constant, Shape::ZeroHeavy}) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      for (const std::size_t n : {1u, 2u, 37u, 2000u}) {
        Rng rng(seed);
        Histogram hist;
        std::vector<double> samples;
        for (std::size_t i = 0; i < n; ++i) {
          double v = 0.0;
          switch (shape) {
            case Shape::Uniform:
              v = rng.uniform() * 100.0;
              break;
            case Shape::LogNormal:
              v = std::exp(rng.normal(0.0, 2.0));
              break;
            case Shape::Constant:
              v = 3.7;
              break;
            case Shape::ZeroHeavy:
              v = rng.uniform() < 0.8 ? 0.0 : rng.uniform(0.5, 50.0);
              break;
          }
          samples.push_back(v);
          hist.observe(v);
        }
        const HistogramSnapshot snap = hist.snapshot();
        const std::string where = strfmt(
            "shape %d seed %llu n %zu", static_cast<int>(shape),
            static_cast<unsigned long long>(seed), n);
        ASSERT_EQ(snap.count, n) << where;
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(snap.min, sorted.front()) << where;
        EXPECT_EQ(snap.max, sorted.back()) << where;
        for (const auto& [p, got] : {std::pair{0.50, snap.p50},
                                     std::pair{0.95, snap.p95},
                                     std::pair{0.99, snap.p99}}) {
          const double idx = p * static_cast<double>(n - 1);
          const auto lo = static_cast<std::size_t>(idx);
          const std::size_t hi = std::min(lo + 1, n - 1);
          EXPECT_GE(got, sorted[lo] * (1.0 - eps)) << where << " p " << p;
          EXPECT_LE(got, sorted[hi] * (1.0 + eps)) << where << " p " << p;
        }
      }
    }
  }
}

TEST(Metrics, HistogramConcurrentObserveIsExact) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      // Small integers: every partial sum is exact in a double, so the
      // total does not depend on how the threads interleave. Thread 0
      // attaches exemplars, which is the one path that takes a lock.
      for (int i = 0; i < kPerThread; ++i) {
        const double v = static_cast<double>(1 + (i + t) % 100);
        if (t == 0) {
          hist.observe(v, static_cast<std::uint64_t>(i + 1));
        } else {
          hist.observe(v);
        }
      }
    });
  }
  // A scraper racing the writers: each snapshot's export buckets never
  // count more samples than the snapshot's count, and min <= max.
  std::atomic<bool> writers_done{false};
  std::atomic<int> torn{0};
  std::thread scraper([&] {
    while (!writers_done.load()) {
      const HistogramSnapshot s = hist.snapshot();
      std::size_t exported = 0;
      for (const std::size_t c : s.buckets) {
        exported += c;
      }
      if (exported > s.count || (s.count > 0 && s.min > s.max)) {
        torn.fetch_add(1);
      }
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  writers_done.store(true);
  scraper.join();
  EXPECT_EQ(torn.load(), 0);
  const HistogramSnapshot snap = hist.snapshot();
  const std::size_t total = static_cast<std::size_t>(kThreads) * kPerThread;
  EXPECT_EQ(hist.count(), total);
  EXPECT_EQ(snap.count, total);
  std::size_t bucket_sum = 0;
  for (const std::size_t c : snap.buckets) {
    bucket_sum += c;
  }
  EXPECT_EQ(bucket_sum, snap.count);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 100.0);
  EXPECT_EQ(snap.sum, 50.5 * static_cast<double>(total));
  EXPECT_EQ(snap.mean, 50.5);
}

TEST(Metrics, HistogramBucketIndexCoversRangeAndClamps) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-3.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_index(1e-300), 1u);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMinExponent)),
            1u);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_index(
                std::numeric_limits<double>::infinity()),
            Histogram::kBucketCount - 1);
  // Monotone in the value, and a bucket's neighbours differ by at most
  // one sub-bucket width.
  std::size_t prev = Histogram::bucket_index(1e-6);
  for (double v = 1e-6; v < 1e12; v *= 1.003) {
    const std::size_t b = Histogram::bucket_index(v);
    EXPECT_GE(b, prev) << v;
    EXPECT_LE(b, prev + 1) << v;
    prev = b;
  }
  EXPECT_LE(sizeof(Histogram), 32u * 1024u);
}

TEST(Metrics, RegistryExportsJsonAndPrometheus) {
  MetricsRegistry reg;
  reg.counter("req/total")->add(7);
  reg.gauge("queue/depth")->set(3.5);
  auto hist = reg.histogram("lat/ms");
  hist->observe(1.0);
  hist->observe(2.0);
  hist->observe(3.0);

  const std::string json = reg.to_json();
  EXPECT_NO_THROW(json::parse(json));
  EXPECT_NE(json.find("\"req/total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"queue/depth\":3.5"), std::string::npos);
  EXPECT_NE(json.find("\"lat/ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":2"), std::string::npos);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE dlsr_req_total counter"), std::string::npos);
  EXPECT_NE(prom.find("dlsr_req_total 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE dlsr_queue_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("dlsr_queue_depth 3.5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE dlsr_lat_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("dlsr_lat_ms_count 3"), std::string::npos);
  // Native histogram exposition, not a summary: no quantile labels.
  EXPECT_EQ(prom.find("quantile="), std::string::npos);
}

// Byte-exact golden for the histogram exposition: cumulative buckets over
// the shared ladder, +Inf equals the total count, _sum reconstructs from
// the mean. `histogram_quantile()` on the scrape side depends on exactly
// this shape.
TEST(Metrics, PrometheusHistogramGolden) {
  MetricsRegistry reg;
  auto hist = reg.histogram("lat/ms");
  hist->observe(1.0);
  hist->observe(2.0);
  hist->observe(3.0);
  const std::string expected =
      "# HELP dlsr_lat_ms dlsr histogram lat/ms\n"
      "# TYPE dlsr_lat_ms histogram\n"
      "dlsr_lat_ms_bucket{le=\"0.001\"} 0\n"
      "dlsr_lat_ms_bucket{le=\"0.01\"} 0\n"
      "dlsr_lat_ms_bucket{le=\"0.1\"} 0\n"
      "dlsr_lat_ms_bucket{le=\"0.5\"} 0\n"
      "dlsr_lat_ms_bucket{le=\"1\"} 1\n"
      "dlsr_lat_ms_bucket{le=\"5\"} 3\n"
      "dlsr_lat_ms_bucket{le=\"10\"} 3\n"
      "dlsr_lat_ms_bucket{le=\"50\"} 3\n"
      "dlsr_lat_ms_bucket{le=\"100\"} 3\n"
      "dlsr_lat_ms_bucket{le=\"500\"} 3\n"
      "dlsr_lat_ms_bucket{le=\"1000\"} 3\n"
      "dlsr_lat_ms_bucket{le=\"10000\"} 3\n"
      "dlsr_lat_ms_bucket{le=\"+Inf\"} 3\n"
      "dlsr_lat_ms_sum 6\n"
      "dlsr_lat_ms_count 3\n";
  EXPECT_EQ(reg.to_prometheus(), expected);
}

TEST(Metrics, GetOrCreateSharesAndMakeRebinds) {
  MetricsRegistry reg;
  auto a = reg.counter("shared");
  auto b = reg.counter("shared");
  EXPECT_EQ(a.get(), b.get());
  a->add(2);
  EXPECT_EQ(b->value(), 2u);

  auto fresh = reg.make_counter("shared");
  EXPECT_NE(fresh.get(), a.get());
  EXPECT_EQ(fresh->value(), 0u);
  // The registry now reports the fresh instrument; the old owner's handle
  // still works but is detached from the name.
  EXPECT_EQ(reg.counter("shared").get(), fresh.get());
  EXPECT_EQ(a->value(), 2u);
}

TEST(TraceSummary, ValidatorRejectsMalformedJson) {
  EXPECT_NO_THROW(json::parse("[]"));
  EXPECT_NO_THROW(json::parse("{\"a\":[1,2.5e-3,\"x\\n\",true,null]}"));
  for (const char* bad : {"", "[1,]", "{\"a\":1", "[} ", "[1] trailing"}) {
    EXPECT_THROW(json::parse(bad), Error) << bad;
    EXPECT_THROW(parse_trace_events(bad), Error) << bad;
  }
  EXPECT_THROW(parse_trace_events("{\"traceEvents\":"), Error);
  // Valid JSON of the wrong shape: a scalar top level, a non-object event,
  // a wrapper without an event array.
  EXPECT_THROW(parse_trace_events("42"), Error);
  EXPECT_THROW(parse_trace_events("[{\"name\":\"a\"},7]"), Error);
  EXPECT_THROW(parse_trace_events("{\"traceEvents\":{}}"), Error);
  EXPECT_THROW(parse_trace_events("{\"other\":[]}"), Error);

  // Containers nested inside args are skipped and bool fields ignored; the
  // scalar fields around them still land.
  const auto events = parse_trace_events(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":true,"
      "\"dur\":2,\"pid\":false,\"args\":{\"deep\":{\"x\":1},\"list\":[1],"
      "\"n\":3,\"flag\":true,\"s\":\"v\"}}]}");
  ASSERT_EQ(events.size(), 1u);
  const ParsedEvent& e = events.front();
  EXPECT_EQ(e.name, "a");
  EXPECT_EQ(e.phase, 'X');
  EXPECT_EQ(e.ts_us, 0.0);
  EXPECT_EQ(e.dur_us, 2.0);
  EXPECT_EQ(e.pid, 0);
  ASSERT_EQ(e.args.size(), 1u);
  EXPECT_EQ(e.args.front().first, "n");
  EXPECT_EQ(e.args.front().second, 3.0);
  ASSERT_EQ(e.str_args.size(), 1u);
  EXPECT_EQ(e.str_args.front().first, "s");
  EXPECT_EQ(e.str_args.front().second, "v");
}

TEST(TraceSummary, AggregatesPerCategoryAndNormalizesNames) {
  std::vector<ParsedEvent> events;
  for (int i = 0; i < 3; ++i) {
    ParsedEvent e;
    e.name = strfmt("forward/%d", i);
    e.cat = "core";
    e.phase = 'X';
    e.ts_us = i * 100.0;
    e.dur_us = 10.0;
    events.push_back(e);
  }
  ParsedEvent other;
  other.name = "allreduce";
  other.cat = "mpisim";
  other.phase = 'X';
  other.dur_us = 70.0;
  events.push_back(other);

  const Table t = trace_summary(events);
  const std::string text = t.to_string();
  // Per-step "forward/<n>" spans collapse into one family row of count 3;
  // the heavier mpisim row sorts first.
  EXPECT_NE(text.find("forward"), std::string::npos);
  EXPECT_EQ(text.find("forward/0"), std::string::npos);
  EXPECT_NE(text.find("mpisim"), std::string::npos);
  EXPECT_LT(text.find("allreduce"), text.find("forward"));
}

TEST(Pipeline, TrainStepProducesSpansAndPhaseHistograms) {
  // Fresh global registry state for the assertion below.
  MetricsRegistry::global().clear();
  TracerGuard guard;

  img::Div2kConfig data_cfg;
  data_cfg.image_size = 32;
  const img::SyntheticDiv2k dataset(data_cfg);
  core::SessionConfig cfg;
  cfg.workers = 2;
  cfg.batch_per_worker = 1;
  cfg.lr_patch = 12;
  core::TrainingSession session(
      dataset,
      [] {
        Rng rng(3);
        return std::make_unique<models::Edsr>(models::EdsrConfig::tiny(),
                                              rng);
      },
      cfg);
  session.run_steps(3);

  const std::string json = Tracer::instance().to_chrome_trace_json();
  ASSERT_NO_THROW(json::parse(json));
  const auto events = parse_trace_events(json);
  std::set<std::string> cats;
  for (const auto& e : events) {
    cats.insert(e.cat);
  }
  // The functional training path traverses all three layers.
  EXPECT_TRUE(cats.count("core")) << json.substr(0, 400);
  EXPECT_TRUE(cats.count("hvd"));
  EXPECT_TRUE(cats.count("mpisim"));

  const std::string metrics = MetricsRegistry::global().to_json();
  ASSERT_NO_THROW(json::parse(metrics));
  for (const char* name :
       {"train/step_ms", "train/data_ms", "train/forward_ms",
        "train/backward_ms", "train/allreduce_ms", "train/optimizer_ms"}) {
    EXPECT_NE(metrics.find(strfmt("\"%s\"", name)), std::string::npos)
        << name;
  }
  const auto snap =
      MetricsRegistry::global().histogram("train/forward_ms")->snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_GT(snap.p50, 0.0);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
}

TEST(TraceSummary, CommLanesMergeByIntervalUnion) {
  // Two allreduces on different comm slots overlap [100,200) and [150,250):
  // the family row must report the covered 150 us once, not 200 us summed
  // across slots. Regression test for double-counted overlap rows.
  const auto lane = [](int slot, double ts) {
    ParsedEvent e;
    e.name = "allreduce";
    e.cat = "comm";
    e.phase = 'X';
    e.ts_us = ts;
    e.dur_us = 100.0;
    e.pid = static_cast<int>(kSimPid);
    e.tid = static_cast<int>(kCommLaneBase) + slot;
    return e;
  };
  const Table t = trace_summary({lane(0, 100.0), lane(1, 150.0)});
  const std::string text = t.to_string();
  EXPECT_NE(text.find("allreduce"), std::string::npos);
  // count 2 ops, 0.150 ms covered (not 0.200).
  EXPECT_NE(text.find("0.150"), std::string::npos) << text;
  EXPECT_EQ(text.find("0.200"), std::string::npos) << text;
}

TEST(TraceSummary, SelfTimeExcludesNestedSpans) {
  // One lane: step [0,100] contains data [10,30] which contains inner
  // [12,17]; step2 [100,150] merely touches step's end; step3 starts
  // 0.001 us before step2 ends — the %.3f export-rounding overlap that
  // must NOT count as nesting. Regression test for adjacent spans being
  // carved out of their predecessor.
  const auto span = [](const char* name, double ts, double dur) {
    ParsedEvent e;
    e.name = name;
    e.cat = "core";
    e.phase = 'X';
    e.ts_us = ts;
    e.dur_us = dur;
    e.pid = 0;
    e.tid = 1;
    return e;
  };
  const auto rows = summarize_trace(
      {span("step", 0.0, 100.0), span("data", 10.0, 20.0),
       span("inner", 12.0, 5.0), span("step2", 100.0, 50.0),
       span("step3", 149.999, 10.0)});
  const auto find = [&](const char* name) -> const TraceSummaryRow& {
    for (const auto& r : rows) {
      if (r.name == name) {
        return r;
      }
    }
    ADD_FAILURE() << "row not found: " << name;
    static TraceSummaryRow none;
    return none;
  };
  EXPECT_DOUBLE_EQ(find("step").total_us, 100.0);
  EXPECT_DOUBLE_EQ(find("step").self_us, 80.0);   // minus data's 20
  EXPECT_DOUBLE_EQ(find("data").self_us, 15.0);   // minus inner's 5
  EXPECT_DOUBLE_EQ(find("inner").self_us, 5.0);
  EXPECT_DOUBLE_EQ(find("step2").self_us, 50.0);  // adjacency != nesting
  EXPECT_DOUBLE_EQ(find("step3").self_us, 10.0);  // rounding != nesting
  double share = 0.0;
  for (const auto& r : rows) {
    share += r.share_pct;
  }
  // Self times partition covered time, so shares add to 100.
  EXPECT_NEAR(share, 100.0, 1e-9);
}

TEST(TraceSummary, JsonExportMatchesRows) {
  ParsedEvent e;
  e.name = "forward/3";
  e.cat = "sim";
  e.phase = 'X';
  e.ts_us = 5.0;
  e.dur_us = 40.0;
  const std::string json = trace_summary_json({e});
  ASSERT_NO_THROW(json::parse(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"dlsr-trace-summary-v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"forward\""), std::string::npos);
  EXPECT_NE(json.find("\"rank\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"total_us\":40.000"), std::string::npos);
  EXPECT_NE(json.find("\"self_us\":40.000"), std::string::npos);
  EXPECT_NE(json.find("\"self_total_us\":40.000"), std::string::npos);
}

TEST(Metrics, HistogramJsonExportsBucketBoundsAndCounts) {
  MetricsRegistry reg;
  auto hist = reg.histogram("lat/ms");
  hist->observe(0.4);   // (0.1, 0.5]
  hist->observe(0.5);   // inclusive upper edge, same bucket
  hist->observe(7.0);   // (5, 10]
  hist->observe(1e6);   // overflow
  const HistogramSnapshot snap = hist->snapshot();
  EXPECT_EQ(snap.buckets[3], 2u);
  EXPECT_EQ(snap.buckets[6], 1u);
  EXPECT_EQ(snap.buckets[kHistogramBucketBounds.size()], 1u);

  const std::string json = reg.to_json();
  ASSERT_NO_THROW(json::parse(json));
  // Every fixed bound appears as an "le" edge, the overflow as null, and
  // the per-bucket counts ride along.
  EXPECT_NE(json.find("\"le\":0.5,\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"le\":10,\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"le\":null,\"count\":1"), std::string::npos) << json;
  std::size_t edges = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"le\":", pos)) != std::string::npos; ++pos) {
    ++edges;
  }
  EXPECT_EQ(edges, kHistogramBucketBounds.size() + 1);
}

TEST(TraceContext, ScopedSpansChainParentageAndRestoreOnExit) {
  TracerGuard guard;
  const TraceContext root{new_trace_id(), new_span_id(), 0};
  {
    ScopedContext install(root);
    ScopedSpan outer("test", "outer");
    const TraceContext octx = outer.context();
    EXPECT_EQ(octx.trace_id, root.trace_id);
    EXPECT_EQ(octx.parent_span_id, root.span_id);
    EXPECT_NE(octx.span_id, 0u);
    {
      ScopedSpan inner("test", "inner");
      const TraceContext ictx = inner.context();
      EXPECT_EQ(ictx.trace_id, root.trace_id);
      EXPECT_EQ(ictx.parent_span_id, octx.span_id);
      // The inner span is the thread's current context while open.
      EXPECT_EQ(current_context().span_id, ictx.span_id);
    }
    // ...and closing it restores the outer span as current.
    EXPECT_EQ(current_context().span_id, octx.span_id);
  }
  // ScopedContext restored the (empty) pre-install context.
  EXPECT_FALSE(current_context().valid());
  // A span opened outside any trace stays context-free but still records.
  ScopedSpan orphan("test", "orphan");
  EXPECT_TRUE(orphan.active());
  EXPECT_FALSE(orphan.context().valid());
}

TEST(TraceContext, SpanArgsCarryNumericContextIds) {
  TracerGuard guard;
  const TraceContext root{new_trace_id(), new_span_id(), 0};
  std::uint64_t work_span = 0;
  {
    ScopedContext install(root);
    ScopedSpan span("test", "work");
    span.set_args("{\"bytes\":7}");
    work_span = span.context().span_id;
  }
  const std::string json = Tracer::instance().to_chrome_trace_json();
  ASSERT_NO_THROW(json::parse(json));
  const auto events = parse_trace_events(json);
  const auto it = std::find_if(
      events.begin(), events.end(),
      [](const ParsedEvent& e) { return e.name == "work"; });
  ASSERT_NE(it, events.end());
  // The caller's args survive and the context ids are spliced in as
  // numbers, so the trace parser surfaces them via arg().
  EXPECT_DOUBLE_EQ(it->arg("bytes", 0.0), 7.0);
  EXPECT_DOUBLE_EQ(it->arg("trace_id", 0.0),
                   static_cast<double>(root.trace_id));
  EXPECT_DOUBLE_EQ(it->arg("span_id", 0.0), static_cast<double>(work_span));
  EXPECT_DOUBLE_EQ(it->arg("parent_span_id", 0.0),
                   static_cast<double>(root.span_id));
}

TEST(TraceContext, FlowEventsExportArrowsThatJoinOnCatAndId) {
  TracerGuard guard;
  Tracer& tracer = Tracer::instance();
  const std::uint64_t id = new_trace_id();
  tracer.complete("producer", "test", 10.0, 5.0);
  tracer.flow(EventPhase::FlowStart, id, "hop", "test", 12.0);
  tracer.complete("consumer", "test", 20.0, 5.0);
  tracer.flow(EventPhase::FlowFinish, id, "hop", "test", 21.0);
  const std::string json = tracer.to_chrome_trace_json();
  ASSERT_NO_THROW(json::parse(json));
  // Chrome flow-event grammar: phases s/f joined by a top-level id, each
  // endpoint bound to its enclosing slice ("bp":"e").
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos) << json;
  const auto events = parse_trace_events(json);
  std::size_t starts = 0, finishes = 0;
  for (const auto& e : events) {
    starts += e.phase == 's' && e.flow_id == id;
    finishes += e.phase == 'f' && e.flow_id == id;
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(finishes, 1u);
}

TEST(TraceStore, TailSamplingKeepsErrorsTopKSlowestAndSampled) {
  TraceStore::Config cfg;
  cfg.max_retained = 4;
  cfg.top_k_slow = 2;
  cfg.sample_every = 4;
  TraceStore store;
  store.enable(cfg);
  // 1, 2: fewer than top_k retained traces are at least as slow → "slow".
  store.finish(1, 10.0, "ok", false);
  store.finish(2, 5.0, "ok", false);
  // 3: two slower traces retained, finished_=3 not on the sample grid →
  // dropped entirely.
  store.finish(3, 1.0, "ok", false);
  // 4: also unremarkable, but finished_=4 hits the 1-in-4 sample → kept.
  store.finish(4, 2.0, "ok", false);
  // 5: deadline miss → always kept, regardless of duration.
  store.finish(5, 0.5, "timeout", true);
  // 6: new slowest → "slow"; retention now exceeds max_retained=4 and the
  // eviction pass drops the sampled trace (id 4) first.
  store.finish(6, 20.0, "ok", false);

  EXPECT_EQ(store.finished_count(), 6u);
  EXPECT_EQ(store.retained_count(), 4u);
  EXPECT_FALSE(store.lookup(3, nullptr));
  EXPECT_FALSE(store.lookup(4, nullptr));  // sampled → first evicted
  StoredTrace err;
  ASSERT_TRUE(store.lookup(5, &err));
  EXPECT_EQ(err.reason, "error");
  EXPECT_EQ(err.status, "timeout");

  // snapshot() is slowest-first.
  const auto snap = store.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].trace_id, 6u);
  EXPECT_EQ(snap[1].trace_id, 1u);
  EXPECT_EQ(snap[2].trace_id, 2u);
  EXPECT_EQ(snap[3].trace_id, 5u);
  EXPECT_EQ(snap[0].reason, "slow");

  const std::string json = store.to_json();
  ASSERT_NO_THROW(json::parse(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"dlsr-tracez-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"finished\":6"), std::string::npos);
  EXPECT_NE(json.find("\"retained\":4"), std::string::npos);
  EXPECT_EQ(store.trace_json(999), "");  // unknown id → empty
  store.disable();
}

TEST(TraceStore, RecordedSpansSurviveIntoTraceJson) {
  TraceStore store;
  store.enable(TraceStore::Config{});
  const TraceContext root{42, 100, 0};
  const TraceContext child{42, 101, 100};
  store.record_span(root, "request", "serve", 0.0, 900.0);
  store.record_span(child, "forward", "serve", 100.0, 500.0);
  EXPECT_EQ(store.pending_count(), 1u);
  store.finish(42, 0.9, "ok", false);
  EXPECT_EQ(store.pending_count(), 0u);

  StoredTrace t;
  ASSERT_TRUE(store.lookup(42, &t));
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].name, "request");
  EXPECT_EQ(t.spans[1].parent_span_id, 100u);

  const std::string json = store.trace_json(42);
  ASSERT_NO_THROW(json::parse(json)) << json;
  EXPECT_NE(json.find("\"name\":\"forward\""), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":101"), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\":100"), std::string::npos);

  // Spans with no trace id never enter the store.
  store.record_span(TraceContext{}, "noise", "serve", 0.0, 1.0);
  EXPECT_EQ(store.pending_count(), 0u);
  // discard() forgets a pending trace without retention.
  store.record_span(TraceContext{7, 8, 0}, "hit", "serve", 0.0, 1.0);
  store.discard(7);
  EXPECT_EQ(store.pending_count(), 0u);
  EXPECT_FALSE(store.lookup(7, nullptr));
  store.disable();
}

TEST(TraceStore, ScopedSpansMirrorIntoGlobalStoreWhenEnabled) {
  TracerGuard guard;
  TraceStore& store = TraceStore::global();
  store.enable();
  const TraceContext root{new_trace_id(), new_span_id(), 0};
  {
    ScopedContext install(root);
    ScopedSpan span("serve", "tile");
  }
  store.finish(root.trace_id, 1.0, "ok", false);
  StoredTrace t;
  ASSERT_TRUE(store.lookup(root.trace_id, &t));
  ASSERT_EQ(t.spans.size(), 1u);
  EXPECT_EQ(t.spans[0].name, "tile");
  EXPECT_EQ(t.spans[0].parent_span_id, root.span_id);
  store.disable();
  // Disabled store: spans pass through without being mirrored.
  {
    ScopedContext install(root);
    ScopedSpan span("serve", "after");
  }
  EXPECT_EQ(store.pending_count(), 0u);
}

TEST(Metrics, HistogramExemplarsLinkBucketsToTraces) {
  MetricsRegistry reg;
  auto hist = reg.histogram("lat/ms");
  hist->observe(0.4, /*exemplar_trace_id=*/77);  // bucket (0.1, 0.5]
  hist->observe(7.0, /*exemplar_trace_id=*/91);  // bucket (5, 10]
  hist->observe(0.3);  // no trace id → exemplar for the bucket unchanged
  const HistogramSnapshot snap = hist->snapshot();
  EXPECT_TRUE(snap.exemplars[3].valid());
  EXPECT_EQ(snap.exemplars[3].trace_id, 77u);
  EXPECT_DOUBLE_EQ(snap.exemplars[3].value, 0.4);
  EXPECT_TRUE(snap.exemplars[6].valid());
  EXPECT_EQ(snap.exemplars[6].trace_id, 91u);
  EXPECT_FALSE(snap.exemplars[0].valid());

  // OpenMetrics exposition: exemplar rides the matching bucket line.
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# {trace_id=\"77\"} 0.4"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# {trace_id=\"91\"} 7"), std::string::npos) << prom;

  const std::string json = reg.to_json();
  ASSERT_NO_THROW(json::parse(json));
  EXPECT_NE(json.find("\"exemplar\":{\"trace_id\":77,\"value\":0.4}"),
            std::string::npos)
      << json;
}

/// RAII guard for flight-recorder tests: disable on exit so the log sink
/// and crash handlers never leak into other tests.
struct RecorderGuard {
  explicit RecorderGuard(FlightRecorder::Config config) {
    config.install_crash_handlers = false;  // keep gtest's death handling
    FlightRecorder::instance().enable(config);
  }
  ~RecorderGuard() { FlightRecorder::instance().disable(); }
};

TEST(FlightRecorder, RingKeepsNewestEntriesAcrossOverwrite) {
  FlightRecorder::Config cfg;
  cfg.capacity = 8;
  cfg.dump_path = testing::TempDir() + "fr_ring.dump";
  cfg.capture_log = false;
  RecorderGuard guard(cfg);
  auto& fr = FlightRecorder::instance();
  for (int i = 0; i < 30; ++i) {
    fr.recordf("step", "marker %d", i);
  }
  EXPECT_EQ(fr.recorded_count(), 30u);
  const std::string dump = fr.dump_to_string();
  // The ring holds the last 8 entries: 29 survives, 0..21 are gone.
  EXPECT_NE(dump.find("marker 29"), std::string::npos) << dump;
  EXPECT_NE(dump.find("marker 22"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("marker 21"), std::string::npos) << dump;
  EXPECT_NE(dump.find("30 events recorded"), std::string::npos) << dump;
}

TEST(FlightRecorder, RoutesWarnAndErrorLogLinesIntoRing) {
  FlightRecorder::Config cfg;
  cfg.capacity = 64;
  cfg.dump_path = testing::TempDir() + "fr_log.dump";
  RecorderGuard guard(cfg);
  log_info("info stays out of the ring");
  log_warn("warn lands in the ring");
  log_error("error lands in the ring");
  const std::string dump = FlightRecorder::instance().dump_to_string();
  EXPECT_EQ(dump.find("info stays"), std::string::npos) << dump;
  EXPECT_NE(dump.find("[warn] warn lands in the ring"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("[error] error lands in the ring"), std::string::npos)
      << dump;
}

TEST(FlightRecorder, ConcurrentLoggersAndRecordersDoNotDeadlock) {
  // The log sink runs outside the stderr mutex, so threads that log (taking
  // the log mutex, then the recorder's atomics) and threads that record
  // directly can never deadlock; all lines land in the ring. The threshold
  // must pass the warn lines: dropped messages never reach the sink.
  const LogLevel prev = log_level();
  set_log_level(LogLevel::Warn);
  FlightRecorder::Config cfg;
  cfg.capacity = 4096;
  cfg.dump_path = testing::TempDir() + "fr_mt.dump";
  RecorderGuard guard(cfg);
  auto& fr = FlightRecorder::instance();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fr, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0) {
          log_warn(strfmt("logger %d line %d", t, i));
        } else {
          fr.recordf("span", "recorder %d line %d", t, i);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  set_log_level(prev);
  EXPECT_EQ(fr.recorded_count(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  const std::string dump = fr.dump_to_string();
  EXPECT_NE(dump.find("logger 0 line 199"), std::string::npos);
  EXPECT_NE(dump.find("recorder 1 line 199"), std::string::npos);
}

TEST(FlightRecorder, DumpReconstructsActiveSpanStackPerThread) {
  TracerGuard tracer_guard;  // span ring entries require a live tracer
  FlightRecorder::Config cfg;
  cfg.capacity = 256;
  cfg.dump_path = testing::TempDir() + "fr_spans.dump";
  cfg.capture_log = false;
  cfg.track_spans = true;
  RecorderGuard guard(cfg);
  auto& fr = FlightRecorder::instance();
  {
    ScopedSpan outer("serve", "request");
    ScopedSpan inner("serve", "forward");
    // Both spans are open: the dump replays the span+/span- ring entries
    // and prints this thread's live stack, outermost first.
    const std::string dump = fr.dump_to_string();
    EXPECT_NE(dump.find("# active spans"), std::string::npos) << dump;
    const std::size_t request_pos = dump.find("request");
    const std::size_t forward_pos = dump.find("forward");
    ASSERT_NE(request_pos, std::string::npos) << dump;
    ASSERT_NE(forward_pos, std::string::npos) << dump;
    EXPECT_LT(request_pos, forward_pos);
    EXPECT_NE(dump.find("[span+]"), std::string::npos) << dump;
  }
  // Closed spans leave no active stack, only the historical ring entries.
  const std::string dump = fr.dump_to_string();
  EXPECT_EQ(dump.find("# active spans"), std::string::npos) << dump;
  EXPECT_NE(dump.find("[span-]"), std::string::npos) << dump;
}

TEST(FlightRecorder, DumpListsInflightTraceIds) {
  FlightRecorder::Config cfg;
  cfg.capacity = 64;
  cfg.dump_path = testing::TempDir() + "fr_inflight.dump";
  cfg.capture_log = false;
  RecorderGuard guard(cfg);
  auto& fr = FlightRecorder::instance();
  EXPECT_NE(fr.dump_to_string().find("# in-flight traces: none"),
            std::string::npos);
  fr.note_inflight_trace(4242);
  fr.note_inflight_trace(4343);
  EXPECT_EQ(fr.inflight_trace_count(), 2u);
  const std::string dump = fr.dump_to_string();
  EXPECT_NE(dump.find("trace_id=4242"), std::string::npos) << dump;
  EXPECT_NE(dump.find("trace_id=4343"), std::string::npos) << dump;
  fr.clear_inflight_trace(4242);
  fr.clear_inflight_trace(4343);
  EXPECT_EQ(fr.inflight_trace_count(), 0u);
  EXPECT_NE(fr.dump_to_string().find("# in-flight traces: none"),
            std::string::npos);
}

TEST(FlightRecorder, WatchdogDumpsOncePerStallEpisodeAndRearms) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::Off);  // silence the expected stall error line
  FlightRecorder::Config cfg;
  cfg.capacity = 64;
  cfg.dump_path = testing::TempDir() + "fr_stall.dump";
  cfg.capture_log = false;
  RecorderGuard guard(cfg);
  std::remove(cfg.dump_path.c_str());

  std::atomic<int> fired{0};
  {
    StallWatchdog dog(/*timeout_seconds=*/0.05,
                      [&fired] { fired.fetch_add(1); });
    dog.kick();
    // First stall: no heartbeat for >> timeout. One report, not many.
    while (fired.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_EQ(dog.stall_count(), 1u);
    // A kick re-arms; a second silent stretch is a new episode.
    dog.kick();
    while (fired.load() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(dog.stall_count(), 2u);
  }
  set_log_level(prev);
  std::ifstream dump(cfg.dump_path);
  ASSERT_TRUE(dump.good()) << "watchdog did not write " << cfg.dump_path;
  std::ostringstream text;
  text << dump.rdbuf();
  EXPECT_NE(text.str().find("watchdog: no step heartbeat"),
            std::string::npos);
  std::remove(cfg.dump_path.c_str());
}

}  // namespace
}  // namespace dlsr::obs
