// Tests for the live telemetry plane: TimeSeriesStore rolling-window
// queries (pinned against common/stats percentile), the HTTP server over
// real sockets, every TelemetryServer endpoint, SLO burn-rate rules firing
// under synthetic overload and surfacing at /alertz, per-rank straggler
// detection (unit + end-to-end through the simulator and `dlsr analyze`),
// and concurrent scrapes against a live training session.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/experiments.hpp"
#include "core/training_session.hpp"
#include "image/synthetic_div2k.hpp"
#include "models/edsr.hpp"
#include "obs/critical_path.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/straggler.hpp"
#include "obs/telemetry.hpp"
#include "obs/time_series.hpp"
#include "obs/trace.hpp"
#include "obs/trace_store.hpp"
#include "obs/trace_summary.hpp"

namespace dlsr::obs {
namespace {

// --- TimeSeriesStore ----------------------------------------------------

TEST(TimeSeriesStore, RollingPercentileMatchesStats) {
  TimeSeriesStore store;
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    const double v = static_cast<double>((i * 7919) % 101);
    samples.push_back(v);
    store.append("lat", 0.1 * i, v);
  }
  const double now = 0.1 * 199;
  // The whole series sits inside the window: the live rolling quantile
  // must agree exactly with the end-of-run percentile on the same samples.
  for (const double p : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(store.percentile_window("lat", p, 1e6, now),
                     percentile(samples, p));
  }
  // Half window: only the newer points count.
  const std::vector<double> tail(samples.end() - 100, samples.end());
  EXPECT_DOUBLE_EQ(store.percentile_window("lat", 0.99, 0.1 * 100, now),
                   percentile(tail, 0.99));
}

TEST(TimeSeriesStore, RingEvictsOldestAndBoundsMemory) {
  TimeSeriesConfig cfg;
  cfg.capacity_per_series = 8;
  TimeSeriesStore store(cfg);
  for (int i = 0; i < 20; ++i) {
    store.append("s", static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_EQ(store.point_count("s"), 8u);
  const auto points = store.window("s", 1e6, 19.0);
  ASSERT_EQ(points.size(), 8u);
  EXPECT_DOUBLE_EQ(points.front().value, 12.0);  // oldest survivor
  EXPECT_DOUBLE_EQ(points.back().value, 19.0);
  EXPECT_DOUBLE_EQ(store.latest("s"), 19.0);
}

TEST(TimeSeriesStore, CounterDeltaAndRate) {
  TimeSeriesStore store;
  // Cumulative counter sampled once per second, +5 per tick.
  for (int i = 0; i <= 10; ++i) {
    store.append("req", static_cast<double>(i), 5.0 * i);
  }
  // Window is (now - w, now]: t in {7,8,9,10}, so first-to-last spans 3 s.
  EXPECT_DOUBLE_EQ(store.delta("req", 4.0, 10.0), 15.0);
  EXPECT_DOUBLE_EQ(store.rate_per_s("req", 4.0, 10.0), 5.0);
  // Window with < 2 points: no rate.
  EXPECT_DOUBLE_EQ(store.delta("req", 0.5, 10.0), 0.0);
  // /seriesz payload carries all three quantiles of the same window
  // (regression: p50/p95 once read a moved-from vector and came out 0).
  const std::string json = store.to_json(1e6, 10.0);
  EXPECT_NE(json.find("\"p50\":25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\":47.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":49.5"), std::string::npos) << json;
}

TEST(TimeSeriesStore, ObserveIsGatedByEnabled) {
  TimeSeriesStore store;
  store.observe("x", 1.0);
  EXPECT_EQ(store.point_count("x"), 0u);
  store.set_enabled(true);
  store.observe("x", 1.0);
  EXPECT_EQ(store.point_count("x"), 1u);
}

// --- HTTP server over real sockets --------------------------------------

TEST(HttpServer, ServesHandlerAndCountsRequests) {
  HttpServer server("127.0.0.1", 0, [](const HttpRequest& req) {
    HttpResponse resp;
    if (req.path == "/hello") {
      resp.body = "hi " + req.query;
    } else {
      resp.status = 404;
      resp.body = "not found";
    }
    return resp;
  });
  ASSERT_GT(server.port(), 0);
  const HttpGetResult ok = http_get("127.0.0.1", server.port(),
                                    "/hello?who=world");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "hi who=world");
  const HttpGetResult missing =
      http_get("127.0.0.1", server.port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(server.request_count(), 2u);
  server.stop();
}

/// Raw-socket client for the hardening tests below: connects, sends
/// `payload` verbatim (possibly not a complete request head), and returns
/// whatever the server writes back before closing.
std::string raw_request(int port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n =
        ::send(fd, payload.data() + sent, payload.size() - sent, 0);
    if (n <= 0) {
      break;  // server already gave up on us (expected for bad requests)
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpServer, RejectsOversizedRequestLineWith400) {
  HttpServer::Options opts;
  opts.max_request_line = 128;
  HttpServer server("127.0.0.1", 0,
                    [](const HttpRequest&) { return HttpResponse{}; }, opts);
  const std::string long_path(512, 'a');
  const std::string response =
      raw_request(server.port(), "GET /" + long_path + " HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
  // A normal request on the same server still works: the bad client did
  // not wedge the accept loop.
  EXPECT_EQ(http_get("127.0.0.1", server.port(), "/ok").status, 200);
  server.stop();
}

TEST(HttpServer, TimesOutClientsThatNeverFinishTheRequestHead) {
  HttpServer::Options opts;
  opts.io_timeout_s = 0.2;  // keep the test fast
  HttpServer server("127.0.0.1", 0,
                    [](const HttpRequest&) { return HttpResponse{}; }, opts);
  // Partial head, no terminator: the read times out and the client gets a
  // 400 instead of holding the accept loop hostage.
  const auto start = std::chrono::steady_clock::now();
  const std::string response =
      raw_request(server.port(), "GET /metrics HTTP/1.0\r\n");
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
  EXPECT_NE(response.find("request timeout"), std::string::npos) << response;
  EXPECT_LT(elapsed_s, 5.0);  // bounded by io_timeout_s, not hung
  EXPECT_EQ(http_get("127.0.0.1", server.port(), "/next").status, 200);
  server.stop();
}

TEST(HttpServer, RejectsNonGetMethodsAndEmptyRequests) {
  HttpServer server("127.0.0.1", 0,
                    [](const HttpRequest&) { return HttpResponse{}; });
  const std::string post =
      raw_request(server.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos) << post;
  const std::string garbage = raw_request(server.port(), "\r\n\r\n");
  EXPECT_NE(garbage.find("400"), std::string::npos) << garbage;
  EXPECT_EQ(http_get("127.0.0.1", server.port(), "/after").status, 200);
  server.stop();
}

// --- TelemetryServer endpoints ------------------------------------------

TEST(TelemetryServer, EndpointsServeMetricsHealthAndSeries) {
  MetricsRegistry registry;
  registry.counter("test/requests")->add(42);
  TimeSeriesStore store;
  TelemetryConfig cfg;
  cfg.registry = &registry;
  cfg.store = &store;
  cfg.sample_period_s = 0.01;
  TelemetryServer telemetry(cfg);

  const HttpResponse prom = telemetry.handle({"GET", "/metrics", ""});
  EXPECT_EQ(prom.status, 200);
  EXPECT_NE(prom.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(prom.body.find("# TYPE dlsr_test_requests counter"),
            std::string::npos);
  EXPECT_NE(prom.body.find("dlsr_test_requests 42"), std::string::npos);

  const HttpResponse json = telemetry.handle({"GET", "/metrics.json", ""});
  EXPECT_EQ(json.status, 200);
  EXPECT_NO_THROW(json::parse(json.body)) << json.body;

  const HttpResponse health = telemetry.handle({"GET", "/healthz", ""});
  EXPECT_EQ(health.status, 200);
  EXPECT_NO_THROW(json::parse(health.body)) << health.body;
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"heartbeat_age_s\":null"), std::string::npos);

  const HttpResponse series =
      telemetry.handle({"GET", "/seriesz", "window=30"});
  EXPECT_EQ(series.status, 200);
  EXPECT_NO_THROW(json::parse(series.body)) << series.body;
  EXPECT_EQ(telemetry.handle({"GET", "/seriesz", "window=bogus"}).status,
            400);

  const HttpResponse alerts = telemetry.handle({"GET", "/alertz", ""});
  EXPECT_EQ(alerts.status, 200);
  EXPECT_NO_THROW(json::parse(alerts.body)) << alerts.body;

  EXPECT_EQ(telemetry.handle({"GET", "/unknown", ""}).status, 404);
  const HttpResponse index = telemetry.handle({"GET", "/", ""});
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);

  // The same endpoints over a real socket.
  const HttpGetResult wire =
      http_get("127.0.0.1", telemetry.port(), "/metrics");
  EXPECT_EQ(wire.status, 200);
  EXPECT_NE(wire.body.find("dlsr_test_requests 42"), std::string::npos);
  EXPECT_GE(telemetry.scrape_count(), 1u);
}

// The metrics → traces drill-down surface: /tracez lists retained traces
// and serves one full trace by id.
TEST(TelemetryServer, TracezServesRetainedTracesAndDrillDown) {
  TraceStore& store = TraceStore::global();
  store.enable();
  const TraceContext root{9001, 1, 0};
  store.record_span(root, "request", "serve", 0.0, 12000.0);
  store.record_span(TraceContext{9001, 2, 1}, "forward", "serve", 1000.0,
                    8000.0);
  store.finish(9001, 12.0, "ok", false);

  MetricsRegistry registry;
  TimeSeriesStore series;
  TelemetryConfig cfg;
  cfg.registry = &registry;
  cfg.store = &series;
  cfg.sample_period_s = 0.01;
  TelemetryServer telemetry(cfg);

  const HttpResponse list = telemetry.handle({"GET", "/tracez", ""});
  EXPECT_EQ(list.status, 200);
  ASSERT_NO_THROW(json::parse(list.body)) << list.body;
  EXPECT_NE(list.body.find("\"schema\":\"dlsr-tracez-v1\""),
            std::string::npos);
  EXPECT_NE(list.body.find("\"trace_id\":9001"), std::string::npos);

  const HttpResponse one =
      telemetry.handle({"GET", "/tracez", "trace_id=9001"});
  EXPECT_EQ(one.status, 200);
  ASSERT_NO_THROW(json::parse(one.body)) << one.body;
  EXPECT_NE(one.body.find("\"name\":\"forward\""), std::string::npos);
  EXPECT_NE(one.body.find("\"parent_span_id\":1"), std::string::npos);

  EXPECT_EQ(telemetry.handle({"GET", "/tracez", "trace_id=bogus"}).status,
            400);
  EXPECT_EQ(telemetry.handle({"GET", "/tracez", "trace_id=31337"}).status,
            404);

  // Over a real socket too — the endpoint the operator actually curls.
  const HttpGetResult wire =
      http_get("127.0.0.1", telemetry.port(), "/tracez?trace_id=9001");
  EXPECT_EQ(wire.status, 200);
  EXPECT_NE(wire.body.find("\"trace_id\":9001"), std::string::npos);
  // The index page advertises the endpoint.
  EXPECT_NE(telemetry.handle({"GET", "/", ""}).body.find("/tracez"),
            std::string::npos);
  store.disable();
}

TEST(TelemetryServer, SamplerMirrorsRegistryIntoStore) {
  MetricsRegistry registry;
  const auto counter = registry.counter("mirror/count");
  counter->add(3);
  TimeSeriesStore store;
  TelemetryConfig cfg;
  cfg.registry = &registry;
  cfg.store = &store;
  cfg.sample_period_s = 0.01;
  TelemetryServer telemetry(cfg);
  counter->add(4);
  // Two ticks are plenty; poll instead of a fixed sleep to stay fast.
  for (int i = 0; i < 200 && store.latest("mirror/count") < 7.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_DOUBLE_EQ(store.latest("mirror/count"), 7.0);
  EXPECT_LT(telemetry.sample_age_s(), 5.0);
}

// --- SLO burn-rate alerting ---------------------------------------------

TEST(SloTracker, BurnRateFiresOnlyWhenBothWindowsBurn) {
  TimeSeriesStore store;
  SloTracker slo(&store);
  BurnRateRule rule;
  rule.name = "deadline-miss";
  rule.numerator = "bad";
  rule.denominator = "total";
  rule.budget = 0.01;
  rule.fast_window_s = 10.0;
  rule.slow_window_s = 40.0;
  rule.min_events = 10.0;
  slo.add_rule(rule);

  // Healthy traffic: 100 req/s, zero misses. No alert.
  for (int t = 0; t <= 50; ++t) {
    store.append("total", static_cast<double>(t), 100.0 * t);
    store.append("bad", static_cast<double>(t), 0.0);
  }
  slo.evaluate(50.0);
  EXPECT_EQ(slo.active_count(), 0u);

  // Overload: half of all requests start missing their deadline — a 50x
  // budget burn in both windows.
  for (int t = 51; t <= 100; ++t) {
    store.append("total", static_cast<double>(t), 100.0 * t);
    store.append("bad", static_cast<double>(t), 50.0 * (t - 50));
  }
  slo.evaluate(100.0);
  ASSERT_EQ(slo.active_count(), 1u);
  const std::vector<Alert> alerts = slo.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].active);
  EXPECT_EQ(alerts[0].episodes, 1u);
  EXPECT_GT(alerts[0].value, 14.4);  // burn rate, not ratio

  // Re-evaluating while still burning is the same episode.
  slo.evaluate(100.0);
  EXPECT_EQ(slo.alerts()[0].episodes, 1u);

  // Recovery: misses stop; the fast window clears first and the alert
  // resolves even though the slow window still remembers the incident.
  for (int t = 101; t <= 120; ++t) {
    store.append("total", static_cast<double>(t), 100.0 * t);
    store.append("bad", static_cast<double>(t), 2500.0);
  }
  slo.evaluate(120.0);
  EXPECT_EQ(slo.active_count(), 0u);
  EXPECT_EQ(slo.alerts()[0].episodes, 1u);  // resolved, history kept
}

TEST(SloTracker, MinEventsGuardsIdleRuns) {
  TimeSeriesStore store;
  SloTracker slo(&store);
  BurnRateRule rule;
  rule.name = "quiet";
  rule.numerator = "bad";
  rule.denominator = "total";
  rule.min_events = 10.0;
  slo.add_rule(rule);
  // Two requests, both bad: 100 % miss ratio but far below min_events.
  store.append("total", 0.0, 0.0);
  store.append("bad", 0.0, 0.0);
  store.append("total", 1.0, 2.0);
  store.append("bad", 1.0, 2.0);
  slo.evaluate(1.0);
  EXPECT_EQ(slo.active_count(), 0u);
}

TEST(SloTracker, QuantileRuleFiresOnRollingP99) {
  TimeSeriesStore store;
  SloTracker slo(&store);
  QuantileRule rule;
  rule.name = "queue-wait-p99";
  rule.series = "wait_ms";
  rule.quantile = 0.99;
  rule.threshold = 50.0;
  rule.window_s = 100.0;
  rule.min_samples = 20;
  slo.add_rule(rule);
  for (int i = 0; i < 30; ++i) {
    store.append("wait_ms", static_cast<double>(i), 10.0);
  }
  slo.evaluate(29.0);
  EXPECT_EQ(slo.active_count(), 0u);
  for (int i = 30; i < 60; ++i) {
    store.append("wait_ms", static_cast<double>(i), 400.0);
  }
  slo.evaluate(59.0);
  ASSERT_EQ(slo.active_count(), 1u);
  EXPECT_GT(slo.alerts()[0].value, 50.0);
}

// Acceptance: an SLO alert raised under overload is visible at /alertz.
TEST(TelemetryServer, OverloadAlertAppearsAtAlertz) {
  MetricsRegistry registry;
  TimeSeriesStore store;
  TelemetryConfig cfg;
  cfg.registry = &registry;
  cfg.store = &store;
  cfg.sample_period_s = 0.01;
  TelemetryServer telemetry(cfg);
  telemetry.slo().install_serve_rules(/*deadline_budget=*/0.01,
                                      /*queue_wait_p99_ms=*/100.0,
                                      /*fast_window_s=*/5.0,
                                      /*slow_window_s=*/20.0);
  // Synthetic overload on the serve series the rules watch: half of all
  // requests time out.
  const double now = store.now_s();
  for (int t = 0; t <= 25; ++t) {
    const double at = now + 0.001 * t;  // all inside both windows
    store.append("serve/requests", at, 40.0 * t);
    store.append("serve/timed_out", at, 20.0 * t);
  }
  // The sampler tick evaluates the rules; poll until the alert lands.
  std::string body;
  for (int i = 0; i < 400; ++i) {
    body = telemetry.handle({"GET", "/alertz", ""}).body;
    if (body.find("\"active\":true") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_NO_THROW(json::parse(body)) << body;
  EXPECT_NE(body.find("\"rule\":\"serve-deadline-miss\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"active\":true"), std::string::npos) << body;
  // /healthz degrades while an alert is active.
  const std::string health = telemetry.handle({"GET", "/healthz", ""}).body;
  EXPECT_NE(health.find("\"status\":\"degraded\""), std::string::npos)
      << health;
}

// --- Straggler detection ------------------------------------------------

TEST(StragglerDetector, FlagsPersistentlySlowRank) {
  StragglerConfig cfg;
  StragglerDetector detector(8, cfg);
  std::vector<std::size_t> newly;
  for (int step = 0; step < 20; ++step) {
    std::vector<double> per_rank(8);
    for (std::size_t r = 0; r < 8; ++r) {
      // Deterministic per-rank spread plus a 30 % tax on rank 3; constant
      // over steps so the flag state cannot oscillate and the edge count
      // below is exact.
      const double spread =
          1.0 + 0.002 * static_cast<double>((r * 7) % 5);
      per_rank[r] = 0.1 * spread * (r == 3 ? 1.3 : 1.0);
    }
    const auto flagged = detector.record_step(per_rank);
    newly.insert(newly.end(), flagged.begin(), flagged.end());
  }
  ASSERT_EQ(newly.size(), 1u);  // one flag edge, not one per step
  EXPECT_EQ(newly[0], 3u);
  const StragglerReport report = detector.report();
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.flagged.size(), 1u);
  EXPECT_EQ(report.flagged[0].rank, 3u);
  EXPECT_GT(report.flagged[0].score, cfg.k_mad);
  EXPECT_GE(report.flagged[0].first_flagged_step, cfg.warmup_steps);
  EXPECT_NO_THROW(json::parse(report.to_json())) << report.to_json();
}

TEST(StragglerDetector, HealthyFleetStaysClean) {
  StragglerDetector detector(16, {});
  for (int step = 0; step < 40; ++step) {
    std::vector<double> per_rank(16);
    for (std::size_t r = 0; r < 16; ++r) {
      per_rank[r] =
          0.1 * (1.0 + 0.002 * static_cast<double>((step * 13 + r * 7) % 5));
    }
    EXPECT_TRUE(detector.record_step(per_rank).empty());
  }
  EXPECT_TRUE(detector.report().clean());
}

TEST(StragglerDetector, TinyFleetsNeverFlag) {
  StragglerDetector detector(2, {});
  for (int step = 0; step < 30; ++step) {
    EXPECT_TRUE(detector.record_step({0.1, 1.0}).empty());
  }
  EXPECT_TRUE(detector.report().clean());
}

/// The detector as it was first written, kept as the reference: one ring
/// per rank, and both medians through a copy and a full sort. The flat-ring
/// detector must agree with it bit for bit.
class NaiveStragglerDetector {
 public:
  NaiveStragglerDetector(std::size_t num_ranks, StragglerConfig config)
      : config_(config), ranks_(num_ranks) {
    for (std::size_t r = 0; r < num_ranks; ++r) {
      ranks_[r].info.rank = r;
    }
  }

  std::vector<std::size_t> record_step(const std::vector<double>& per_rank) {
    ++steps_;
    std::vector<double> means(ranks_.size());
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      RankState& state = ranks_[r];
      if (state.ring.empty()) {
        state.ring.resize(config_.window, 0.0);
      }
      if (state.count == config_.window) {
        state.sum -= state.ring[state.head];
      } else {
        ++state.count;
      }
      state.ring[state.head] = per_rank[r];
      state.sum += per_rank[r];
      state.head = (state.head + 1) % config_.window;
      means[r] = state.sum / static_cast<double>(state.count);
    }
    std::vector<std::size_t> newly;
    if (steps_ < config_.warmup_steps || ranks_.size() < 3) {
      return newly;
    }
    const double med = sorted_median(means);
    std::vector<double> dev(means.size());
    for (std::size_t r = 0; r < means.size(); ++r) {
      dev[r] = std::fabs(means[r] - med);
    }
    const double mad = sorted_median(dev);
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      RankState& state = ranks_[r];
      const double excess = means[r] - med;
      const double rel_excess = med > 0.0 ? excess / med : 0.0;
      const double score = mad > 0.0 ? excess / mad : 0.0;
      if (score > config_.k_mad && rel_excess > config_.min_rel_excess) {
        ++state.streak;
        state.info.mean_s = means[r];
        state.info.median_s = med;
        state.info.mad_s = mad;
        state.info.score = score;
        ++state.info.flagged_steps;
        if (!state.flagged && state.streak >= config_.persistence) {
          state.flagged = true;
          state.info.first_flagged_step = static_cast<std::size_t>(steps_) - 1;
          newly.push_back(r);
        }
      } else {
        state.streak = 0;
        state.flagged = false;
      }
    }
    return newly;
  }

  StragglerReport report() const {
    StragglerReport out;
    out.ranks = ranks_.size();
    out.steps = steps_;
    for (const RankState& state : ranks_) {
      if (state.flagged) {
        out.flagged.push_back(state.info);
      }
    }
    std::sort(out.flagged.begin(), out.flagged.end(),
              [](const StragglerRank& a, const StragglerRank& b) {
                return a.score > b.score;
              });
    return out;
  }

 private:
  struct RankState {
    std::vector<double> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    double sum = 0.0;
    std::size_t streak = 0;
    bool flagged = false;
    StragglerRank info;
  };

  static double sorted_median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const double idx = 0.5 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  }

  StragglerConfig config_;
  std::vector<RankState> ranks_;
  std::uint64_t steps_ = 0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_report(const StragglerReport& want,
                        const StragglerReport& got) {
  EXPECT_EQ(got.ranks, want.ranks);
  EXPECT_EQ(got.steps, want.steps);
  ASSERT_EQ(got.flagged.size(), want.flagged.size());
  for (std::size_t i = 0; i < want.flagged.size(); ++i) {
    const StragglerRank& w = want.flagged[i];
    const StragglerRank& g = got.flagged[i];
    EXPECT_EQ(g.rank, w.rank);
    EXPECT_TRUE(same_bits(g.mean_s, w.mean_s)) << "rank " << w.rank;
    EXPECT_TRUE(same_bits(g.median_s, w.median_s)) << "rank " << w.rank;
    EXPECT_TRUE(same_bits(g.mad_s, w.mad_s)) << "rank " << w.rank;
    EXPECT_TRUE(same_bits(g.score, w.score)) << "rank " << w.rank;
    EXPECT_EQ(g.flagged_steps, w.flagged_steps);
    EXPECT_EQ(g.first_flagged_step, w.first_flagged_step);
  }
  EXPECT_EQ(got.to_json(), want.to_json());
}

TEST(StragglerDetector, FlatRingMatchesPerRankReferenceBitForBit) {
  // 512 ranks of lognormal jitter for 100 steps: the window wraps six
  // times, the first steps are warm-up, rank 37 is persistently slow and
  // rank 300 flaps over the threshold (slow for 20 steps, healthy for 20).
  constexpr std::size_t kRanks = 512;
  StragglerConfig small_window;
  small_window.window = 5;
  small_window.warmup_steps = 3;
  small_window.persistence = 2;
  for (const StragglerConfig& cfg : {StragglerConfig{}, small_window}) {
    StragglerDetector detector(kRanks, cfg);
    NaiveStragglerDetector reference(kRanks, cfg);
    Rng rng(7001);
    std::vector<double> per_rank(kRanks);
    std::size_t edges = 0;
    for (std::size_t step = 0; step < 100; ++step) {
      for (std::size_t r = 0; r < kRanks; ++r) {
        double t = 0.39 * std::exp(0.07 * rng.normal());
        if (r == 37) {
          t *= 1.3;
        }
        if (r == 300 && (step / 20) % 2 == 0) {
          t *= 2.0;
        }
        per_rank[r] = t;
      }
      const std::vector<std::size_t> want = reference.record_step(per_rank);
      const std::vector<std::size_t> got = detector.record_step(per_rank);
      ASSERT_EQ(got, want) << "step " << step;
      edges += got.size();
      if (step % 10 == 9) {
        expect_same_report(reference.report(), detector.report());
      }
    }
    expect_same_report(reference.report(), detector.report());
    // The stream really exercises flagging: rank 37 once, rank 300 on
    // each of its three slow spells.
    EXPECT_EQ(edges, 4u);
  }
}

// Acceptance: a rank perturbed via --perturb-rank at 128 simulated GPUs is
// flagged by the detector and named by `dlsr analyze` on the trace.
TEST(StragglerDetector, EndToEndPerturbedRankNamedByAnalyze) {
  auto& tracer = Tracer::instance();
  tracer.disable();
  tracer.reset();
  tracer.enable(/*ring_capacity=*/1 << 20);

  const core::PaperExperiment exp;
  core::TrainingJobConfig job = exp.job;
  job.perturb_rank = 17;
  job.perturb_factor = 1.3;
  const core::DistributedTrainer trainer(exp.graph, exp.perf, job);
  const core::RunResult r = trainer.run(core::BackendKind::Mpi, 32, 30);
  ASSERT_EQ(r.gpus, 128u);

  const std::string trace = tracer.to_chrome_trace_json();
  tracer.disable();
  tracer.reset();

  ASSERT_FALSE(r.straggler.clean());
  ASSERT_EQ(r.straggler.flagged.size(), 1u);
  EXPECT_EQ(r.straggler.flagged[0].rank, 17u);

  const AnalysisReport report = analyze_trace(parse_trace_events(trace));
  ASSERT_EQ(report.stragglers.size(), 1u);
  EXPECT_EQ(report.stragglers[0].rank, 17u);
  EXPECT_GT(report.stragglers[0].flags, 0u);
  EXPECT_GT(report.stragglers[0].max_score, 6.0);
  const std::string table = report.straggler_table().to_string();
  EXPECT_NE(table.find("17"), std::string::npos) << table;

  // A clean run must not invent stragglers (false-positive guard).
  tracer.enable(/*ring_capacity=*/1 << 20);
  core::TrainingJobConfig clean_job = exp.job;
  const core::DistributedTrainer clean_trainer(exp.graph, exp.perf,
                                               clean_job);
  const core::RunResult clean = clean_trainer.run(core::BackendKind::Mpi,
                                                  32, 30);
  const std::string clean_trace = tracer.to_chrome_trace_json();
  tracer.disable();
  tracer.reset();
  EXPECT_TRUE(clean.straggler.clean());
  EXPECT_TRUE(analyze_trace(parse_trace_events(clean_trace))
                  .stragglers.empty());
}

// --- Concurrent scrape under live training ------------------------------

TEST(TelemetryServer, ConcurrentScrapesDuringTraining) {
  MetricsRegistry::global().clear();
  TimeSeriesStore::global().clear();
  TelemetryConfig cfg;
  cfg.sample_period_s = 0.02;
  TelemetryServer telemetry(cfg);

  img::Div2kConfig data_cfg;
  data_cfg.image_size = 32;
  const img::SyntheticDiv2k dataset(data_cfg);
  core::SessionConfig session_cfg;
  session_cfg.workers = 2;
  session_cfg.batch_per_worker = 1;
  session_cfg.lr_patch = 12;
  core::TrainingSession session(
      dataset,
      [] {
        Rng rng(3);
        return std::make_unique<models::Edsr>(models::EdsrConfig::tiny(),
                                              rng);
      },
      session_cfg);

  std::atomic<bool> stop{false};
  std::atomic<int> bad_status{0};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 4; ++i) {
    scrapers.emplace_back([&, i] {
      const char* paths[] = {"/metrics", "/seriesz", "/healthz", "/alertz"};
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          const HttpGetResult got =
              http_get("127.0.0.1", telemetry.port(), paths[i % 4]);
          if (got.status != 200) {
            bad_status.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
          bad_status.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  session.run_steps(4);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : scrapers) {
    t.join();
  }
  EXPECT_EQ(bad_status.load(), 0);
  EXPECT_GT(telemetry.scrape_count(), 0u);
  // The per-step series the session publishes inline reached the store
  // while it was being scraped.
  EXPECT_EQ(TimeSeriesStore::global().point_count("train/step_ms"), 4u);
  const HttpResponse series = telemetry.handle({"GET", "/seriesz", ""});
  EXPECT_NE(series.body.find("train/step_ms"), std::string::npos);
  TimeSeriesStore::global().set_enabled(false);
}

}  // namespace
}  // namespace dlsr::obs
