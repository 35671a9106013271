// Tests for dlsr::serve — tiling geometry and stitching exactness, the
// micro-batcher's flush triggers, backpressure admission, the LRU result
// cache, end-to-end serving, and thread-pool fault isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "image/metrics.hpp"
#include "image/resize.hpp"
#include "models/edsr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_store.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/result_cache.hpp"
#include "serve/server.hpp"
#include "serve/tiler.hpp"

namespace dlsr::serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

Tensor random_image(std::size_t h, std::size_t w, std::uint64_t seed) {
  Rng rng(seed);
  Tensor img({1, 3, h, w});
  for (float& v : img.data()) {
    v = static_cast<float>(rng.uniform());
  }
  return img;
}

std::shared_ptr<models::Edsr> tiny_model(std::uint64_t seed = 5) {
  Rng rng(seed);
  return std::make_shared<models::Edsr>(models::EdsrConfig::tiny(), rng);
}

// --- Tiling geometry ------------------------------------------------------

TEST(Tiler, SingleTileWhenImageFits) {
  const TilePlan plan = plan_tiles(30, 40, 48, 8);
  ASSERT_EQ(plan.tiles.size(), 1u);
  EXPECT_EQ(plan.tile_h, 30u);
  EXPECT_EQ(plan.tile_w, 40u);
  EXPECT_EQ(plan.tiles[0].core_y1, 30u);
  EXPECT_EQ(plan.tiles[0].core_x1, 40u);
}

TEST(Tiler, CoresPartitionImageExactly) {
  for (const auto& [h, w] : {std::pair<std::size_t, std::size_t>{96, 96},
                            {97, 65},
                            {48, 100},
                            {129, 51}}) {
    const TilePlan plan = plan_tiles(h, w, 48, 8);
    std::vector<int> covered(h * w, 0);
    for (const TileRect& t : plan.tiles) {
      EXPECT_LE(t.in_y + plan.tile_h, h);
      EXPECT_LE(t.in_x + plan.tile_w, w);
      // Core sits inside the tile input.
      EXPECT_GE(t.core_y0, t.in_y);
      EXPECT_LE(t.core_y1, t.in_y + plan.tile_h);
      for (std::size_t y = t.core_y0; y < t.core_y1; ++y) {
        for (std::size_t x = t.core_x0; x < t.core_x1; ++x) {
          ++covered[y * w + x];
        }
      }
    }
    for (const int c : covered) {
      EXPECT_EQ(c, 1) << "cores must cover every pixel exactly once";
    }
  }
}

TEST(Tiler, InteriorCoresKeepHaloContext) {
  const TilePlan plan = plan_tiles(200, 200, 48, 8);
  for (const TileRect& t : plan.tiles) {
    if (t.core_y0 > 0) {
      EXPECT_GE(t.core_y0 - t.in_y, plan.halo);
    }
    if (t.core_y1 < plan.image_h) {
      EXPECT_GE(t.in_y + plan.tile_h - t.core_y1, plan.halo);
    }
    if (t.core_x0 > 0) {
      EXPECT_GE(t.core_x0 - t.in_x, plan.halo);
    }
    if (t.core_x1 < plan.image_w) {
      EXPECT_GE(t.in_x + plan.tile_w - t.core_x1, plan.halo);
    }
  }
}

TEST(Tiler, RejectsDegenerateTileSize) {
  EXPECT_THROW(plan_tiles(100, 100, 16, 8), Error);
}

// --- Engine vs Module forward --------------------------------------------

TEST(EdsrEngine, BitIdenticalToModuleForward) {
  auto model = tiny_model();
  const EdsrEngine engine(*model);
  const Tensor img = random_image(24, 20, 77);
  const Tensor ref = model->forward(img);
  const Tensor out = engine.infer(img);
  ASSERT_EQ(out.shape(), ref.shape());
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    ASSERT_EQ(out[i], ref[i]) << "engine diverges at element " << i;
  }
}

TEST(EdsrEngine, SingleTileUpscaleBitIdentical) {
  auto model = tiny_model();
  const EdsrEngine engine(*model);
  const Tensor img = random_image(32, 32, 3);
  const Tensor ref = model->forward(img);
  // 32x32 fits a 48-pixel tile: the tiled path must take the whole-image
  // branch and match the training forward bit for bit.
  const Tensor out = tiled_upscale(engine, img, 48, 8, 8);
  ASSERT_EQ(out.shape(), ref.shape());
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    ASSERT_EQ(out[i], ref[i]);
  }
}

TEST(EdsrEngine, MultiTileStitchingIsExactWithFullHalo) {
  auto model = tiny_model();
  const EdsrEngine engine(*model);
  const std::size_t halo = engine.receptive_radius();
  ASSERT_GE(halo, 1u);
  const Tensor img = random_image(80, 72, 9);
  const Tensor ref = model->forward(img);
  const TilePlan plan = plan_tiles(80, 72, 48, halo);
  ASSERT_GT(plan.tiles.size(), 1u) << "test must exercise multi-tile path";
  const Tensor out = tiled_upscale(engine, img, 48, halo, 4);
  ASSERT_EQ(out.shape(), ref.shape());
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    ASSERT_EQ(out[i], ref[i])
        << "halo >= receptive radius must stitch bit-exactly, element " << i;
  }
}

TEST(EdsrEngine, MultiTileStitchingPsnrEquivalentWithSmallHalo) {
  auto model = tiny_model();
  const EdsrEngine engine(*model);
  // Super-resolve a bicubic-downscaled image so both paths can be scored
  // against the same ground truth. A halo below the receptive radius leaks
  // border effects into a few core pixels; the acceptance bar is that tiled
  // serving costs at most 0.01 dB of reconstruction PSNR versus the
  // whole-image forward.
  const Tensor hr = random_image(160, 144, 13);
  const Tensor lr = img::downscale_bicubic(hr, 2);
  const Tensor whole = engine.infer(lr);
  const Tensor tiled = tiled_upscale(engine, lr, 48, 4, 8);
  const double psnr_whole = img::psnr(whole, hr);
  const double psnr_tiled = img::psnr(tiled, hr);
  EXPECT_GE(psnr_tiled, psnr_whole - 0.01)
      << "tiled: " << psnr_tiled << " dB vs whole: " << psnr_whole << " dB";
}

// --- Micro-batcher --------------------------------------------------------

TEST(MicroBatcher, FlushesOnSizeTrigger) {
  MicroBatcher<int> batcher({4, std::chrono::microseconds(60'000'000), 64});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(batcher.try_push(i));
  }
  const auto t0 = steady_clock::now();
  const std::vector<int> batch = batcher.pop_batch();
  const auto elapsed = steady_clock::now() - t0;
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  // A full batch must flush immediately, not wait out the delay.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(MicroBatcher, FlushesOnDelayTrigger) {
  MicroBatcher<int> batcher({8, std::chrono::microseconds(50'000), 64});
  ASSERT_TRUE(batcher.try_push(1));
  ASSERT_TRUE(batcher.try_push(2));
  const auto t0 = steady_clock::now();
  const std::vector<int> batch = batcher.pop_batch();
  const auto elapsed = steady_clock::now() - t0;
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  // The partial batch is held until the oldest job has aged max_delay.
  EXPECT_GE(elapsed, std::chrono::microseconds(25'000));
}

TEST(MicroBatcher, PushManyIsAllOrNothing) {
  MicroBatcher<int> batcher({2, std::chrono::microseconds(1000), 4});
  EXPECT_TRUE(batcher.push_many({1, 2, 3}));
  EXPECT_EQ(batcher.depth(), 3u);
  EXPECT_FALSE(batcher.push_many({4, 5})) << "5 jobs exceed capacity 4";
  EXPECT_EQ(batcher.depth(), 3u) << "failed push must not enqueue anything";
  EXPECT_TRUE(batcher.try_push(4));
  EXPECT_FALSE(batcher.try_push(5));
}

TEST(MicroBatcher, ShutdownDrainsThenReturnsEmpty) {
  MicroBatcher<int> batcher({4, std::chrono::microseconds(1000), 16});
  ASSERT_TRUE(batcher.push_many({1, 2, 3, 4, 5}));
  batcher.shutdown();
  EXPECT_FALSE(batcher.try_push(6)) << "no admission after shutdown";
  EXPECT_EQ(batcher.pop_batch().size(), 4u);
  EXPECT_EQ(batcher.pop_batch().size(), 1u);
  EXPECT_TRUE(batcher.pop_batch().empty());
}

// --- Result cache ---------------------------------------------------------

TEST(ResultCache, LruEvictionOrder) {
  ResultCache cache(2 * sizeof(float));  // room for two {1} tensors
  const CacheKey a{1, 2};
  const CacheKey b{2, 2};
  const CacheKey c{3, 2};
  cache.insert(a, Tensor::full({1}, 1.0f));
  cache.insert(b, Tensor::full({1}, 2.0f));
  // Touch A so B becomes least-recently-used, then insert C: B must go.
  Tensor out;
  ASSERT_TRUE(cache.lookup(a, &out));
  EXPECT_EQ(out[0], 1.0f);
  cache.insert(c, Tensor::full({1}, 3.0f));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(b, nullptr)) << "LRU entry must be evicted";
  EXPECT_TRUE(cache.lookup(a, nullptr));
  EXPECT_TRUE(cache.lookup(c, nullptr));
  const std::vector<CacheKey> keys = cache.keys_mru_to_lru();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].image_hash, 3u) << "last touched key must be MRU";
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.insert({1, 2}, Tensor::full({1}, 1.0f));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup({1, 2}, nullptr));
}

TEST(ResultCache, ByteBudgetEvictsUnderTightBudget) {
  // Budget fits one 16-float result plus one 4-float result, never two
  // large ones: inserting a second large entry must evict the first.
  ResultCache cache(20 * sizeof(float));
  const CacheKey big1{1, 2};
  const CacheKey big2{2, 2};
  const CacheKey small{3, 2};
  cache.insert(big1, Tensor::full({16}, 1.0f));
  cache.insert(small, Tensor::full({4}, 3.0f));
  EXPECT_EQ(cache.size_bytes(), 20 * sizeof(float));
  cache.insert(big2, Tensor::full({16}, 2.0f));
  EXPECT_FALSE(cache.lookup(big1, nullptr)) << "LRU large entry evicted";
  EXPECT_TRUE(cache.lookup(big2, nullptr));
  EXPECT_LE(cache.size_bytes(), cache.capacity_bytes());

  // An entry larger than the whole budget is never admitted (and never
  // flushes the resident working set).
  cache.insert({4, 2}, Tensor::full({64}, 4.0f));
  EXPECT_FALSE(cache.lookup({4, 2}, nullptr));
  EXPECT_TRUE(cache.lookup(big2, nullptr));
}

TEST(ResultCache, HashDistinguishesContentAndShape) {
  const Tensor a = random_image(8, 8, 1);
  Tensor b = a;
  b[7] += 1e-3f;
  EXPECT_NE(hash_tensor(a), hash_tensor(b));
  EXPECT_EQ(hash_tensor(a), hash_tensor(a));
  const Tensor flat = a.reshaped({1, 3, 64, 1});
  EXPECT_NE(hash_tensor(a), hash_tensor(flat));
}

// --- Server ---------------------------------------------------------------

TEST(SrServer, ServesMatchTiledUpscaleBitExactly) {
  auto model = tiny_model();
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  SrServer server(model, cfg);
  const EdsrEngine& engine = server.engine();
  const Tensor img = random_image(80, 64, 21);
  const Tensor ref = tiled_upscale(engine, img, cfg.tile_size,
                                   server.config().halo, cfg.max_batch);
  const ServeResult result = server.upscale(img);
  ASSERT_EQ(result.status, ServeStatus::Ok);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_GT(result.latency_seconds, 0.0);
  ASSERT_EQ(result.image.shape(), ref.shape());
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    ASSERT_EQ(result.image[i], ref[i]);
  }
}

TEST(SrServer, SecondIdenticalRequestHitsCache) {
  auto model = tiny_model();
  ServeConfig cfg;
  cfg.workers = 1;
  SrServer server(model, cfg);
  const Tensor img = random_image(40, 40, 31);
  const ServeResult first = server.upscale(img);
  ASSERT_EQ(first.status, ServeStatus::Ok);
  const ServeResult second = server.upscale(img);
  ASSERT_EQ(second.status, ServeStatus::Ok);
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.image.shape(), first.image.shape());
  for (std::size_t i = 0; i < first.image.numel(); ++i) {
    ASSERT_EQ(second.image[i], first.image[i]);
  }
  const MetricsSnapshot snap = server.metrics_snapshot();
  EXPECT_EQ(snap.requests, 2u);
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.rejected, 0u);
}

TEST(SrServer, RejectsPastHighWaterMark) {
  auto model = tiny_model();
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 2;
  // 96x96 at tile 48 / halo 8 decomposes into 9 tiles; a high-water mark of
  // 8 cannot admit the request regardless of queue state.
  cfg.queue_high_water = 8;
  SrServer server(model, cfg);
  const ServeResult result = server.upscale(random_image(96, 96, 41));
  EXPECT_EQ(result.status, ServeStatus::Rejected);
  EXPECT_TRUE(result.image.numel() == 0);
  EXPECT_NE(result.error.find("high-water"), std::string::npos);
  EXPECT_EQ(server.metrics_snapshot().rejected, 1u);
}

TEST(SrServer, ExpiredDeadlineTimesOutInsteadOfComputing) {
  auto model = tiny_model();
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 2;
  SrServer server(model, cfg);
  // Occupy the single worker with a large request, then submit a request
  // whose deadline expires while it waits behind it in the queue.
  std::future<ServeResult> big = server.submit(random_image(96, 96, 51));
  std::this_thread::sleep_for(milliseconds(20));
  std::future<ServeResult> late =
      server.submit(random_image(32, 32, 52), milliseconds(1));
  const ServeResult result = late.get();
  EXPECT_EQ(result.status, ServeStatus::TimedOut);
  EXPECT_EQ(big.get().status, ServeStatus::Ok);
  EXPECT_EQ(server.metrics_snapshot().timed_out, 1u);
}

TEST(SrServer, MalformedImageIsRejectedNotThrown) {
  auto model = tiny_model();
  SrServer server(model, ServeConfig{});
  const ServeResult result = server.upscale(Tensor({2, 5}));
  EXPECT_EQ(result.status, ServeStatus::Rejected);
  EXPECT_NE(result.error.find("expected"), std::string::npos);
}

TEST(SrServer, ConcurrentMixedSizeRequestsAllComplete) {
  auto model = tiny_model();
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 8;
  SrServer server(model, cfg);
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t side = 32 + 8 * (i % 3);
    futures.push_back(server.submit(random_image(side, side, 100 + i)));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, ServeStatus::Ok);
  }
  const MetricsSnapshot snap = server.metrics_snapshot();
  EXPECT_EQ(snap.completed, 8u);
  EXPECT_GE(snap.batches, 1u);
  EXPECT_EQ(snap.tiles, 8u) << "each image here is single-tile";
}

// Acceptance: the whole metrics → traces drill-down loop. Every served
// request carries a retrievable causal trace whose spans parent under the
// request root and cover (almost) all of the observed latency, and the
// latency histogram's exemplars name trace ids that are retained in the
// store — so "the slow bucket" leads to an actual trace.
TEST(SrServer, CausalTraceDrillDownFromMetricsToSpans) {
  auto& tracer = obs::Tracer::instance();
  tracer.disable();
  tracer.reset();
  tracer.enable(/*ring_capacity=*/1 << 18);
  obs::MetricsRegistry::global().clear();
  obs::TraceStore::global().enable();
  {
    auto model = tiny_model();
    ServeConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    SrServer server(model, cfg);
    std::vector<ServeResult> results;
    for (std::size_t i = 0; i < 6; ++i) {
      // Distinct sizes/seeds: no cache hits, and some multi-tile requests.
      const std::size_t side = 40 + 8 * (i % 3);
      results.push_back(server.upscale(random_image(side, side, 700 + i)));
    }
    std::set<std::uint64_t> ids;
    for (const ServeResult& r : results) {
      ASSERT_EQ(r.status, ServeStatus::Ok);
      EXPECT_NE(r.trace_id, 0u);
      ids.insert(r.trace_id);
    }
    EXPECT_EQ(ids.size(), results.size()) << "trace ids must be distinct";

    // Drill down into the slowest request by the id the caller got back.
    const auto slowest = std::max_element(
        results.begin(), results.end(),
        [](const ServeResult& a, const ServeResult& b) {
          return a.latency_seconds < b.latency_seconds;
        });
    obs::StoredTrace t;
    ASSERT_TRUE(obs::TraceStore::global().lookup(slowest->trace_id, &t));
    EXPECT_EQ(t.status, "ok");
    std::set<std::string> names;
    for (const obs::StoredSpan& s : t.spans) {
      names.insert(s.name);
    }
    for (const char* expected : {"request", "submit", "queue", "respond"}) {
      EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
    }
    // Parentage: one root ("request", no parent); submit/queue/respond all
    // parent directly under it — the queue and respond hops crossed the
    // micro-batcher and the thread pool and still joined the chain.
    const auto root = std::find_if(
        t.spans.begin(), t.spans.end(),
        [](const obs::StoredSpan& s) { return s.name == "request"; });
    ASSERT_NE(root, t.spans.end());
    EXPECT_EQ(root->parent_span_id, 0u);
    for (const obs::StoredSpan& s : t.spans) {
      if (s.name == "submit" || s.name == "queue" || s.name == "respond") {
        EXPECT_EQ(s.parent_span_id, root->span_id) << s.name;
      }
    }
    // The root span covers at least 95 % of the latency the caller saw.
    EXPECT_GE(root->dur_us, 0.95 * slowest->latency_seconds * 1e6);

    // Exemplars on the serve latency histogram point at retained traces.
    const obs::HistogramSnapshot snap = obs::MetricsRegistry::global()
                                            .histogram("serve/latency_ms")
                                            ->snapshot();
    std::size_t exemplars = 0;
    for (const obs::Exemplar& e : snap.exemplars) {
      if (!e.valid()) {
        continue;
      }
      ++exemplars;
      EXPECT_TRUE(ids.count(e.trace_id))
          << "exemplar names a trace no request returned";
      EXPECT_TRUE(obs::TraceStore::global().lookup(e.trace_id, nullptr))
          << "exemplar trace_id " << e.trace_id << " not retrievable";
    }
    EXPECT_GT(exemplars, 0u);
    // In particular the top occupied latency bucket carries one: the
    // "why is p99 slow" entry point.
    for (std::size_t b = snap.buckets.size(); b-- > 0;) {
      if (snap.buckets[b] > 0) {
        EXPECT_TRUE(snap.exemplars[b].valid());
        break;
      }
    }
  }
  obs::TraceStore::global().disable();
  tracer.disable();
  tracer.reset();
}

// Queue-handoff parentage in isolation: a context installed on one side of
// the micro-batcher is adopted by a pool worker on the other side, and the
// span opened there parents under the producer's span.
TEST(MicroBatcher, ContextHandoffAcrossPoolPreservesParentage) {
  auto& tracer = obs::Tracer::instance();
  tracer.disable();
  tracer.reset();
  tracer.enable();
  {
    const obs::TraceContext root{obs::new_trace_id(), obs::new_span_id(), 0};
    struct Job {
      obs::TraceContext ctx;
    };
    MicroBatcher<Job> batcher({1, std::chrono::microseconds(1000), 4});
    {
      obs::ScopedContext install(root);
      ASSERT_TRUE(batcher.try_push(Job{obs::current_context()}));
    }
    const std::vector<Job> batch = batcher.pop_batch();
    ASSERT_EQ(batch.size(), 1u);
    ThreadPool pool(1);
    obs::TraceContext consumer_ctx;
    pool.submit([&] {
      obs::ScopedContext adopt(batch[0].ctx);
      obs::ScopedSpan span("test", "consume");
      consumer_ctx = span.context();
    });
    pool.wait_idle();
    EXPECT_EQ(consumer_ctx.trace_id, root.trace_id);
    EXPECT_EQ(consumer_ctx.parent_span_id, root.span_id);
  }
  tracer.disable();
  tracer.reset();
}

// --- Metrics --------------------------------------------------------------

TEST(ServerMetrics, SnapshotAndJson) {
  ServerMetrics metrics(4);
  metrics.on_request();
  metrics.on_request();
  metrics.on_batch(3);
  metrics.on_complete(0.010);
  metrics.on_complete(0.030);
  metrics.on_queue_depth(5);
  metrics.on_queue_depth(2);
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.requests, 2u);
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.queue_depth, 2u);
  EXPECT_EQ(snap.queue_peak, 5u);
  EXPECT_DOUBLE_EQ(snap.mean_batch, 3.0);
  // Bucketed percentile: between the two order statistics 10 and 30 ms,
  // widened by the histogram's stated relative error.
  const double eps = obs::Histogram::kRelativeError;
  EXPECT_GE(snap.latency_p50_ms, 10.0 * (1.0 - eps));
  EXPECT_LE(snap.latency_p50_ms, 30.0 * (1.0 + eps));
  EXPECT_NEAR(snap.latency_max_ms, 30.0, 1e-9);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"requests\":2"), std::string::npos);
  EXPECT_NE(json.find("\"batch_hist\":[0,0,1,0]"), std::string::npos);
}

TEST(ServerMetrics, EmptySnapshotHasNoNan) {
  const MetricsSnapshot snap = ServerMetrics(2).snapshot();
  EXPECT_EQ(snap.latency_p50_ms, 0.0);
  EXPECT_EQ(snap.latency_p99_ms, 0.0);
  EXPECT_EQ(snap.mean_batch, 0.0);
}

// --- Thread-pool fault isolation -----------------------------------------

TEST(ThreadPool, TaskExceptionDoesNotKillWorkers) {
  ThreadPool pool(2);
  for (int i = 0; i < 4; ++i) {
    pool.submit([] { throw Error("task failure"); });
  }
  pool.wait_idle();
  // Every worker must still be alive and serving.
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ParallelForRethrowsBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 0, 16,
                   [](std::size_t i) {
                     if (i == 7) {
                       throw Error("body failure");
                     }
                   }),
      Error);
  // The pool survives and later work still runs.
  std::atomic<int> ran{0};
  parallel_for(pool, 0, 16, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace dlsr::serve
