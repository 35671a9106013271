// Tests for dlsr::common — RNG, statistics, strings, tables, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace dlsr {
namespace {

TEST(Error, CheckThrowsWithContext) {
  try {
    DLSR_CHECK(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(DLSR_CHECK(true, "never"));
}

TEST(Error, FailAlwaysThrows) { EXPECT_THROW(DLSR_FAIL("boom"), Error); }

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a.next_u64() == b.next_u64());
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeExactly) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    s.add(rng.normal());
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.add(rng.normal(3.0, 0.5));
  }
  EXPECT_NEAR(s.mean(), 3.0, 0.02);
  EXPECT_NEAR(s.stddev(), 0.5, 0.02);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(21);
  Rng child = parent.split();
  // The child stream must not replay the parent.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (parent.next_u64() == child.next_u64());
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, FillHelpers) {
  Rng rng(23);
  std::vector<float> v(1000);
  rng.fill_uniform(v, -2.0f, 2.0f);
  for (const float x : v) {
    EXPECT_GE(x, -2.0f);
    EXPECT_LT(x, 2.0f);
  }
  rng.fill_normal(v, 1.0f, 0.1f);
  double mean = 0.0;
  for (const float x : v) {
    mean += x;
  }
  EXPECT_NEAR(mean / v.size(), 1.0, 0.02);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (const double x : xs) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  // Sample variance: sum((x-6.2)^2)/4
  double var = 0.0;
  for (const double x : xs) {
    var += (x - 6.2) * (x - 6.2);
  }
  var /= 4.0;
  EXPECT_NEAR(s.variance(), var, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(31);
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Percentile, OrderStatistics) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Percentile, Interpolates) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.35), 3.5);
}

TEST(Percentile, TotalOnDegenerateInput) {
  // Serving metrics snapshot percentiles on whatever has been recorded so
  // far; percentile() must stay total instead of throwing or emitting NaN.
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);
}

TEST(Percentile, ClampsOutOfRangeRank) {
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.5), 3.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(percentile(v, nan), 1.0);
}

TEST(Percentile, SelectionMatchesSortedReferenceBitForBit) {
  // percentile() selects instead of sorting; it must return the very bits
  // interpolation over a fully sorted copy gives, duplicates included.
  const auto sorted_reference = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    if (v.size() == 1) {
      return v.front();
    }
    const double idx = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  const auto bits = [](double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
  };
  Rng rng(20211);
  for (std::size_t n = 1; n <= 1000; ++n) {
    std::vector<double> values(n);
    // About a third of the draws repeat an earlier value.
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = i > 0 && rng.uniform() < 0.35
                      ? values[rng.uniform_index(i)]
                      : rng.normal(0.4, 0.1);
    }
    for (const double p : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
      std::vector<double> scratch = values;
      const double want = sorted_reference(values, p);
      ASSERT_EQ(bits(percentile(values, p)), bits(want))
          << "n=" << n << " p=" << p;
      ASSERT_EQ(bits(percentile_inplace(scratch, p)), bits(want))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(Strings, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strfmt("%.2f", 1.005), "1.00");
  EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1500), "1.50 KB");
  EXPECT_EQ(format_bytes(64 * 1000 * 1000), "64.00 MB");
  EXPECT_EQ(format_bytes(2500000000ull), "2.50 GB");
}

TEST(Strings, FormatTime) {
  EXPECT_EQ(format_time(1.5), "1.500 s");
  EXPECT_EQ(format_time(2.5e-3), "2.500 ms");
  EXPECT_EQ(format_time(3.5e-6), "3.500 us");
}

TEST(Strings, SplitAndTrim) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(gbps(12.5), 12.5e9);
  EXPECT_DOUBLE_EQ(microseconds(5.0), 5e-6);
  EXPECT_DOUBLE_EQ(milliseconds(3.5), 3.5e-3);
  EXPECT_DOUBLE_EQ(tflops(15.7), 15.7e12);
  EXPECT_EQ(64 * MiB, 67108864u);
}

TEST(Table, RendersAlignedRows) {
  Table t({"a", "bbbb"});
  t.add_row({"long-cell", "1"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("long-cell"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, RowWidthChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumericRowsAndCsv) {
  Table t({"label", "x", "y"});
  t.add_row_numeric("r", {1.234, 5.678}, 1);
  EXPECT_EQ(t.row_count(), 1u);
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "label,x,y\nr,1.2,5.7\n");
}


TEST(Logging, ThresholdFiltersLevels) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::Warn);
  EXPECT_EQ(log_level(), LogLevel::Warn);
  // Below-threshold calls are no-ops (no observable output handle here,
  // but they must not crash and the threshold must round-trip).
  log_debug("dropped");
  log_info("dropped");
  set_log_level(LogLevel::Off);
  log_error("also dropped");
  set_log_level(original);
}

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleThreadDegradesToSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(pool, 0, 10,
               [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  for (int round = 0; round < 5; ++round) {
    parallel_for(pool, 0, 100, [&](std::size_t) { sum.fetch_add(1); });
  }
  EXPECT_EQ(sum.load(), 500);
}

TEST(ThreadPool, OnPoolThreadIdentifiesOwningPool) {
  ThreadPool a(1);
  ThreadPool b(1);
  EXPECT_FALSE(a.on_pool_thread());
  std::atomic<bool> saw_own{false};
  std::atomic<bool> saw_other{true};
  a.submit([&] {
    saw_own = a.on_pool_thread();
    saw_other = b.on_pool_thread();  // a's worker is not b's
  });
  a.wait_idle();
  EXPECT_TRUE(saw_own.load());
  EXPECT_FALSE(saw_other.load());
}

TEST(ThreadPool, NestedParallelForFromPoolTasksCompletes) {
  // More blocking fork-join callers than workers: without the nesting
  // guard every worker would park in parallel_for waiting for chunks that
  // sit behind the other parked workers in the FIFO queue — deadlock. The
  // guard runs nested calls serially on the calling worker instead.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int t = 0; t < 6; ++t) {
    pool.submit([&] {
      parallel_for(pool, 0, 32, [&](std::size_t) { total.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(total.load(), 6 * 32);
}

TEST(ThreadPool, NestedParallelForInsideParallelForCompletes) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8 * 16);
  parallel_for(pool, 0, 8, [&](std::size_t outer) {
    parallel_for(pool, 0, 16, [&](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);  // nested range covered exactly once
  }
}

TEST(ThreadPool, ParallelForStress) {
  // Thousands of tiny fork-joins from two outside threads sharing one
  // pool. Each call's completion mutex and condition variable live on the
  // caller's stack, so a worker that touched them after the caller saw
  // its last chunk finish would be a use-after-return; the sanitizer
  // builds turn that into a hard failure. Every 5th round nests a
  // parallel_for in the body and every 7th throws from its last index.
  ThreadPool pool(4);
  constexpr int kRounds = 2500;
  std::atomic<int> wrong{0};
  auto caller = [&] {
    for (int round = 0; round < kRounds; ++round) {
      const std::size_t n = 2 + static_cast<std::size_t>(round % 7);
      const bool nest = round % 5 == 0;
      const bool throws = round % 7 == 3;
      std::vector<std::atomic<int>> hits(n);
      bool caught = false;
      try {
        parallel_for(pool, 0, n, [&](std::size_t i) {
          if (throws && i == n - 1) {
            throw std::runtime_error("stress");
          }
          if (nest) {
            parallel_for(pool, 0, 3,
                         [&](std::size_t) { hits[i].fetch_add(1); });
          } else {
            hits[i].fetch_add(1);
          }
        });
      } catch (const std::runtime_error&) {
        caught = true;
      }
      if (caught != throws) {
        wrong.fetch_add(1);
        continue;
      }
      // The throw comes from the last index of the last chunk, so every
      // other index ran exactly once (three times when nested).
      const int want = nest ? 3 : 1;
      for (std::size_t i = 0; i < n; ++i) {
        if (hits[i].load() != (throws && i == n - 1 ? 0 : want)) {
          wrong.fetch_add(1);
        }
      }
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0);
  // The pool survives: a plain call afterwards still covers its range.
  std::atomic<int> after{0};
  parallel_for(pool, 0, 64, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

}  // namespace
}  // namespace dlsr
