// Cross-cutting property tests: algebraic invariants that must hold for
// arbitrary inputs (linearity of convolution, adjointness of resampling,
// permutation-invariance of the optimizer, conservation through the
// distributed stack, the interval algebra against a brute-force sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/intervals.hpp"
#include "common/rng.hpp"
#include "image/resize.hpp"
#include "mpisim/data_allreduce.hpp"
#include "nn/optimizer.hpp"
#include "tensor/conv2d.hpp"
#include "tensor/pixel_shuffle.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/transforms.hpp"

namespace dlsr {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperty, ConvolutionIsLinearInItsInput) {
  // conv(a*x + b*y) == a*conv(x) + b*conv(y) for fixed weights, no bias.
  const std::uint64_t seed = GetParam();
  Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 4;
  const Tensor w = random_tensor(spec.weight_shape(), seed);
  const Tensor x = random_tensor({1, 3, 7, 7}, seed + 1);
  const Tensor y = random_tensor({1, 3, 7, 7}, seed + 2);
  const float a = 0.7f;
  const float b = -1.3f;
  Tensor mix = scale(x, a);
  axpy_inplace(mix, b, y);
  const Tensor lhs = conv2d_forward(mix, w, Tensor{}, spec);
  Tensor rhs = scale(conv2d_forward(x, w, Tensor{}, spec), a);
  axpy_inplace(rhs, b, conv2d_forward(y, w, Tensor{}, spec));
  EXPECT_LT(max_abs_diff(lhs, rhs), 1e-4f);
}

TEST_P(SeededProperty, ConvolutionCommutesWithTranslation) {
  // Shift-invariance: conv(shift(x)) == shift(conv(x)) away from borders.
  const std::uint64_t seed = GetParam();
  Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 1;
  const Tensor w = random_tensor(spec.weight_shape(), seed);
  const Tensor x = random_tensor({1, 1, 10, 10}, seed + 3);
  // Shift x one pixel right.
  Tensor shifted({1, 1, 10, 10});
  for (std::size_t y = 0; y < 10; ++y) {
    for (std::size_t xx = 1; xx < 10; ++xx) {
      shifted.at4(0, 0, y, xx) = x.at4(0, 0, y, xx - 1);
    }
  }
  const Tensor a = conv2d_forward(shifted, w, Tensor{}, spec);
  const Tensor b = conv2d_forward(x, w, Tensor{}, spec);
  for (std::size_t y = 2; y < 8; ++y) {
    for (std::size_t xx = 2; xx < 8; ++xx) {
      EXPECT_NEAR(a.at4(0, 0, y, xx), b.at4(0, 0, y, xx - 1), 1e-4f);
    }
  }
}

TEST_P(SeededProperty, ConvolutionEquivariantUnderDihedral) {
  // For a 1x1 conv (isotropic), conv commutes with every D4 transform.
  const std::uint64_t seed = GetParam();
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 2;
  spec.kernel = 1;
  spec.padding = 0;
  const Tensor w = random_tensor(spec.weight_shape(), seed);
  const Tensor x = random_tensor({1, 2, 6, 6}, seed + 4);
  for (int t = 0; t < 8; ++t) {
    const Tensor lhs =
        conv2d_forward(dihedral_transform(x, t), w, Tensor{}, spec);
    const Tensor rhs =
        dihedral_transform(conv2d_forward(x, w, Tensor{}, spec), t);
    EXPECT_LT(max_abs_diff(lhs, rhs), 1e-5f) << "transform " << t;
  }
}

TEST_P(SeededProperty, ResizeIsLinear) {
  const std::uint64_t seed = GetParam();
  const Tensor x = random_tensor({1, 1, 12, 12}, seed + 5);
  const Tensor y = random_tensor({1, 1, 12, 12}, seed + 6);
  Tensor mix = scale(x, 0.25f);
  axpy_inplace(mix, 0.75f, y);
  Tensor expected = scale(img::resize_bicubic(x, 7, 9), 0.25f);
  axpy_inplace(expected, 0.75f, img::resize_bicubic(y, 7, 9));
  EXPECT_LT(max_abs_diff(img::resize_bicubic(mix, 7, 9), expected), 1e-5f);
}

TEST_P(SeededProperty, ResizeCommutesWithFlips) {
  const std::uint64_t seed = GetParam();
  const Tensor x = random_tensor({1, 3, 16, 16}, seed + 7);
  const Tensor a = img::resize_bicubic(flip_horizontal(x), 8, 8);
  const Tensor b = flip_horizontal(img::resize_bicubic(x, 8, 8));
  EXPECT_LT(max_abs_diff(a, b), 1e-5f);
}

TEST_P(SeededProperty, PixelShufflePreservesDotProducts) {
  // A permutation is orthogonal: <Px, Py> == <x, y>.
  const std::uint64_t seed = GetParam();
  const Tensor x = random_tensor({1, 8, 3, 3}, seed + 8);
  const Tensor y = random_tensor({1, 8, 3, 3}, seed + 9);
  const Tensor px = pixel_shuffle(x, 2);
  const Tensor py = pixel_shuffle(y, 2);
  double lhs = 0.0;
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    lhs += static_cast<double>(px[i]) * py[i];
    rhs += static_cast<double>(x[i]) * y[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST_P(SeededProperty, AdamIsPermutationEquivariant) {
  // Optimizing a permuted parameter vector with permuted gradients yields
  // the permuted trajectory (element-wise optimizer sanity).
  const std::uint64_t seed = GetParam();
  const std::size_t n = 32;
  Tensor w1 = random_tensor({n}, seed + 10);
  Tensor g1 = random_tensor({n}, seed + 11);
  // Permutation: reverse.
  Tensor w2({n});
  Tensor g2({n});
  for (std::size_t i = 0; i < n; ++i) {
    w2[i] = w1[n - 1 - i];
    g2[i] = g1[n - 1 - i];
  }
  nn::Adam a1({{"p", &w1, &g1}}, 0.01);
  nn::Adam a2({{"p", &w2, &g2}}, 0.01);
  for (int step = 0; step < 5; ++step) {
    a1.step();
    a2.step();
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(w1[i], w2[n - 1 - i], 1e-6f);
  }
}

TEST_P(SeededProperty, AllreduceConservesTotalSum) {
  // Sum over all ranks and elements is invariant under allreduce-average
  // scaled back by rank count.
  const std::uint64_t seed = GetParam();
  const std::size_t ranks = 4;
  const std::size_t n = 64;
  std::vector<std::vector<float>> storage(ranks);
  double before = 0.0;
  Rng rng(seed + 12);
  for (auto& buf : storage) {
    buf.resize(n);
    for (float& v : buf) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
      before += v;
    }
  }
  std::vector<std::span<float>> spans(storage.begin(), storage.end());
  mpisim::ring_allreduce_average(spans);
  double after = 0.0;
  for (const auto& buf : storage) {
    for (const float v : buf) {
      after += v;
    }
  }
  EXPECT_NEAR(after, before, 1e-3);
}

TEST_P(SeededProperty, IntervalAlgebraMatchesUnitStepSweep) {
  // Integer endpoints make a unit-step sweep an exact oracle: cell
  // [t, t + 1) is covered iff some interval has start <= t < end. Random
  // sets come unsorted, with nested, touching, zero-length and reversed
  // intervals.
  using intervals::Interval;
  constexpr int kCells = 48;
  Rng rng(GetParam() + 13);
  const auto random_set = [&] {
    std::vector<Interval> set;
    const std::size_t n = rng.uniform_index(12);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = static_cast<double>(rng.uniform_index(41));
      const double b = static_cast<double>(rng.uniform_index(41));
      set.emplace_back(a, b);
      if (rng.uniform() < 0.3) {  // starts where [a, b) ends
        set.emplace_back(b, b + static_cast<double>(rng.uniform_index(5)));
      }
    }
    return set;
  };
  const auto cells = [&](const std::vector<Interval>& set) {
    std::vector<bool> on(kCells, false);
    for (const auto& [s, e] : set) {
      for (int t = 0; t < kCells; ++t) {
        on[t] = on[t] || (s <= t && t < e);
      }
    }
    return on;
  };
  const auto count = [](const std::vector<bool>& on) {
    return static_cast<double>(std::count(on.begin(), on.end(), true));
  };
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<Interval> a = random_set();
    const std::vector<Interval> b = random_set();
    const std::vector<bool> on_a = cells(a);
    const std::vector<bool> on_b = cells(b);

    const std::vector<Interval> merged = intervals::merge(a);
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_LT(merged[i].first, merged[i].second);
      if (i > 0) {
        EXPECT_GT(merged[i].first, merged[i - 1].second);  // gap between
      }
    }
    EXPECT_EQ(cells(merged), on_a);
    EXPECT_EQ(intervals::covered(a), count(on_a));
    EXPECT_EQ(intervals::covered(merged), count(on_a));

    std::vector<bool> a_not_b = on_a;
    for (int t = 0; t < kCells; ++t) {
      a_not_b[t] = on_a[t] && !on_b[t];
    }
    EXPECT_EQ(intervals::subtract_covered(merged, intervals::merge(b)),
              count(a_not_b));

    const double lo = static_cast<double>(rng.uniform_index(41));
    const double hi = lo + static_cast<double>(rng.uniform_index(20));
    std::vector<bool> in_window = on_a;
    for (int t = 0; t < kCells; ++t) {
      in_window[t] = on_a[t] && lo <= t && t < hi;
    }
    const std::vector<Interval> clipped = intervals::clip(merged, lo, hi);
    EXPECT_EQ(cells(clipped), in_window);
    EXPECT_EQ(intervals::covered(clipped), count(in_window));
  }
  // The comm-slot overlap case trace-summary relies on.
  EXPECT_EQ(intervals::covered({{100.0, 200.0}, {150.0, 250.0}}), 150.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(11, 222, 3333, 44444, 555555));

}  // namespace
}  // namespace dlsr
