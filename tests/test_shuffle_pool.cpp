// Tests for pixel shuffle / unshuffle.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/pixel_shuffle.hpp"
#include "tensor/tensor_ops.hpp"

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

TEST(PixelShuffle, KnownLayout) {
  // C=4, r=2 -> one output channel; input channel c*4 + dy*2 + dx maps to
  // offset (dy, dx) — the PyTorch convention.
  Tensor in({1, 4, 1, 1}, {10, 20, 30, 40});
  const Tensor out = pixel_shuffle(in, 2);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_EQ(out.at4(0, 0, 0, 0), 10.0f);
  EXPECT_EQ(out.at4(0, 0, 0, 1), 20.0f);
  EXPECT_EQ(out.at4(0, 0, 1, 0), 30.0f);
  EXPECT_EQ(out.at4(0, 0, 1, 1), 40.0f);
}

TEST(PixelShuffle, ShapeTransform) {
  const Tensor in = random_tensor({2, 12, 4, 5}, 1);
  const Tensor out = pixel_shuffle(in, 2);
  EXPECT_EQ(out.shape(), Shape({2, 3, 8, 10}));
}

class ShuffleRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShuffleRoundTrip, UnshuffleInvertsShuffle) {
  const std::size_t r = GetParam();
  const Tensor in = random_tensor({2, 2 * r * r, 3, 4}, 7 + r);
  const Tensor round = pixel_unshuffle(pixel_shuffle(in, r), r);
  EXPECT_EQ(round.shape(), in.shape());
  EXPECT_LT(max_abs_diff(round, in), 1e-7f);
}

TEST_P(ShuffleRoundTrip, ShuffleInvertsUnshuffle) {
  const std::size_t r = GetParam();
  const Tensor in = random_tensor({1, 3, 2 * r, 3 * r}, 17 + r);
  const Tensor round = pixel_shuffle(pixel_unshuffle(in, r), r);
  EXPECT_LT(max_abs_diff(round, in), 1e-7f);
}

INSTANTIATE_TEST_SUITE_P(Factors, ShuffleRoundTrip,
                         ::testing::Values(1, 2, 3, 4));

TEST(PixelShuffle, IsPermutation) {
  // Every input element appears exactly once in the output (sum preserved,
  // multiset preserved by sorting).
  const Tensor in = random_tensor({1, 8, 2, 2}, 5);
  const Tensor out = pixel_shuffle(in, 2);
  EXPECT_NEAR(sum(in), sum(out), 1e-5);
  std::vector<float> a(in.data().begin(), in.data().end());
  std::vector<float> b(out.data().begin(), out.data().end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(PixelShuffle, Validation) {
  const Tensor in = random_tensor({1, 3, 2, 2}, 9);
  EXPECT_THROW(pixel_shuffle(in, 2), Error);  // 3 % 4 != 0
  EXPECT_THROW(pixel_unshuffle(random_tensor({1, 1, 3, 3}, 9), 2), Error);
}

}  // namespace
}  // namespace dlsr
