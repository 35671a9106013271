// Tests for dlsr::nn — layers, composite modules, parameter plumbing, and
// numerical gradient checks through whole modules.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv_layer.hpp"
#include "nn/mean_shift.hpp"
#include "nn/module.hpp"
#include "nn/resblock.hpp"
#include "nn/upsampler.hpp"
#include "tensor/tensor_ops.hpp"

namespace dlsr::nn {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

/// <forward(x), g> vs central differences through parameters and input.
void check_module_gradients(Module& m, Tensor input, std::uint64_t seed,
                            int param_trials = 8) {
  const Tensor probe = random_tensor(
      [&] {
        Tensor out = m.forward(input);
        return out.shape();
      }(),
      seed);
  const auto objective = [&]() {
    const Tensor out = m.forward(input);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i) {
      acc += static_cast<double>(out[i]) * static_cast<double>(probe[i]);
    }
    return acc;
  };

  m.zero_grad();
  m.forward(input);
  const Tensor grad_input = m.backward(probe);

  const float eps = 1e-2f;
  Rng pick(seed ^ 0xABCD);
  for (auto& p : m.parameters()) {
    for (int trial = 0; trial < param_trials; ++trial) {
      const std::size_t i = pick.uniform_index(p.value->numel());
      const float orig = (*p.value)[i];
      (*p.value)[i] = orig + eps;
      const double up = objective();
      (*p.value)[i] = orig - eps;
      const double down = objective();
      (*p.value)[i] = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(numeric, (*p.grad)[i],
                  3e-2 * (std::abs((*p.grad)[i]) + 1.0))
          << p.name << "[" << i << "]";
    }
  }
  for (int trial = 0; trial < param_trials; ++trial) {
    const std::size_t i = pick.uniform_index(input.numel());
    const float orig = input[i];
    input[i] = orig + eps;
    const double up = objective();
    input[i] = orig - eps;
    const double down = objective();
    input[i] = orig;
    EXPECT_NEAR((up - down) / (2 * eps), grad_input[i],
                3e-2 * (std::abs(grad_input[i]) + 1.0))
        << "input[" << i << "]";
  }
}

TEST(ReLUTest, ForwardClampsNegatives) {
  ReLU relu;
  Tensor in({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor out = relu.forward(in);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(ReLUTest, BackwardMasksGradient) {
  ReLU relu;
  Tensor in({3}, {-1.0f, 1.0f, 2.0f});
  relu.forward(in);
  Tensor g({3}, {10.0f, 20.0f, 30.0f});
  const Tensor gi = relu.backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 20.0f);
  EXPECT_EQ(gi[2], 30.0f);
}

TEST(LeakyReLUTest, NegativeSlope) {
  LeakyReLU lrelu(0.1f);
  Tensor in({2}, {-2.0f, 3.0f});
  const Tensor out = lrelu.forward(in);
  EXPECT_FLOAT_EQ(out[0], -0.2f);
  EXPECT_FLOAT_EQ(out[1], 3.0f);
  Tensor g({2}, {1.0f, 1.0f});
  const Tensor gi = lrelu.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.1f);
  EXPECT_FLOAT_EQ(gi[1], 1.0f);
}

TEST(Conv2dLayer, ParametersExposed) {
  Rng rng(1);
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 4;
  Conv2d conv(spec, rng);
  const auto params = conv.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "conv.weight");
  EXPECT_EQ(params[1].name, "conv.bias");
  EXPECT_EQ(params[0].numel(), 4u * 2 * 3 * 3);
  EXPECT_EQ(params[1].numel(), 4u);
}

TEST(Conv2dLayer, NoBiasVariant) {
  Rng rng(1);
  Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 1;
  Conv2d conv(spec, rng, /*bias=*/false);
  EXPECT_EQ(conv.parameters().size(), 1u);
}

TEST(Conv2dLayer, GradientCheck) {
  Rng rng(2);
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 3;
  Conv2d conv(spec, rng);
  check_module_gradients(conv, random_tensor({1, 2, 5, 5}, 3), 4);
}

TEST(Conv2dLayer, GradientsAccumulate) {
  Rng rng(5);
  Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 1;
  Conv2d conv(spec, rng);
  const Tensor in = random_tensor({1, 1, 4, 4}, 6);
  const Tensor g = random_tensor({1, 1, 4, 4}, 7);
  conv.forward(in);
  conv.backward(g);
  const Tensor once = conv.weight_grad();
  conv.forward(in);
  conv.backward(g);
  const Tensor twice = conv.weight_grad();
  EXPECT_LT(max_abs_diff(twice, scale(once, 2.0f)), 1e-4f);
  conv.zero_grad();
  EXPECT_EQ(max_abs(conv.weight_grad()), 0.0f);
}

TEST(Conv2dLayer, BackwardBeforeForwardThrows) {
  Rng rng(1);
  Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 1;
  Conv2d conv(spec, rng);
  EXPECT_THROW(conv.backward(Tensor({1, 1, 2, 2})), Error);
}

TEST(ResBlockTest, SkipConnectionAtZeroScale) {
  // With res_scale = 0 the block must be the identity.
  Rng rng(14);
  ResBlock block(4, 3, 0.0f, rng);
  const Tensor in = random_tensor({1, 4, 6, 6}, 15);
  const Tensor out = block.forward(in);
  EXPECT_LT(max_abs_diff(out, in), 1e-6f);
}

TEST(ResBlockTest, ResidualScalingApplied) {
  // out - x must scale linearly with res_scale.
  Rng rng(16);
  ResBlock strong(4, 3, 1.0f, rng);
  Rng rng2(16);  // identical weights
  ResBlock weak(4, 3, 0.1f, rng2);
  const Tensor in = random_tensor({1, 4, 5, 5}, 17);
  const Tensor ds = sub(strong.forward(in), in);
  const Tensor dw = sub(weak.forward(in), in);
  EXPECT_LT(max_abs_diff(dw, scale(ds, 0.1f)), 1e-5f);
}

TEST(ResBlockTest, GradientCheck) {
  Rng rng(18);
  ResBlock block(3, 3, 0.1f, rng);
  check_module_gradients(block, random_tensor({1, 3, 5, 5}, 19), 20, 6);
}

TEST(ResBlockTest, ParameterNaming) {
  Rng rng(21);
  ResBlock block(2, 3, 0.1f, rng);
  std::vector<ParamRef> params;
  block.collect_parameters("body.0", params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "body.0.conv1.weight");
  EXPECT_EQ(params[2].name, "body.0.conv2.weight");
}

TEST(UpsamplerTest, ScaleShapes) {
  for (const std::size_t scale : {1ul, 2ul, 3ul, 4ul}) {
    Rng rng(22 + scale);
    Upsampler up(4, scale, rng);
    const Tensor in = random_tensor({1, 4, 6, 6}, 23);
    const Tensor out = up.forward(in);
    EXPECT_EQ(out.shape(), Shape({1, 4, 6 * scale, 6 * scale}))
        << "scale " << scale;
  }
}

TEST(UpsamplerTest, ParameterCountsByScale) {
  Rng rng(24);
  Upsampler x2(8, 2, rng);
  Rng rng2(24);
  Upsampler x4(8, 4, rng2);
  // x4 = two x2 stages.
  EXPECT_EQ(x4.parameter_count(), 2 * x2.parameter_count());
  Rng rng3(24);
  Upsampler x1(8, 1, rng3);
  EXPECT_EQ(x1.parameter_count(), 0u);
}

TEST(UpsamplerTest, GradientCheck) {
  Rng rng(25);
  Upsampler up(2, 2, rng);
  check_module_gradients(up, random_tensor({1, 2, 3, 3}, 26), 27, 6);
}

TEST(MeanShiftTest, SubtractThenAddRoundTrips) {
  MeanShift sub_mean({0.4f, 0.5f, 0.6f}, -1);
  MeanShift add_mean({0.4f, 0.5f, 0.6f}, +1);
  const Tensor in = random_tensor({2, 3, 4, 4}, 28);
  const Tensor round = add_mean.forward(sub_mean.forward(in));
  EXPECT_LT(max_abs_diff(round, in), 1e-6f);
}

TEST(MeanShiftTest, PerChannelShift) {
  MeanShift shift({0.1f, 0.2f, 0.3f}, -1);
  const Tensor in = Tensor::full({1, 3, 2, 2}, 1.0f);
  const Tensor out = shift.forward(in);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 0.9f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 0.8f);
  EXPECT_FLOAT_EQ(out.at4(0, 2, 0, 0), 0.7f);
}

TEST(MeanShiftTest, BackwardIsIdentity) {
  MeanShift shift({0.1f, 0.2f, 0.3f}, 1);
  const Tensor g = random_tensor({1, 3, 2, 2}, 29);
  shift.forward(Tensor({1, 3, 2, 2}));
  EXPECT_LT(max_abs_diff(shift.backward(g), g), 1e-7f);
}

TEST(SequentialTest, ChainsChildrenInOrder) {
  Rng rng(30);
  Sequential seq;
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 2;
  seq.add(std::make_unique<Conv2d>(spec, rng));
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<Conv2d>(spec, rng));
  EXPECT_EQ(seq.child_count(), 3u);
  const Tensor in = random_tensor({1, 2, 4, 4}, 31);
  const Tensor out = seq.forward(in);
  EXPECT_EQ(out.shape(), in.shape());
  // Parameter names carry child indices.
  const auto params = seq.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "0.weight");
  EXPECT_EQ(params[2].name, "2.weight");
}

TEST(SequentialTest, GradientCheck) {
  Rng rng(32);
  Sequential seq;
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 2;
  seq.add(std::make_unique<Conv2d>(spec, rng));
  seq.add(std::make_unique<ReLU>());
  check_module_gradients(seq, random_tensor({1, 2, 4, 4}, 33), 34, 6);
}

TEST(SequentialTest, RejectsNull) {
  Sequential seq;
  EXPECT_THROW(seq.add(nullptr), Error);
  EXPECT_THROW(seq.child(0), Error);
}

TEST(ModuleTest, ParameterCountSums) {
  Rng rng(35);
  Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 5;
  Conv2d conv(spec, rng);
  EXPECT_EQ(conv.parameter_count(), 5u * 3 * 9 + 5);
}

}  // namespace
}  // namespace dlsr::nn
