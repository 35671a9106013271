// Tests for losses (values + gradients) and optimizers (exact update math).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
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

TEST(L1Loss, KnownValue) {
  const Tensor pred({4}, {1, 2, 3, 4});
  const Tensor target({4}, {2, 2, 1, 0});
  const LossResult r = l1_loss(pred, target);
  EXPECT_DOUBLE_EQ(r.value, (1 + 0 + 2 + 4) / 4.0);
}

TEST(L1Loss, GradientSigns) {
  const Tensor pred({3}, {1, 2, 3});
  const Tensor target({3}, {2, 2, 1});
  const LossResult r = l1_loss(pred, target);
  EXPECT_FLOAT_EQ(r.grad[0], -1.0f / 3);
  EXPECT_FLOAT_EQ(r.grad[1], 0.0f);
  EXPECT_FLOAT_EQ(r.grad[2], 1.0f / 3);
}

TEST(MseLoss, KnownValueAndGradient) {
  const Tensor pred({2}, {3, 5});
  const Tensor target({2}, {1, 5});
  const LossResult r = mse_loss(pred, target);
  EXPECT_DOUBLE_EQ(r.value, (4.0 + 0.0) / 2.0);
  EXPECT_FLOAT_EQ(r.grad[0], 2.0f * 2.0f / 2.0f);
  EXPECT_FLOAT_EQ(r.grad[1], 0.0f);
}

TEST(Losses, NumericalGradients) {
  Tensor pred = random_tensor({8}, 1);
  const Tensor target = random_tensor({8}, 2);
  for (const bool use_l1 : {true, false}) {
    const LossResult base = use_l1 ? l1_loss(pred, target)
                                   : mse_loss(pred, target);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < pred.numel(); ++i) {
      const float orig = pred[i];
      pred[i] = orig + eps;
      const double up =
          (use_l1 ? l1_loss(pred, target) : mse_loss(pred, target)).value;
      pred[i] = orig - eps;
      const double down =
          (use_l1 ? l1_loss(pred, target) : mse_loss(pred, target)).value;
      pred[i] = orig;
      EXPECT_NEAR((up - down) / (2 * eps), base.grad[i], 5e-3)
          << (use_l1 ? "l1" : "mse") << " index " << i;
    }
  }
}

TEST(Losses, ShapeMismatchThrows) {
  EXPECT_THROW(l1_loss(Tensor({2}), Tensor({3})), Error);
  EXPECT_THROW(mse_loss(Tensor({2}), Tensor({3})), Error);
}

/// A trivially optimizable parameter set for optimizer math tests.
struct Param {
  Tensor value{Shape{2}};
  Tensor grad{Shape{2}};
  std::vector<ParamRef> refs() {
    return {{"p", &value, &grad}};
  }
};

TEST(SgdTest, PlainUpdate) {
  Param p;
  p.value = Tensor({2}, {1.0f, 2.0f});
  p.grad = Tensor({2}, {0.5f, -1.0f});
  Sgd sgd(p.refs(), /*lr=*/0.1);
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.95f);
  EXPECT_FLOAT_EQ(p.value[1], 2.1f);
}

TEST(SgdTest, MomentumAccumulates) {
  Param p;
  p.grad = Tensor({2}, {1.0f, 0.0f});
  Sgd sgd(p.refs(), 0.1, /*momentum=*/0.9);
  sgd.step();  // v = 1, w -= 0.1
  EXPECT_FLOAT_EQ(p.value[0], -0.1f);
  sgd.step();  // v = 1.9, w -= 0.19
  EXPECT_NEAR(p.value[0], -0.29f, 1e-6f);
}

TEST(SgdTest, WeightDecay) {
  Param p;
  p.value = Tensor({2}, {1.0f, 1.0f});
  Sgd sgd(p.refs(), 0.1, 0.0, /*weight_decay=*/0.5);
  sgd.step();  // grad_eff = 0 + 0.5*1 -> w = 1 - 0.05
  EXPECT_FLOAT_EQ(p.value[0], 0.95f);
}

TEST(AdamTest, FirstStepMatchesClosedForm) {
  // With any constant gradient g, Adam's bias-corrected first step is
  // exactly -lr * sign-ish: m_hat = g, v_hat = g^2 -> step = lr*g/(|g|+eps).
  Param p;
  p.grad = Tensor({2}, {0.3f, -0.7f});
  Adam adam(p.refs(), /*lr=*/0.01);
  adam.step();
  EXPECT_NEAR(p.value[0], -0.01, 1e-5);
  EXPECT_NEAR(p.value[1], 0.01, 1e-5);
  EXPECT_EQ(adam.step_count(), 1u);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(w) = (w - 3)^2 by feeding grad = 2(w - 3).
  Param p;
  Adam adam(p.refs(), 0.1);
  for (int i = 0; i < 500; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    p.grad[1] = 2.0f * (p.value[1] + 1.0f);
    adam.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2);
  EXPECT_NEAR(p.value[1], -1.0f, 1e-2);
}

TEST(AdamTest, ZeroGradLeavesParamsAfterReset) {
  Param p;
  p.grad = Tensor({2}, {1.0f, 1.0f});
  Adam adam(p.refs(), 0.01);
  adam.zero_grad();
  EXPECT_EQ(p.grad[0], 0.0f);
  adam.step();
  // m, v stay zero with zero grads: no movement.
  EXPECT_EQ(p.value[0], 0.0f);
}

TEST(OptimizerTest, LearningRateScaling) {
  // The Horovod recipe (paper §III-A step 4) scales lr by the worker count.
  Param p;
  Sgd sgd(p.refs(), 0.01);
  sgd.set_learning_rate(sgd.learning_rate() * 8);
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 0.08);
}

TEST(OptimizerTest, ShapeMismatchCaught) {
  Tensor value({2});
  Tensor grad({3});
  Sgd sgd({{"p", &value, &grad}}, 0.1);
  EXPECT_THROW(sgd.step(), Error);
}

}  // namespace
}  // namespace dlsr::nn
