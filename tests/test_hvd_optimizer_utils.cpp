// Tests for the DistributedOptimizer wrapper, gradient utilities, link
// degradation, and the Longhorn cluster preset.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hvd/distributed_optimizer.hpp"
#include "nn/grad_utils.hpp"
#include "sim/topology.hpp"
#include "tensor/tensor_ops.hpp"

namespace dlsr {
namespace {

/// A replica: one parameter vector with a gradient, plus its optimizer.
struct Replica {
  Tensor value;
  Tensor grad;
  explicit Replica(const std::vector<float>& v)
      : value({v.size()}, v), grad(value.shape()) {}
  std::vector<nn::ParamRef> refs() { return {{"p", &value, &grad}}; }
};

TEST(DistributedOptimizerTest, AveragesGradientsBeforeStepping) {
  auto r1 = std::make_unique<Replica>(std::vector<float>{1.0f, 1.0f});
  auto r2 = std::make_unique<Replica>(std::vector<float>{1.0f, 1.0f});
  r1->grad = Tensor({2}, {2.0f, 0.0f});
  r2->grad = Tensor({2}, {0.0f, 4.0f});
  std::vector<std::unique_ptr<nn::Optimizer>> opts;
  opts.push_back(std::make_unique<nn::Sgd>(r1->refs(), 0.1));
  opts.push_back(std::make_unique<nn::Sgd>(r2->refs(), 0.1));
  hvd::DistributedOptimizer dist(std::move(opts));
  dist.step();
  // Averaged grads: (1, 2) -> both replicas step identically.
  EXPECT_FLOAT_EQ(r1->value[0], 1.0f - 0.1f * 1.0f);
  EXPECT_FLOAT_EQ(r1->value[1], 1.0f - 0.1f * 2.0f);
  EXPECT_FLOAT_EQ(r2->value[0], r1->value[0]);
  EXPECT_FLOAT_EQ(r2->value[1], r1->value[1]);
  EXPECT_EQ(dist.allreduce_count(), 1u);
}

TEST(DistributedOptimizerTest, ZeroGradAndLrBroadcast) {
  auto r1 = std::make_unique<Replica>(std::vector<float>{0.0f});
  auto r2 = std::make_unique<Replica>(std::vector<float>{0.0f});
  r1->grad[0] = 5.0f;
  Replica* p1 = r1.get();
  std::vector<std::unique_ptr<nn::Optimizer>> opts;
  opts.push_back(std::make_unique<nn::Sgd>(r1->refs(), 0.1));
  opts.push_back(std::make_unique<nn::Sgd>(r2->refs(), 0.1));
  hvd::DistributedOptimizer dist(std::move(opts));
  dist.zero_grad();
  EXPECT_EQ(p1->grad[0], 0.0f);
  dist.set_learning_rate(0.5);
  EXPECT_DOUBLE_EQ(dist.replica(0).learning_rate(), 0.5);
  EXPECT_DOUBLE_EQ(dist.replica(1).learning_rate(), 0.5);
}

TEST(DistributedOptimizerTest, RejectsMismatchedReplicas) {
  auto r1 = std::make_unique<Replica>(std::vector<float>{1.0f});
  auto r2 = std::make_unique<Replica>(std::vector<float>{1.0f, 2.0f});
  std::vector<std::unique_ptr<nn::Optimizer>> opts;
  opts.push_back(std::make_unique<nn::Sgd>(r1->refs(), 0.1));
  opts.push_back(std::make_unique<nn::Sgd>(r2->refs(), 0.1));
  EXPECT_THROW(hvd::DistributedOptimizer{std::move(opts)}, Error);
  std::vector<std::unique_ptr<nn::Optimizer>> empty;
  EXPECT_THROW(hvd::DistributedOptimizer{std::move(empty)}, Error);
}

TEST(GradUtils, GlobalNormMatchesManual) {
  Replica r({0.0f, 0.0f});
  r.grad = Tensor({2}, {3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(nn::global_grad_norm(r.refs()), 5.0);
}

TEST(GradUtils, ClipScalesDownOnlyWhenNeeded) {
  Replica r({0.0f, 0.0f});
  r.grad = Tensor({2}, {3.0f, 4.0f});
  const double before = nn::clip_grad_norm(r.refs(), 1.0);
  EXPECT_DOUBLE_EQ(before, 5.0);
  EXPECT_NEAR(nn::global_grad_norm(r.refs()), 1.0, 1e-6);
  // Already below the bound: untouched.
  const Tensor snapshot = r.grad;
  nn::clip_grad_norm(r.refs(), 10.0);
  EXPECT_LT(max_abs_diff(r.grad, snapshot), 1e-9f);
  EXPECT_THROW(nn::clip_grad_norm(r.refs(), 0.0), Error);
}

TEST(GradUtils, EmaTracksAndSwaps) {
  Replica r({10.0f});
  nn::ParameterEma ema(r.refs(), 0.5);
  r.value[0] = 20.0f;
  ema.update();  // shadow = 0.5*10 + 0.5*20 = 15
  EXPECT_EQ(ema.updates(), 1u);
  ema.apply();
  EXPECT_FLOAT_EQ(r.value[0], 15.0f);
  EXPECT_THROW(ema.apply(), Error);  // double apply
  ema.restore();
  EXPECT_FLOAT_EQ(r.value[0], 20.0f);
  EXPECT_THROW(ema.restore(), Error);  // double restore
  EXPECT_THROW(nn::ParameterEma(r.refs(), 1.5), Error);
}

TEST(LinkDegradation, StretchesDurations) {
  sim::Link link(sim::LinkSpec{1e9, 0.0});
  EXPECT_NEAR(link.transfer(0.0, 1000000), 1e-3, 1e-12);
  link.degrade(3.0);
  link.reset();
  EXPECT_NEAR(link.transfer(0.0, 1000000), 3e-3, 1e-12);
  EXPECT_DOUBLE_EQ(link.degradation(), 3.0);
  EXPECT_THROW(link.degrade(0.5), Error);
}

TEST(Longhorn, SingleRailSpec) {
  const sim::ClusterSpec spec = sim::ClusterSpec::longhorn(96);
  EXPECT_EQ(spec.nodes, 96u);
  EXPECT_EQ(spec.gpus_per_node, 4u);
  EXPECT_EQ(spec.ib_ports_per_node, 1u);
  EXPECT_THROW(sim::ClusterSpec::longhorn(97), Error);
  sim::Cluster cluster(spec);
  // Single rail: least_busy always returns the same port.
  EXPECT_EQ(&cluster.least_busy_ib(0), &cluster.ib_port(0, 0));
}

}  // namespace
}  // namespace dlsr
