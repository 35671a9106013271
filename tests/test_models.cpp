// Tests for dlsr::models — EDSR/VDSR modules, analytic graphs, and the
// consistency between the trainable modules and their graphs (the property
// that makes the simulated communication volumes real).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "models/edsr.hpp"
#include "models/edsr_graph.hpp"
#include "models/model_graph.hpp"
#include "models/resnet50_graph.hpp"
#include "models/vdsr.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "tensor/tensor_ops.hpp"

namespace dlsr::models {
namespace {

Tensor random_image(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform());
  }
  return t;
}

TEST(EdsrModel, OutputShape) {
  Rng rng(1);
  Edsr edsr(EdsrConfig::tiny(), rng);
  const Tensor lr = random_image({2, 3, 8, 8}, 2);
  const Tensor hr = edsr.forward(lr);
  EXPECT_EQ(hr.shape(), Shape({2, 3, 16, 16}));
}

TEST(EdsrModel, ScaleFourShape) {
  EdsrConfig cfg = EdsrConfig::tiny();
  cfg.scale = 4;
  Rng rng(3);
  Edsr edsr(cfg, rng);
  const Tensor hr = edsr.forward(random_image({1, 3, 6, 6}, 4));
  EXPECT_EQ(hr.shape(), Shape({1, 3, 24, 24}));
}

TEST(EdsrModel, ParameterCountMatchesFormula) {
  // head: 3*F*9+F; body: B*2*(F*F*9+F); body_end: F*F*9+F;
  // upsample x2: F*4F*9+4F; tail: F*3*9+3.
  const EdsrConfig cfg = EdsrConfig::tiny();  // B=2, F=8, x2
  Rng rng(5);
  Edsr edsr(cfg, rng);
  const std::size_t F = cfg.n_feats;
  const std::size_t B = cfg.n_resblocks;
  const std::size_t expected = (3 * F * 9 + F) + B * 2 * (F * F * 9 + F) +
                               (F * F * 9 + F) + (F * 4 * F * 9 + 4 * F) +
                               (F * 3 * 9 + 3);
  EXPECT_EQ(edsr.parameter_count(), expected);
}

TEST(EdsrModel, PaperConfigSizes) {
  const EdsrConfig cfg = EdsrConfig::paper();
  EXPECT_EQ(cfg.n_resblocks, 32u);
  EXPECT_EQ(cfg.n_feats, 256u);
  EXPECT_EQ(cfg.scale, 2u);
  EXPECT_FLOAT_EQ(cfg.res_scale, 0.1f);
  const ModelGraph g = build_edsr_graph(cfg, 48);
  // Full EDSR is ~40.7 M parameters -> ~163 MB of fp32 gradients.
  EXPECT_NEAR(g.param_count() / 1e6, 40.7, 0.5);
  EXPECT_GT(g.param_bytes(), 150ull * 1024 * 1024);
}

TEST(EdsrModel, GraphMatchesModuleParameterCount) {
  // The analytic graph must carry exactly the trainable module's parameter
  // count — this is what makes simulated gradient traffic faithful.
  for (const EdsrConfig& cfg :
       {EdsrConfig::tiny(), EdsrConfig::baseline()}) {
    Rng rng(7);
    Edsr edsr(cfg, rng);
    const ModelGraph g = build_edsr_graph(cfg, 16);
    EXPECT_EQ(edsr.parameter_count(), g.param_count())
        << "B=" << cfg.n_resblocks << " F=" << cfg.n_feats;
  }
}

TEST(EdsrModel, GradientFlowsToAllParameters) {
  Rng rng(9);
  Edsr edsr(EdsrConfig::tiny(), rng);
  const Tensor lr = random_image({1, 3, 8, 8}, 10);
  const Tensor target = random_image({1, 3, 16, 16}, 11);
  edsr.zero_grad();
  const Tensor out = edsr.forward(lr);
  const nn::LossResult loss = nn::l1_loss(out, target);
  edsr.backward(loss.grad);
  for (const auto& p : edsr.parameters()) {
    EXPECT_GT(max_abs(*p.grad), 0.0f) << "no gradient reached " << p.name;
  }
}

TEST(EdsrModel, OverfitsSingleBatch) {
  // A real end-to-end sanity check: loss on one fixed batch must drop
  // substantially under Adam.
  Rng rng(12);
  Edsr edsr(EdsrConfig::tiny(), rng);
  const Tensor lr = random_image({1, 3, 6, 6}, 13);
  const Tensor target = random_image({1, 3, 12, 12}, 14);
  nn::Adam adam(edsr.parameters(), 1e-3);
  double first = 0.0;
  double last = 0.0;
  for (int step = 0; step < 60; ++step) {
    edsr.zero_grad();
    const Tensor out = edsr.forward(lr);
    const nn::LossResult loss = nn::l1_loss(out, target);
    edsr.backward(loss.grad);
    adam.step();
    if (step == 0) first = loss.value;
    last = loss.value;
  }
  EXPECT_LT(last, 0.55 * first) << "first " << first << " last " << last;
}

TEST(EdsrModel, ParameterNamesHierarchical) {
  Rng rng(15);
  Edsr edsr(EdsrConfig::tiny(), rng);
  const auto params = edsr.parameters();
  bool has_body = false;
  bool has_upsample = false;
  for (const auto& p : params) {
    if (p.name.find("edsr.body.1.conv2.weight") != std::string::npos) {
      has_body = true;
    }
    if (p.name.find("edsr.upsample.0.conv.weight") != std::string::npos) {
      has_upsample = true;
    }
  }
  EXPECT_TRUE(has_body);
  EXPECT_TRUE(has_upsample);
}

TEST(ModelGraphTest, LayerAccounting) {
  ModelGraph g("t");
  g.add_layer(conv_desc("c1", 3, 8, 3, 1, 1, 16, 16));
  g.add_layer(relu_desc("r1", 8, 16, 16));
  EXPECT_EQ(g.layers().size(), 2u);
  EXPECT_EQ(g.param_count(), 8u * 3 * 9 + 8);
  // conv flops: 2*9*3*8*256
  EXPECT_DOUBLE_EQ(g.layers()[0].fwd_flops, 2.0 * 9 * 3 * 8 * 256);
  // backward ~2x for trainable, 1x for relu
  EXPECT_DOUBLE_EQ(g.bwd_flops_per_item(),
                   2.0 * g.layers()[0].fwd_flops + g.layers()[1].fwd_flops);
}

TEST(ModelGraphTest, ConvDescStride) {
  const LayerDesc l = conv_desc("s", 3, 64, 7, 2, 3, 224, 224);
  EXPECT_EQ(l.output_bytes, 64u * 112 * 112 * 4);
  EXPECT_EQ(l.param_count, 64u * 3 * 49 + 64);
  const LayerDesc nb = conv_desc("s", 3, 64, 7, 2, 3, 224, 224,
                                 /*bias=*/false);
  EXPECT_EQ(nb.param_count, 64u * 3 * 49);
}

TEST(ModelGraphTest, GradientSequenceProperties) {
  const ModelGraph g = build_edsr_graph(EdsrConfig::tiny(), 8);
  const auto seq = g.gradient_sequence();
  // One entry per trainable layer; bytes sum to param bytes.
  std::size_t bytes = 0;
  double prev_ready = 0.0;
  for (const auto& t : seq) {
    bytes += t.bytes;
    EXPECT_GE(t.ready_fraction, prev_ready);  // monotonically later
    EXPECT_GT(t.ready_fraction, 0.0);
    EXPECT_LE(t.ready_fraction, 1.0);
    prev_ready = t.ready_fraction;
  }
  EXPECT_EQ(bytes, g.param_bytes());
  // Backward order: the tail conv's gradient must be first.
  EXPECT_EQ(seq.front().name, "tail.grad");
  EXPECT_EQ(seq.back().name, "head.grad");
  // The last gradient is ready exactly when backward finishes.
  EXPECT_DOUBLE_EQ(seq.back().ready_fraction, 1.0);
}

TEST(Resnet50Graph, ParameterCount) {
  const ModelGraph g = build_resnet50_graph(224, 1000);
  // Canonical ResNet-50: ~25.5 M parameters.
  EXPECT_NEAR(g.param_count() / 1e6, 25.5, 0.3);
}

TEST(Resnet50Graph, ForwardFlops) {
  const ModelGraph g = build_resnet50_graph(224, 1000);
  // ~4.1 GMACs = ~8.2 GFLOP with MAC = 2 FLOPs.
  EXPECT_NEAR(g.fwd_flops_per_item() / 1e9, 8.2, 0.5);
}

TEST(Resnet50Graph, ScalesWithImageSize) {
  const ModelGraph small = build_resnet50_graph(128, 1000);
  const ModelGraph big = build_resnet50_graph(256, 1000);
  EXPECT_GT(big.fwd_flops_per_item(), 3.0 * small.fwd_flops_per_item());
  // Parameters do not depend on image size.
  EXPECT_EQ(small.param_count(), big.param_count());
}

TEST(EdsrGraph, FlopsDominatedByBody) {
  const ModelGraph g = build_edsr_graph(EdsrConfig::paper(), 48);
  double body = 0.0;
  for (const auto& l : g.layers()) {
    if (l.name.rfind("body.", 0) == 0) {
      body += l.fwd_flops;
    }
  }
  EXPECT_GT(body / g.fwd_flops_per_item(), 0.9);
}

TEST(EdsrGraph, Scale3And4Variants) {
  EdsrConfig cfg = EdsrConfig::tiny();
  cfg.scale = 3;
  const ModelGraph g3 = build_edsr_graph(cfg, 8);
  cfg.scale = 4;
  const ModelGraph g4 = build_edsr_graph(cfg, 8);
  Rng rng(20);
  Edsr m3([&] { EdsrConfig c = EdsrConfig::tiny(); c.scale = 3; return c; }(),
          rng);
  Rng rng2(21);
  Edsr m4([&] { EdsrConfig c = EdsrConfig::tiny(); c.scale = 4; return c; }(),
          rng2);
  EXPECT_EQ(g3.param_count(), m3.parameter_count());
  EXPECT_EQ(g4.param_count(), m4.parameter_count());
}

TEST(VdsrModel, IdentityAtInitWithZeroFinalScale) {
  // With the final conv zeroed the network is exactly the identity — the
  // property that makes VDSR start at bicubic quality.
  models::VdsrConfig cfg = models::VdsrConfig::tiny();
  cfg.final_init_scale = 0.0f;
  Rng rng(40);
  Vdsr vdsr(cfg, rng);
  const Tensor in = random_image({1, 3, 10, 10}, 41);
  EXPECT_LT(max_abs_diff(vdsr.forward(in), in), 1e-6f);
}

TEST(VdsrModel, ShapePreservedAndGradientsFlow) {
  Rng rng(42);
  Vdsr vdsr(models::VdsrConfig::tiny(), rng);
  const Tensor in = random_image({2, 3, 8, 8}, 43);
  const Tensor out = vdsr.forward(in);
  EXPECT_EQ(out.shape(), in.shape());
  vdsr.zero_grad();
  vdsr.forward(in);
  vdsr.backward(random_image(in.shape(), 44));
  for (const auto& p : vdsr.parameters()) {
    EXPECT_GT(max_abs(*p.grad), 0.0f) << p.name;
  }
}

TEST(VdsrModel, GraphMatchesModule) {
  const models::VdsrConfig cfg = models::VdsrConfig::tiny();
  Rng rng(45);
  Vdsr vdsr(cfg, rng);
  const ModelGraph g = build_vdsr_graph(cfg, 12, 12);
  EXPECT_EQ(vdsr.parameter_count(), g.param_count());
}

TEST(VdsrModel, DepthValidated) {
  Rng rng(46);
  models::VdsrConfig cfg;
  cfg.depth = 1;
  EXPECT_THROW(Vdsr(cfg, rng), Error);
}

}  // namespace
}  // namespace dlsr::models
