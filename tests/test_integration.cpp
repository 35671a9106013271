// Integration tests: the full functional stack end-to-end — synthetic
// DIV2K -> patches -> distributed EDSR training with real gradient
// averaging -> PSNR/SSIM gains over the bicubic baseline — plus a
// full-stack simulated scaling run.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiments.hpp"
#include "hvd/worker_group.hpp"
#include "image/metrics.hpp"
#include "image/patch_sampler.hpp"
#include "image/resize.hpp"
#include "image/synthetic_div2k.hpp"
#include "models/edsr.hpp"
#include "models/vdsr.hpp"
#include "nn/optimizer.hpp"
#include "tensor/tensor_ops.hpp"

namespace dlsr {
namespace {

img::Div2kConfig small_dataset() {
  img::Div2kConfig cfg;
  cfg.image_size = 48;
  cfg.train_images = 8;
  cfg.val_images = 2;
  cfg.test_images = 2;
  return cfg;
}

TEST(Integration, DistributedEdsrTrainingImprovesPsnr) {
  // 4 simulated workers train a tiny EDSR on synthetic DIV2K patches with
  // real ring-allreduce gradient averaging; PSNR on held-out data must
  // improve over the untrained network and approach bicubic quality.
  const img::SyntheticDiv2k data(small_dataset());
  img::PatchSampler sampler(data, img::Split::Train, 8, 2, 12, 99);

  constexpr std::size_t kWorkers = 4;
  std::uint64_t seed = 7;
  hvd::WorkerGroup group(
      kWorkers,
      [&] {
        Rng rng(seed);
        return std::make_unique<models::Edsr>(models::EdsrConfig::tiny(),
                                              rng);
      },
      [](std::vector<nn::ParamRef> params) {
        // Paper §III-A step 4: scale the learning rate by the worker count.
        return std::make_unique<nn::Adam>(std::move(params),
                                          1e-3 * kWorkers);
      });
  group.broadcast_parameters();

  // Validation pair.
  const Tensor val_hr = data.hr_image(img::Split::Validation, 0);
  const Tensor val_lr = img::downscale_bicubic(val_hr, 2);
  const double psnr_before = img::psnr(group.worker(0).forward(val_lr),
                                       val_hr);

  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 40; ++step) {
    std::vector<Tensor> inputs;
    std::vector<Tensor> targets;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      img::Batch b = sampler.sample_batch(2);
      inputs.push_back(std::move(b.lr));
      targets.push_back(std::move(b.hr));
    }
    const hvd::WorkerStepResult r = group.train_step(inputs, targets);
    if (step == 0) first_loss = r.mean_loss;
    last_loss = r.mean_loss;
  }
  EXPECT_LT(last_loss, 0.7 * first_loss);
  EXPECT_TRUE(group.replicas_in_sync());

  const Tensor sr = group.worker(0).forward(val_lr);
  const double psnr_after = img::psnr(sr, val_hr);
  EXPECT_GT(psnr_after, psnr_before + 3.0)
      << "before " << psnr_before << " dB, after " << psnr_after << " dB";
  EXPECT_TRUE(all_finite(sr));
}

TEST(Integration, MetricsRankDegradations) {
  // SSIM/PSNR must agree that bicubic x2 round trip beats x4.
  const img::SyntheticDiv2k data(small_dataset());
  const Tensor hr = data.hr_image(img::Split::Test, 0);
  const Tensor x2 =
      img::upscale_bicubic(img::downscale_bicubic(hr, 2), 2);
  const Tensor x4 =
      img::upscale_bicubic(img::downscale_bicubic(hr, 4), 4);
  EXPECT_GT(img::psnr(x2, hr), img::psnr(x4, hr));
  EXPECT_GT(img::ssim(x2, hr), img::ssim(x4, hr));
}

TEST(Integration, FullScalingPipelineSmoke) {
  // The complete simulated stack, one small run per backend: model graph ->
  // perf model -> fusion -> backend -> cluster; all invariants observed.
  const core::PaperExperiment exp;
  const core::DistributedTrainer trainer = exp.make_trainer();
  for (const core::BackendKind kind :
       {core::BackendKind::Mpi, core::BackendKind::MpiReg,
        core::BackendKind::MpiOpt, core::BackendKind::Nccl}) {
    const core::RunResult r = trainer.run(kind, 4, 6);
    EXPECT_EQ(r.gpus, 16u);
    EXPECT_GT(r.images_per_second, 0.0);
    EXPECT_GT(r.scaling_efficiency, 0.3);
    EXPECT_LE(r.scaling_efficiency, 1.0);
    EXPECT_EQ(r.step_times.size(), 6u);
    for (const double st : r.step_times) {
      EXPECT_GT(st, 0.0);
    }
    // Every gradient byte communicated each step.
    std::size_t reduced_bytes = 0;
    for (std::size_t b = 0; b < prof::Hvprof::kBucketCount; ++b) {
      reduced_bytes += r.profiler.bucket(prof::Collective::Allreduce, b).bytes;
    }
    EXPECT_GE(reduced_bytes, 6 * exp.graph.param_bytes());
  }
}

TEST(Integration, TrainedModelBeatsUntrainedOnSsim) {
  const img::SyntheticDiv2k data(small_dataset());
  img::PatchSampler sampler(data, img::Split::Train, 8, 2, 12, 5);
  Rng rng(21);
  models::Edsr edsr(models::EdsrConfig::tiny(), rng);
  nn::Adam adam(edsr.parameters(), 2e-3);

  const Tensor hr = data.hr_image(img::Split::Validation, 1);
  const Tensor lr = img::downscale_bicubic(hr, 2);
  const double ssim_before = img::ssim(edsr.forward(lr), hr);

  for (int step = 0; step < 50; ++step) {
    img::Batch b = sampler.sample_batch(4);
    edsr.zero_grad();
    const Tensor out = edsr.forward(b.lr);
    const nn::LossResult loss = nn::l1_loss(out, b.hr);
    edsr.backward(loss.grad);
    adam.step();
  }
  const double ssim_after = img::ssim(edsr.forward(lr), hr);
  EXPECT_GT(ssim_after, ssim_before);
}

TEST(Integration, VdsrBeatsBicubicBaseline) {
  // The paper's Fig. 4 outcome, CPU-sized: a trained residual SR network
  // must exceed bicubic PSNR on both training and held-out images.
  img::Div2kConfig dc;
  dc.image_size = 48;
  dc.train_images = 4;
  dc.test_images = 1;
  const img::SyntheticDiv2k data(dc);
  Rng rng(7);
  models::VdsrConfig vc;
  vc.depth = 4;
  vc.features = 12;
  vc.final_init_scale = 0.01f;
  models::Vdsr vdsr(vc, rng);
  nn::Adam adam(vdsr.parameters(), 3e-4);
  std::vector<Tensor> up;
  std::vector<Tensor> hr;
  for (std::size_t i = 0; i < 4; ++i) {
    Tensor h = data.hr_image(img::Split::Train, i);
    up.push_back(img::upscale_bicubic(img::downscale_bicubic(h, 2), 2));
    hr.push_back(std::move(h));
  }
  const Tensor test_hr = data.hr_image(img::Split::Test, 0);
  const Tensor test_up =
      img::upscale_bicubic(img::downscale_bicubic(test_hr, 2), 2);
  Rng pick(3);
  for (int step = 0; step < 300; ++step) {
    const std::size_t i = pick.uniform_index(4);
    vdsr.zero_grad();
    const nn::LossResult loss = nn::mse_loss(vdsr.forward(up[i]), hr[i]);
    vdsr.backward(loss.grad);
    adam.step();
  }
  EXPECT_GT(img::psnr(vdsr.forward(up[0]), hr[0]),
            img::psnr(up[0], hr[0]) + 0.4);
  EXPECT_GT(img::psnr(vdsr.forward(test_up), test_hr),
            img::psnr(test_up, test_hr) + 0.1);
}

}  // namespace
}  // namespace dlsr
