// Whole-dataset SR evaluation helpers: mean PSNR/SSIM of a model (or of the
// bicubic baseline) over a dataset split — the standard benchmark protocol
// (paper §II-E / Set5-style evaluation on DIV2K validation).
#pragma once

#include <cstddef>

#include "image/synthetic_div2k.hpp"
#include "nn/module.hpp"

namespace dlsr::img {

struct SrEvalResult {
  double mean_psnr = 0.0;
  double mean_ssim = 0.0;
  std::size_t images = 0;
};

/// How the model consumes its input.
enum class SrInputKind {
  LowRes,          ///< model upsamples internally (EDSR, SRResNet)
  BicubicUpscaled  ///< model refines a bicubic upscale (VDSR)
};

/// Evaluates `model` on the first `count` images of the split at `scale`.
SrEvalResult evaluate_sr(nn::Module& model, const SyntheticDiv2k& dataset,
                         Split split, std::size_t count, std::size_t scale,
                         SrInputKind input_kind);

/// The no-learning baseline on the same protocol.
SrEvalResult evaluate_bicubic(const SyntheticDiv2k& dataset, Split split,
                              std::size_t count, std::size_t scale);

}  // namespace dlsr::img
