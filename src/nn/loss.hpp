// Loss functions. EDSR trains with L1 (Lim et al. found it outperforms L2
// for PSNR); MSE is kept for comparisons and PSNR math.
#pragma once

#include "tensor/tensor.hpp"

namespace dlsr::nn {

/// Loss value plus gradient wrt the prediction.
struct LossResult {
  double value = 0.0;
  Tensor grad;  ///< same shape as the prediction
};

/// mean(|pred - target|). Subgradient 0 at exact ties.
LossResult l1_loss(const Tensor& pred, const Tensor& target);

/// mean((pred - target)^2).
LossResult mse_loss(const Tensor& pred, const Tensor& target);

}  // namespace dlsr::nn
