#include "nn/loss.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dlsr::nn {

LossResult l1_loss(const Tensor& pred, const Tensor& target) {
  DLSR_CHECK(pred.same_shape(target), "l1_loss shape mismatch");
  DLSR_CHECK(pred.numel() > 0, "l1_loss on empty tensors");
  LossResult result;
  result.grad = Tensor(pred.shape());
  const float inv_n = 1.0f / static_cast<float>(pred.numel());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const float d = pred[i] - target[i];
    acc += std::fabs(static_cast<double>(d));
    result.grad[i] = (d > 0.0f ? inv_n : (d < 0.0f ? -inv_n : 0.0f));
  }
  result.value = acc / static_cast<double>(pred.numel());
  return result;
}

LossResult mse_loss(const Tensor& pred, const Tensor& target) {
  DLSR_CHECK(pred.same_shape(target), "mse_loss shape mismatch");
  DLSR_CHECK(pred.numel() > 0, "mse_loss on empty tensors");
  LossResult result;
  result.grad = Tensor(pred.shape());
  const float scale = 2.0f / static_cast<float>(pred.numel());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const float d = pred[i] - target[i];
    acc += static_cast<double>(d) * static_cast<double>(d);
    result.grad[i] = scale * d;
  }
  result.value = acc / static_cast<double>(pred.numel());
  return result;
}

}  // namespace dlsr::nn
