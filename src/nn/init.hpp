// Parameter initialization schemes.
#pragma once

#include "common/rng.hpp"
#include "tensor/conv2d.hpp"
#include "tensor/tensor.hpp"

namespace dlsr::nn {

/// Kaiming-He normal init for conv weights: std = sqrt(2 / fan_in),
/// fan_in = in_channels * kernel^2 (the default for ReLU networks).
void kaiming_normal(Tensor& weight, const Conv2dSpec& spec, Rng& rng);

}  // namespace dlsr::nn
