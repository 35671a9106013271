// Naive EDSR reference forward for output checks.
//
// Written apart from tensor/conv2d and tensor/gemm_kernel on purpose: direct
// seven-deep convolution loops with double accumulation over plain vectors,
// so a fault in the packed kernels, the tiler or the engine cannot hide in
// the reference too. Only the weights are read from the model.
#pragma once

#include <cstddef>
#include <vector>

#include "models/edsr.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

class ReferenceEdsr {
 public:
  /// Copies the model's current weights (x2 models only).
  explicit ReferenceEdsr(dlsr::models::Edsr& model);

  /// [1,3,h,w] LR in [0,1] -> [1,3,2h,2w].
  dlsr::Tensor forward(const dlsr::Tensor& lr) const;

 private:
  struct Conv {
    std::size_t cin = 0;
    std::size_t cout = 0;
    std::size_t k = 0;
    std::vector<float> w;  ///< [cout][cin][k][k]
    std::vector<float> b;  ///< [cout] (empty = no bias)
  };

  dlsr::models::EdsrConfig config_;
  Conv head_;
  std::vector<Conv> body_;  ///< conv1, conv2 per residual block
  Conv body_end_;
  Conv upsample_;
  Conv tail_;
};

/// Forward FLOPs (2 per multiply-add) of one LR sample of `h` x `w` pixels
/// through an x2 EDSR, counted from the layer shapes: head, two convs per
/// block, body end and upsample at LR size, tail at HR size.
double edsr_forward_flops(const dlsr::models::EdsrConfig& c, double h,
                          double w);

/// max |a-b| / max |b| over two same-shape tensors (inf on shape mismatch).
double max_rel_error(const dlsr::Tensor& a, const dlsr::Tensor& b);

}  // namespace perfbench
