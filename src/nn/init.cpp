#include "nn/init.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dlsr::nn {

void kaiming_normal(Tensor& weight, const Conv2dSpec& spec, Rng& rng) {
  DLSR_CHECK(weight.shape() == spec.weight_shape(),
             "kaiming_normal: weight/spec mismatch");
  const double fan_in =
      static_cast<double>(spec.in_channels * spec.kernel * spec.kernel);
  const float stddev = static_cast<float>(std::sqrt(2.0 / fan_in));
  for (std::size_t i = 0; i < weight.numel(); ++i) {
    weight[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
}

}  // namespace dlsr::nn
