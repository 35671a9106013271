// Analytic model graphs.
//
// A ModelGraph is a flat, ordered list of layer descriptors carrying the
// quantities the performance model and the communication middleware need:
// forward FLOPs, activation sizes, and parameter counts. It is *derived from
// the same architecture definitions* as the trainable modules (the EDSR
// builder mirrors models::Edsr layer-for-layer), so communication volumes in
// the scaling experiments are the real gradient sizes, not hand-picked
// numbers.
//
// Convention: one multiply-add = 2 FLOPs; all byte counts assume float32.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dlsr::models {

/// One layer's static cost/shape description (per batch item).
struct LayerDesc {
  std::string name;
  std::string kind;  ///< "conv", "relu", "bn", "pool", "linear", "shuffle", "add"
  double fwd_flops = 0.0;          ///< forward FLOPs per batch item
  std::size_t input_bytes = 0;     ///< input activation bytes per item
  std::size_t output_bytes = 0;    ///< output activation bytes per item
  std::size_t param_count = 0;     ///< trainable parameters (elements)

  bool trainable() const { return param_count > 0; }
  std::size_t param_bytes() const { return param_count * sizeof(float); }
};

/// One gradient tensor as it becomes ready during the backward pass.
struct GradTensor {
  std::string name;
  std::size_t bytes = 0;
  /// Fraction of total backward FLOPs completed when this tensor is ready
  /// (gradients surface back-to-front, so the output-side layers are early).
  double ready_fraction = 0.0;
  /// Nonzero identity, std::hash of `name`: Horovod's response-cache key
  /// in the fusion engine, and the buffer id a tensor sent alone registers
  /// under. Set once when the list is built, not on every simulated step.
  std::uint64_t id = 0;
};

/// Ordered layer list plus derived totals.
class ModelGraph {
 public:
  explicit ModelGraph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void add_layer(LayerDesc layer);
  const std::vector<LayerDesc>& layers() const { return layers_; }

  double fwd_flops_per_item() const;
  /// Backward cost model: ~2x forward for trainable layers (dX and dW GEMMs),
  /// ~1x for stateless layers.
  double bwd_flops_per_item() const;
  double train_flops_per_item() const {
    return fwd_flops_per_item() + bwd_flops_per_item();
  }

  std::size_t param_count() const;
  std::size_t param_bytes() const { return param_count() * sizeof(float); }

  /// Peak resident activation estimate per item: training keeps every
  /// layer's input alive for backward, so this sums activations.
  std::size_t activation_bytes_per_item() const;

  /// Gradient tensors in the order backward produces them (last layer
  /// first), with readiness fractions for compute/communication overlap.
  std::vector<GradTensor> gradient_sequence() const;

 private:
  std::string name_;
  std::vector<LayerDesc> layers_;
};

/// Descriptor helpers used by the graph builders.
LayerDesc conv_desc(const std::string& name, std::size_t in_ch,
                    std::size_t out_ch, std::size_t kernel, std::size_t stride,
                    std::size_t padding, std::size_t in_h, std::size_t in_w,
                    bool bias = true);
LayerDesc relu_desc(const std::string& name, std::size_t ch, std::size_t h,
                    std::size_t w);
LayerDesc bn_desc(const std::string& name, std::size_t ch, std::size_t h,
                  std::size_t w);
LayerDesc linear_desc(const std::string& name, std::size_t in_features,
                      std::size_t out_features);

}  // namespace dlsr::models
