#include "models/model_graph.hpp"

#include <functional>

#include "common/error.hpp"

namespace dlsr::models {

void ModelGraph::add_layer(LayerDesc layer) {
  DLSR_CHECK(!layer.name.empty(), "layer needs a name");
  layers_.push_back(std::move(layer));
}

double ModelGraph::fwd_flops_per_item() const {
  double total = 0.0;
  for (const auto& l : layers_) {
    total += l.fwd_flops;
  }
  return total;
}

double ModelGraph::bwd_flops_per_item() const {
  double total = 0.0;
  for (const auto& l : layers_) {
    total += l.fwd_flops * (l.trainable() ? 2.0 : 1.0);
  }
  return total;
}

std::size_t ModelGraph::param_count() const {
  std::size_t total = 0;
  for (const auto& l : layers_) {
    total += l.param_count;
  }
  return total;
}

std::size_t ModelGraph::activation_bytes_per_item() const {
  std::size_t total = 0;
  for (const auto& l : layers_) {
    total += l.output_bytes;
  }
  return total;
}

std::vector<GradTensor> ModelGraph::gradient_sequence() const {
  const double bwd_total = bwd_flops_per_item();
  std::vector<GradTensor> out;
  double done = 0.0;
  // Walk back-to-front; a layer's parameter gradient is ready once its own
  // backward work has run.
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    done += it->fwd_flops * (it->trainable() ? 2.0 : 1.0);
    if (it->trainable()) {
      GradTensor g;
      g.name = it->name + ".grad";
      g.bytes = it->param_bytes();
      g.ready_fraction = bwd_total > 0.0 ? done / bwd_total : 1.0;
      g.id = std::hash<std::string>{}(g.name);
      out.push_back(std::move(g));
    }
  }
  return out;
}

LayerDesc conv_desc(const std::string& name, std::size_t in_ch,
                    std::size_t out_ch, std::size_t kernel, std::size_t stride,
                    std::size_t padding, std::size_t in_h, std::size_t in_w,
                    bool bias) {
  DLSR_CHECK(stride >= 1, "conv stride must be >= 1");
  const std::size_t out_h = (in_h + 2 * padding - kernel) / stride + 1;
  const std::size_t out_w = (in_w + 2 * padding - kernel) / stride + 1;
  LayerDesc l;
  l.name = name;
  l.kind = "conv";
  l.fwd_flops = 2.0 * static_cast<double>(kernel * kernel * in_ch) *
                static_cast<double>(out_ch * out_h * out_w);
  l.input_bytes = in_ch * in_h * in_w * sizeof(float);
  l.output_bytes = out_ch * out_h * out_w * sizeof(float);
  l.param_count = out_ch * in_ch * kernel * kernel + (bias ? out_ch : 0);
  return l;
}

LayerDesc relu_desc(const std::string& name, std::size_t ch, std::size_t h,
                    std::size_t w) {
  LayerDesc l;
  l.name = name;
  l.kind = "relu";
  l.fwd_flops = static_cast<double>(ch * h * w);
  l.input_bytes = l.output_bytes = ch * h * w * sizeof(float);
  return l;
}

LayerDesc bn_desc(const std::string& name, std::size_t ch, std::size_t h,
                  std::size_t w) {
  LayerDesc l;
  l.name = name;
  l.kind = "bn";
  // normalize + scale + shift: ~4 ops/element
  l.fwd_flops = 4.0 * static_cast<double>(ch * h * w);
  l.input_bytes = l.output_bytes = ch * h * w * sizeof(float);
  l.param_count = 2 * ch;  // affine gamma/beta
  return l;
}

LayerDesc linear_desc(const std::string& name, std::size_t in_features,
                      std::size_t out_features) {
  LayerDesc l;
  l.name = name;
  l.kind = "linear";
  l.fwd_flops = 2.0 * static_cast<double>(in_features * out_features);
  l.input_bytes = in_features * sizeof(float);
  l.output_bytes = out_features * sizeof(float);
  l.param_count = in_features * out_features + out_features;
  return l;
}

}  // namespace dlsr::models
