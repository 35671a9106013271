// Analytic layer graphs for the SR models, mirroring the trainable modules.
#pragma once

#include "models/edsr.hpp"
#include "models/model_graph.hpp"

namespace dlsr::models {

/// EDSR graph for an LR training patch of `lr_patch` x `lr_patch` pixels.
/// The paper's single-node study (its Figs. 1 and 9) trains on DIV2K patches;
/// the reference EDSR-PyTorch code uses 96x96 HR patches for x2, i.e. a
/// 48x48 LR input.
ModelGraph build_edsr_graph(const EdsrConfig& config, std::size_t lr_patch);

}  // namespace dlsr::models
