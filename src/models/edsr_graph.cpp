#include "models/edsr_graph.hpp"

#include "common/strings.hpp"

namespace dlsr::models {

ModelGraph build_edsr_graph(const EdsrConfig& config, std::size_t lr_patch) {
  ModelGraph g("EDSR");
  const std::size_t k = config.kernel;
  const std::size_t pad = k / 2;
  const std::size_t F = config.n_feats;
  const std::size_t p = lr_patch;

  g.add_layer(conv_desc("head", 3, F, k, 1, pad, p, p));
  for (std::size_t b = 0; b < config.n_resblocks; ++b) {
    g.add_layer(conv_desc(strfmt("body.%zu.conv1", b), F, F, k, 1, pad, p, p));
    g.add_layer(relu_desc(strfmt("body.%zu.relu", b), F, p, p));
    g.add_layer(conv_desc(strfmt("body.%zu.conv2", b), F, F, k, 1, pad, p, p));
  }
  g.add_layer(conv_desc("body_end", F, F, k, 1, pad, p, p));

  // Upsampler: x2/x4 use one/two (conv F->4F + shuffle) stages; x3 one 9x
  // expansion. Matches nn::Upsampler.
  std::size_t cur = p;
  if (config.scale == 2 || config.scale == 4) {
    std::size_t remaining = config.scale;
    std::size_t stage = 0;
    while (remaining > 1) {
      g.add_layer(conv_desc(strfmt("upsample.%zu.conv", stage), F, 4 * F, k, 1,
                            pad, cur, cur));
      LayerDesc shuffle;
      shuffle.name = strfmt("upsample.%zu.shuffle", stage);
      shuffle.kind = "shuffle";
      shuffle.fwd_flops = 0.0;  // pure permutation
      shuffle.input_bytes = 4 * F * cur * cur * sizeof(float);
      shuffle.output_bytes = shuffle.input_bytes;
      g.add_layer(shuffle);
      cur *= 2;
      remaining /= 2;
      ++stage;
    }
  } else if (config.scale == 3) {
    g.add_layer(
        conv_desc("upsample.0.conv", F, 9 * F, k, 1, pad, cur, cur));
    LayerDesc shuffle;
    shuffle.name = "upsample.0.shuffle";
    shuffle.kind = "shuffle";
    shuffle.input_bytes = 9 * F * cur * cur * sizeof(float);
    shuffle.output_bytes = shuffle.input_bytes;
    g.add_layer(shuffle);
    cur *= 3;
  }
  g.add_layer(conv_desc("tail", F, 3, k, 1, pad, cur, cur));
  return g;
}

}  // namespace dlsr::models
