#include "reference.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

namespace perfbench {
namespace {

/// A CHW image of one sample.
struct Image {
  std::size_t c = 0;
  std::size_t h = 0;
  std::size_t w = 0;
  std::vector<float> v;

  float& at(std::size_t ci, std::size_t y, std::size_t x) {
    return v[(ci * h + y) * w + x];
  }
  float at(std::size_t ci, std::size_t y, std::size_t x) const {
    return v[(ci * h + y) * w + x];
  }
};

template <typename ConvT>
Image conv(const Image& in, const ConvT& c) {
  if (in.c != c.cin) {
    throw std::runtime_error("reference conv: channel mismatch");
  }
  Image out{c.cout, in.h, in.w, std::vector<float>(c.cout * in.h * in.w)};
  const long pad = static_cast<long>(c.k / 2);
  for (std::size_t co = 0; co < c.cout; ++co) {
    for (std::size_t y = 0; y < in.h; ++y) {
      for (std::size_t x = 0; x < in.w; ++x) {
        double acc = c.b.empty() ? 0.0 : c.b[co];
        for (std::size_t ci = 0; ci < c.cin; ++ci) {
          for (std::size_t ky = 0; ky < c.k; ++ky) {
            const long iy = static_cast<long>(y + ky) - pad;
            if (iy < 0 || iy >= static_cast<long>(in.h)) {
              continue;
            }
            for (std::size_t kx = 0; kx < c.k; ++kx) {
              const long ix = static_cast<long>(x + kx) - pad;
              if (ix < 0 || ix >= static_cast<long>(in.w)) {
                continue;
              }
              acc += static_cast<double>(
                         c.w[((co * c.cin + ci) * c.k + ky) * c.k + kx]) *
                     in.at(ci, static_cast<std::size_t>(iy),
                           static_cast<std::size_t>(ix));
            }
          }
        }
        out.at(co, y, x) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

void add_rgb(Image& img, const std::array<float, 3>& mean, float sign) {
  for (std::size_t ci = 0; ci < 3; ++ci) {
    for (std::size_t i = 0; i < img.h * img.w; ++i) {
      img.v[ci * img.h * img.w + i] += sign * mean[ci];
    }
  }
}

}  // namespace

ReferenceEdsr::ReferenceEdsr(dlsr::models::Edsr& model)
    : config_(model.config()) {
  if (config_.scale != 2) {
    throw std::runtime_error("reference EDSR supports x2 only");
  }
  std::map<std::string, dlsr::Tensor*> params;
  for (const dlsr::nn::ParamRef& p : model.parameters()) {
    params[p.name] = p.value;
  }
  const auto load = [&params](const std::string& base) {
    const auto w = params.find(base + ".weight");
    if (w == params.end()) {
      throw std::runtime_error("reference EDSR: missing " + base);
    }
    Conv c;
    c.cout = w->second->dim(0);
    c.cin = w->second->dim(1);
    c.k = w->second->dim(2);
    c.w.assign(w->second->raw(), w->second->raw() + w->second->numel());
    if (const auto b = params.find(base + ".bias"); b != params.end()) {
      c.b.assign(b->second->raw(), b->second->raw() + b->second->numel());
    }
    return c;
  };
  head_ = load("edsr.head");
  for (std::size_t i = 0; i < config_.n_resblocks; ++i) {
    const std::string base = "edsr.body." + std::to_string(i);
    body_.push_back(load(base + ".conv1"));
    body_.push_back(load(base + ".conv2"));
  }
  body_end_ = load("edsr.body_end");
  upsample_ = load("edsr.upsample.0.conv");
  tail_ = load("edsr.tail");
}

dlsr::Tensor ReferenceEdsr::forward(const dlsr::Tensor& lr) const {
  if (lr.rank() != 4 || lr.dim(0) != 1 || lr.dim(1) != 3) {
    throw std::runtime_error("reference EDSR expects a [1,3,h,w] image");
  }
  Image x{3, lr.dim(2), lr.dim(3),
          std::vector<float>(lr.raw(), lr.raw() + lr.numel())};
  add_rgb(x, config_.rgb_mean, -1.0f);
  x = conv(x, head_);
  const Image skip = x;
  for (std::size_t i = 0; i < body_.size(); i += 2) {
    Image branch = conv(x, body_[i]);
    for (float& v : branch.v) {
      v = v > 0.0f ? v : 0.0f;
    }
    branch = conv(branch, body_[i + 1]);
    for (std::size_t j = 0; j < branch.v.size(); ++j) {
      branch.v[j] = branch.v[j] * config_.res_scale + x.v[j];
    }
    x = std::move(branch);
  }
  x = conv(x, body_end_);
  for (std::size_t j = 0; j < x.v.size(); ++j) {
    x.v[j] += skip.v[j];
  }
  // Sub-pixel x2: channel c*4 + dy*2 + dx lands at (2y+dy, 2x+dx).
  const Image up = conv(x, upsample_);
  Image shuffled{up.c / 4, up.h * 2, up.w * 2,
                 std::vector<float>(up.v.size())};
  for (std::size_t c = 0; c < shuffled.c; ++c) {
    for (std::size_t y = 0; y < up.h; ++y) {
      for (std::size_t xx = 0; xx < up.w; ++xx) {
        for (std::size_t dy = 0; dy < 2; ++dy) {
          for (std::size_t dx = 0; dx < 2; ++dx) {
            shuffled.at(c, 2 * y + dy, 2 * xx + dx) =
                up.at(c * 4 + dy * 2 + dx, y, xx);
          }
        }
      }
    }
  }
  Image out = conv(shuffled, tail_);
  add_rgb(out, config_.rgb_mean, +1.0f);
  return dlsr::Tensor({1, 3, out.h, out.w}, std::move(out.v));
}

double edsr_forward_flops(const dlsr::models::EdsrConfig& c, double h,
                          double w) {
  const double k2 = static_cast<double>(c.kernel * c.kernel);
  const double f = static_cast<double>(c.n_feats);
  const double blocks = static_cast<double>(c.n_resblocks);
  double macs = 3.0 * f;                 // head
  macs += f * f * (2.0 * blocks + 1.0);  // residual blocks, body end
  macs += f * 4.0 * f;                   // upsample conv
  macs += 4.0 * f * 3.0;                 // tail, on 4x the pixels
  return 2.0 * macs * k2 * h * w;
}

double max_rel_error(const dlsr::Tensor& a, const dlsr::Tensor& b) {
  if (a.shape() != b.shape()) {
    return std::numeric_limits<double>::infinity();
  }
  double max_diff = 0.0;
  double max_ref = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff, std::fabs(static_cast<double>(a[i]) - b[i]));
    max_ref = std::max(max_ref, std::fabs(static_cast<double>(b[i])));
  }
  return max_ref > 0.0 ? max_diff / max_ref : max_diff;
}

}  // namespace perfbench
