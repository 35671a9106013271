#include "sim/link.hpp"

#include "common/strings.hpp"

namespace dlsr::sim {

Link::Link(LinkSpec spec, LinkKind kind, std::size_t index, std::size_t port)
    : spec_(spec),
      index_(static_cast<std::uint32_t>(index)),
      port_(static_cast<std::uint16_t>(port)),
      kind_(kind) {
  DLSR_CHECK(spec_.bandwidth > 0.0, "link bandwidth must be positive");
  DLSR_CHECK(spec_.latency >= 0.0, "link latency must be non-negative");
}

std::string Link::name() const {
  switch (kind_) {
    case LinkKind::Nvlink:
      return strfmt("gpu%u.nvlink", index_);
    case LinkKind::HostBus:
      return strfmt("node%u.hostbus", index_);
    case LinkKind::Ib:
      return strfmt("node%u.ib%u", index_, static_cast<unsigned>(port_));
  }
  return "link";
}

void Link::degrade(double factor) {
  DLSR_CHECK(factor >= 1.0, "degradation factor must be >= 1");
  degradation_ = factor;
}

void Link::reset() {
  busy_until_ = 0.0;
  total_bytes_ = 0;
  busy_time_ = 0.0;
  transfers_ = 0;
}

}  // namespace dlsr::sim
