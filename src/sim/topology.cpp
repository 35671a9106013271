#include "sim/topology.hpp"

#include "common/units.hpp"

namespace dlsr::sim {

ClusterSpec ClusterSpec::lassen(std::size_t nodes) {
  ClusterSpec s;
  s.nodes = nodes;
  s.gpus_per_node = 4;
  s.ib_ports_per_node = 2;
  // NVLink2 bundle: 3 links x 25 GB/s per GPU.
  s.nvlink_port = LinkSpec{gbps(75.0), microseconds(5.0)};
  // Host staging path: D2H copy + CPU-side shared-memory copy + H2D copy
  // through Power9 memory; the node-wide effective staging throughput.
  s.host_bus = LinkSpec{gbps(19.0), microseconds(15.0)};
  // InfiniBand EDR: 100 Gbit/s = 12.5 GB/s per port.
  s.ib_port = LinkSpec{gbps(12.5), microseconds(2.0)};
  return s;
}

ClusterSpec ClusterSpec::longhorn(std::size_t nodes) {
  DLSR_CHECK(nodes <= 96, "Longhorn has 96 GPU nodes");
  ClusterSpec s = lassen(nodes);
  s.ib_ports_per_node = 1;  // single-rail EDR
  return s;
}

Cluster::Cluster(ClusterSpec spec) : spec_(spec) {
  DLSR_CHECK(spec_.nodes > 0 && spec_.gpus_per_node > 0,
             "cluster must have nodes and GPUs");
  DLSR_CHECK(spec_.ib_ports_per_node > 0, "nodes need at least one IB port");
  gpu_ports_.reserve(total_gpus());
  for (std::size_t g = 0; g < total_gpus(); ++g) {
    gpu_ports_.emplace_back(spec_.nvlink_port, LinkKind::Nvlink, g);
  }
  host_buses_.reserve(spec_.nodes);
  ib_ports_.reserve(spec_.nodes * spec_.ib_ports_per_node);
  for (std::size_t n = 0; n < spec_.nodes; ++n) {
    host_buses_.emplace_back(spec_.host_bus, LinkKind::HostBus, n);
    for (std::size_t p = 0; p < spec_.ib_ports_per_node; ++p) {
      ib_ports_.emplace_back(spec_.ib_port, LinkKind::Ib, n, p);
    }
  }
}

std::size_t Cluster::socket_of(std::size_t rank) const {
  DLSR_CHECK(spec_.gpus_per_socket > 0, "gpus_per_socket must be positive");
  return local_of(rank) / spec_.gpus_per_socket;
}

bool Cluster::same_socket(std::size_t rank_a, std::size_t rank_b) const {
  return same_node(rank_a, rank_b) && socket_of(rank_a) == socket_of(rank_b);
}

void Cluster::reset() {
  for (auto& l : gpu_ports_) l.reset();
  for (auto& l : host_buses_) l.reset();
  for (auto& l : ib_ports_) l.reset();
}

}  // namespace dlsr::sim
