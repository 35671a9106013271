// Cluster topology: nodes, GPUs, and the physical transfer resources.
//
// Models the Lassen node (paper Fig. 8): 4 Tesla V100s per node on an IBM
// Power9 host, GPUs meshed with NVLink2, node connected by dual-rail
// InfiniBand EDR. Per node the simulator exposes:
//   * one NVLink port bundle per GPU (P2P/IPC-class device copies),
//   * one host memory staging bus (D2H + shared-memory + H2D path),
//   * two IB HCA ports (inter-node traffic).
// Software layers (mpisim/ncclsim) decide which resources a transfer uses
// and at what effective rate; the topology provides the shared physical
// links so contention is accounted in one place. The cluster owns links
// only, by value, one contiguous vector per kind: a simulated point builds
// one, so building it is a handful of allocations. Device memory is
// accounted by sim::GpuMemory where a bench asks for it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "sim/link.hpp"

namespace dlsr::sim {

struct ClusterSpec {
  std::size_t nodes = 1;
  std::size_t gpus_per_node = 4;
  /// GPUs per CPU socket (Lassen: 2 sockets x 2 GPUs, Fig. 8); transfers
  /// between sockets cross the X-Bus and run slower than same-socket
  /// NVLink peers.
  std::size_t gpus_per_socket = 2;
  std::size_t ib_ports_per_node = 2;

  LinkSpec nvlink_port;  ///< per-GPU NVLink bundle (physical peak)
  LinkSpec host_bus;     ///< host staging bus shared per node
  LinkSpec ib_port;      ///< one EDR HCA port

  /// LLNL Lassen: 4x V100 (16 GB) per Power9 node, NVLink2,
  /// 2x InfiniBand EDR (12.5 GB/s each). Bandwidths here are physical
  /// peaks; software efficiency lives in the transport layers.
  static ClusterSpec lassen(std::size_t nodes);

  /// TACC Longhorn (the paper's second platform, §IV-A): the same
  /// 4x V100 + Power9 node design, but 96 nodes and a single EDR rail.
  static ClusterSpec longhorn(std::size_t nodes);
};

class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);
  // Backends hold references to the links; a copy would silently split
  // the contention accounting.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterSpec& spec() const { return spec_; }
  std::size_t node_count() const { return spec_.nodes; }
  std::size_t gpus_per_node() const { return spec_.gpus_per_node; }
  std::size_t total_gpus() const { return spec_.nodes * spec_.gpus_per_node; }

  /// One process per GPU: rank <-> (node, local device).
  std::size_t node_of(std::size_t rank) const {
    DLSR_CHECK(rank < total_gpus(), "rank out of range");
    return rank / spec_.gpus_per_node;
  }
  std::size_t local_of(std::size_t rank) const {
    DLSR_CHECK(rank < total_gpus(), "rank out of range");
    return rank % spec_.gpus_per_node;
  }
  bool same_node(std::size_t rank_a, std::size_t rank_b) const {
    return node_of(rank_a) == node_of(rank_b);
  }
  /// Socket index of a rank's GPU within its node.
  std::size_t socket_of(std::size_t rank) const;
  /// Same node AND same CPU socket (direct NVLink peers on Lassen).
  bool same_socket(std::size_t rank_a, std::size_t rank_b) const;

  Link& gpu_port(std::size_t global_gpu) {
    DLSR_CHECK(global_gpu < gpu_ports_.size(), "gpu index out of range");
    return gpu_ports_[global_gpu];
  }
  Link& host_bus(std::size_t node) {
    DLSR_CHECK(node < host_buses_.size(), "node index out of range");
    return host_buses_[node];
  }
  Link& ib_port(std::size_t node, std::size_t port) {
    DLSR_CHECK(node < spec_.nodes && port < spec_.ib_ports_per_node,
               "IB port out of range");
    return ib_ports_[node * spec_.ib_ports_per_node + port];
  }
  /// The node's IB port with the earliest availability (dual-rail use).
  Link& least_busy_ib(std::size_t node) {
    Link* best = &ib_port(node, 0);
    for (std::size_t p = 1; p < spec_.ib_ports_per_node; ++p) {
      Link& candidate = ib_port(node, p);
      if (candidate.busy_until() < best->busy_until()) {
        best = &candidate;
      }
    }
    return *best;
  }

  /// Clears link occupancy between experiments.
  void reset();

 private:
  ClusterSpec spec_;
  std::vector<Link> gpu_ports_;
  std::vector<Link> host_buses_;
  std::vector<Link> ib_ports_;
};

}  // namespace dlsr::sim
