// FIFO bandwidth resources.
//
// A Link models one serializing transfer resource (an NVLink port, a host
// memory bus, an InfiniBand HCA port). Transfers occupy the link back to
// back: a transfer requested with readiness time `ready` starts at
// max(ready, busy_until) and takes latency + bytes/bandwidth. Contention
// between concurrent transfers therefore emerges from request order, which
// the callers keep deterministic.
//
// A cluster builds ~900 links per 512-GPU point, and a link's name is
// only needed for the trace counter track each booking samples while
// tracing is on. So no name is formatted up front: the first traced
// booking formats it from the link's kind and index and keeps it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"

namespace dlsr::sim {

/// Static link parameters.
struct LinkSpec {
  double bandwidth = 0.0;  ///< bytes/second (effective, not marketing peak)
  double latency = 0.0;    ///< per-transfer setup latency, seconds
};

/// The physical resource a link models; with its index (and port), this
/// names the link's trace counter track.
enum class LinkKind : std::uint8_t {
  Nvlink,   ///< gpu<index>.nvlink
  HostBus,  ///< node<index>.hostbus
  Ib,       ///< node<index>.ib<port>
};

/// One serializing transfer resource with utilization accounting.
class Link {
 public:
  explicit Link(LinkSpec spec, LinkKind kind = LinkKind::Nvlink,
                std::size_t index = 0, std::size_t port = 0);

  /// Trace counter track name, e.g. "gpu3.nvlink" or "node1.ib0".
  std::string name() const;
  const LinkSpec& spec() const { return spec_; }

  /// Books a transfer of `bytes` that becomes ready at `ready`.
  /// Returns its completion time and advances the link occupancy.
  SimTime transfer(SimTime ready, std::size_t bytes) {
    return occupy(ready, bytes, ideal_duration(bytes));
  }

  /// Books an occupancy with an explicitly computed duration. Software
  /// layers (MPI transports, NCCL kernels) reach different effective rates
  /// on the same physical link; they compute the duration and book it here
  /// so contention accounting still happens on the physical resource.
  SimTime occupy(SimTime ready, std::size_t bytes, double duration) {
    DLSR_CHECK(duration >= 0.0, "negative transfer duration");
    duration *= degradation_;
    const SimTime start = std::max(ready, busy_until_);
    busy_until_ = start + duration;
    total_bytes_ += bytes;
    busy_time_ += duration;
    ++transfers_;
    // Link-occupancy counter track: cumulative busy seconds per link, so a
    // trace shows which physical resource saturates during a collective.
    if (obs::tracing_enabled()) {
      if (traced_name_.empty()) {
        traced_name_ = name();
      }
      obs::Tracer::instance().counter(traced_name_, "sim", busy_time_);
    }
    return busy_until_;
  }

  /// Duration such a transfer would take on an idle link.
  double ideal_duration(std::size_t bytes) const {
    return spec_.latency + static_cast<double>(bytes) / spec_.bandwidth;
  }

  SimTime busy_until() const { return busy_until_; }
  std::size_t total_bytes() const { return total_bytes_; }
  double busy_time() const { return busy_time_; }
  std::size_t transfer_count() const { return transfers_; }

  /// Failure injection: stretches every subsequent transfer/occupancy
  /// duration by `factor` (>= 1; 1 = healthy). Models a flapping or
  /// congested link without changing the caller's rate math.
  void degrade(double factor);
  double degradation() const { return degradation_; }

  /// Clears occupancy and statistics (new experiment on the same topology).
  /// Degradation persists across reset (it is a property of the hardware,
  /// not of the run).
  void reset();

 private:
  LinkSpec spec_;
  SimTime busy_until_ = 0.0;
  double degradation_ = 1.0;
  std::size_t total_bytes_ = 0;
  double busy_time_ = 0.0;
  std::size_t transfers_ = 0;
  std::uint32_t index_ = 0;
  std::uint16_t port_ = 0;
  LinkKind kind_ = LinkKind::Nvlink;
  std::string traced_name_;  ///< name(), once a traced booking asked
};

}  // namespace dlsr::sim
