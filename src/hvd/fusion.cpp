#include "hvd/fusion.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/intervals.hpp"
#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace dlsr::hvd {

namespace {

/// Piecewise backward-compute integrator. Backward performs work at rate 1,
/// except while a collective is in service on a contending backend (NCCL SM
/// contention), where the rate drops to 1/contention. Windows arrive in
/// nondecreasing start order (the comm queue serves FIFO) and are merged
/// into a disjoint union on the fly.
class BackwardProgress {
 public:
  BackwardProgress(sim::SimTime start, double contention)
      : start_(start), c_(contention) {}

  /// Registers an in-service window [s, e).
  void add_window(sim::SimTime s, sim::SimTime e) {
    if (c_ == 1.0) {
      return;  // host-progress backend: comm never slows compute
    }
    s = std::max(s, start_);
    if (e <= s) {
      return;
    }
    if (!merged_.empty() && s <= merged_.back().second) {
      merged_.back().second = std::max(merged_.back().second, e);
    } else {
      merged_.emplace_back(s, e);
    }
  }

  /// Time at which `work` seconds of full-rate backward work complete.
  sim::SimTime time_at_work(double work) const {
    if (c_ == 1.0) {
      return start_ + work;
    }
    sim::SimTime t = start_;
    double remaining = work;
    for (const auto& [s, e] : merged_) {
      if (e <= t) {
        continue;
      }
      if (s > t) {
        const double gap = s - t;
        if (remaining <= gap) {
          return t + remaining;
        }
        remaining -= gap;
        t = s;
      }
      const double contended_work = (e - t) / c_;
      if (remaining <= contended_work) {
        return t + remaining * c_;
      }
      remaining -= contended_work;
      t = e;
    }
    return t + remaining;
  }

 private:
  sim::SimTime start_;
  double c_;
  std::vector<std::pair<sim::SimTime, sim::SimTime>> merged_;
};

}  // namespace

double StepTimeline::exposed_comm() const {
  std::vector<intervals::Interval> busy;
  busy.reserve(messages.size());
  for (const IssuedMessage& m : messages) {
    busy.emplace_back(std::max(m.started_at, backward_end), m.done_at);
  }
  return intervals::covered(std::move(busy));
}

TensorFusionEngine::TensorFusionEngine(FusionConfig config,
                                       comm::AsyncCommBackend& backend)
    : config_(config), backend_(backend) {
  DLSR_CHECK(config_.fusion_threshold > 0, "fusion threshold must be > 0");
  DLSR_CHECK(config_.cycle_time > 0, "cycle time must be > 0");
  DLSR_CHECK(config_.inflight_buffers > 0, "need >= 1 in-flight buffer");
}

StepTimeline TensorFusionEngine::simulate_step(
    const std::vector<models::GradTensor>& grads, sim::SimTime backward_start,
    double backward_duration) {
  DLSR_CHECK(!grads.empty(), "no gradients to reduce");
  obs::ScopedSpan span("hvd", "fusion_step");
  StepTimeline timeline;
  backend_.set_max_inflight(config_.inflight_buffers);

  // Work (full-rate backward seconds) at which each gradient becomes ready,
  // in backward order (grads are already sorted by ready_fraction because
  // gradient_sequence walks layers back to front). Actual ready *times*
  // depend on how much in-service communication stretches backward, so they
  // are integrated on demand.
  struct Pending {
    std::size_t bytes;  ///< logical fp32 bytes
    double work;
    std::uint64_t id;
  };
  DLSR_CHECK(config_.gradient_dtype_bytes == 2 ||
                 config_.gradient_dtype_bytes == 4,
             "gradient dtype must be fp16 or fp32");
  std::vector<Pending> pending;
  pending.reserve(grads.size());
  for (const auto& g : grads) {
    DLSR_CHECK(g.id != 0, "gradient " + g.name + " has no id");
    pending.push_back({g.bytes, g.ready_fraction * backward_duration, g.id});
  }
  // Model gradients are fp32; a compressed wire shrinks the payload on the
  // wire (the backend sizes service with comm::wire_bytes) and charges an
  // explicit (de)quantize conversion on each side of it.
  const comm::WireFormat wire = config_.effective_wire();
  const auto to_wire_bytes = [&](std::size_t logical) {
    comm::CollectiveDesc d;
    d.bytes = logical;
    d.wire = wire;
    d.topk_fraction = config_.topk_fraction;
    return comm::wire_bytes(d);
  };
  const auto quantize_cost = [&](std::size_t logical) {
    return wire == comm::WireFormat::Fp32
               ? 0.0
               : static_cast<double>(logical) / config_.quantize_bandwidth;
  };

  BackwardProgress progress(backward_start, backend_.compute_contention());
  const auto ready_at = [&](std::size_t i) {
    return progress.time_at_work(pending[i].work);
  };
  const auto backward_end_now = [&] {
    return progress.time_at_work(backward_duration);
  };

  // A backend that cannot progress during compute (host-staged MPI) starts
  // every collective after backward finishes.
  const bool overlap = backend_.overlaps_compute();

  sim::SimTime comm_end = backward_start;
  std::size_t next = 0;  // first unreduced tensor
  int msg_priority = 0;  // backward order: earlier layers first
  sim::SimTime cycle = backward_start;
  while (next < pending.size()) {
    const sim::SimTime next_ready = ready_at(next);
    // Once the last tensor is ready (backward complete) the engine flushes
    // immediately instead of waiting out the current cycle.
    const sim::SimTime flush = ready_at(pending.size() - 1);
    sim::SimTime target = cycle + config_.cycle_time;
    // Nothing ready this cycle: skip ahead to the first cycle boundary at or
    // after the next readiness to avoid spinning through empty cycles.
    if (next_ready > target) {
      const double k = std::ceil((next_ready - cycle) / config_.cycle_time);
      target = cycle + k * config_.cycle_time;
    }
    cycle = std::min(target, std::max(flush, next_ready));
    // Negotiation round: a cycle that introduces tensors the coordinator
    // has not seen pays one gather+broadcast; cached tensors are free
    // (Horovod's response cache).
    sim::SimTime cycle_issue = cycle;
    {
      bool uncached = false;
      for (std::size_t i = next;
           i < pending.size() && ready_at(i) <= cycle; ++i) {
        if (cache_.insert(pending[i].id).second) {
          uncached = true;
          ++negotiated_;
        }
      }
      if (uncached) {
        cycle_issue += config_.negotiation_latency;
        // A paid negotiation round (gather+broadcast for tensors the
        // coordinator's response cache has not seen yet).
        OBS_INSTANT("hvd", "negotiation_round");
        OBS_COUNTER("hvd", "negotiated_tensors", negotiated_);
      }
    }
    // Pack ready tensors (in order) into fusion buffers and post each one.
    // The fusion buffer holds the *wire* dtype, so the threshold bounds
    // on-the-wire bytes (an fp16 buffer fuses twice the fp32 tensors).
    while (next < pending.size() && ready_at(next) <= cycle) {
      const std::size_t first = next;  // first tensor packed in this buffer
      std::size_t bytes = 0;       // logical fp32 bytes in the buffer
      std::size_t buf_wire = 0;    // on-the-wire bytes in the buffer
      std::size_t count = 0;
      std::uint64_t solo_id = pending[next].id;
      while (next < pending.size() && ready_at(next) <= cycle) {
        const std::size_t tw = to_wire_bytes(pending[next].bytes);
        if (count > 0 && buf_wire + tw > config_.fusion_threshold) {
          break;  // buffer full; next buffer this same cycle
        }
        bytes += pending[next].bytes;
        buf_wire += tw;
        solo_id = pending[next].id;
        ++count;
        ++next;
        if (buf_wire >= config_.fusion_threshold) {
          break;
        }
      }
      // Fused buffers are persistent double-buffered allocations; a tensor
      // sent alone (oversized or lone straggler) goes from its own storage.
      const bool fused = count > 1;
      const std::uint64_t buf_id =
          fused ? 0xF05EDull + (fusion_buffer_toggle_++ % 2) : solo_id;
      const double pack_cost =
          fused ? 2.0 * static_cast<double>(buf_wire) / config_.copy_bandwidth
                : 0.0;
      // Quantize happens before the wire (delays the issue), dequantize
      // after it (extends completion) — both visible to the analyzer.
      const double q_cost = quantize_cost(bytes);
      sim::SimTime issue = cycle_issue + pack_cost + q_cost;
      if (!overlap) {
        issue = std::max(issue, backward_end_now());
      }
      comm::CollectiveDesc desc;
      desc.op = comm::Op::Allreduce;
      desc.bytes = bytes;
      desc.buf_id = buf_id;
      desc.priority = msg_priority++;
      desc.wire = wire;
      desc.topk_fraction = config_.topk_fraction;
      desc.flow_id = ++next_flow_id_;
      const comm::Handle h = backend_.post(desc, issue);
      // Resolve immediately: the queue serves FIFO, so later posts cannot
      // move this operation's start, and its in-service window must be
      // known before later readiness times are integrated.
      const sim::SimTime wire_done = backend_.wait(h);
      const comm::OpRecord& rec = backend_.record(h);
      progress.add_window(rec.started_at, wire_done);
      const sim::SimTime done = wire_done + q_cost + pack_cost;
      if (obs::tracing_enabled()) {
        // Mirror the post-wire costs after the wire op on the same slot
        // lane, so trace analyzers see the full busy window the step
        // timeline uses (done_at = wire_done + dequantize + unpack), not
        // just the wire time. The pre-wire quantize is mirrored too.
        auto& tracer = obs::Tracer::instance();
        const auto lane =
            obs::kCommLaneBase + static_cast<std::int64_t>(rec.slot);
        if (q_cost > 0.0) {
          tracer.complete("quantize", "comm", (issue - q_cost) * 1e6,
                          q_cost * 1e6,
                          strfmt("{\"bytes\":%zu,\"wire_bytes\":%zu}", bytes,
                                 buf_wire),
                          obs::kSimPid, lane);
          tracer.complete("dequantize", "comm", wire_done * 1e6, q_cost * 1e6,
                          strfmt("{\"bytes\":%zu,\"wire_bytes\":%zu}", bytes,
                                 buf_wire),
                          obs::kSimPid, lane);
        }
        if (pack_cost > 0.0) {
          tracer.complete(
              "unpack", "comm", (wire_done + q_cost) * 1e6, pack_cost * 1e6,
              strfmt("{\"bytes\":%zu,\"tensors\":%zu}", buf_wire, count),
              obs::kSimPid, lane);
        }
        // Causal arrows. The message's own chain starts in the backward
        // span that produced its tensors (compute lane), steps through the
        // wire slice (emitted by the comm layer), and finishes where the
        // reduced results land — the unpack/dequantize mirror, or the wire
        // slice itself for a bare fp32 message. Each contributing tensor
        // additionally fans its own arrow from its readiness point into
        // the wire slice, so a fused buffer visibly joins every layer
        // that fed it. Epsilon keeps the anchors strictly inside their
        // enclosing slices despite %.3f export rounding.
        constexpr double kFlowEpsUs = 0.05;
        const double bw_start_us = backward_start * 1e6;
        const double bw_end_now = backward_end_now();
        const std::string op_name = comm::traced_op_name(desc);
        tracer.flow(obs::EventPhase::FlowStart, desc.flow_id, op_name,
                    "comm",
                    std::max(bw_start_us,
                             std::min(issue, bw_end_now) * 1e6 - kFlowEpsUs),
                    obs::kSimPid);
        tracer.flow(obs::EventPhase::FlowFinish, desc.flow_id, op_name,
                    "comm", done * 1e6 - kFlowEpsUs, obs::kSimPid, lane);
        if (count > 1) {
          for (std::size_t i = first; i < next; ++i) {
            const std::uint64_t tensor_flow = ++next_flow_id_;
            tracer.flow(obs::EventPhase::FlowStart, tensor_flow,
                        "tensor_ready", "comm",
                        std::max(bw_start_us,
                                 ready_at(i) * 1e6 - kFlowEpsUs),
                        obs::kSimPid);
            tracer.flow(obs::EventPhase::FlowFinish, tensor_flow,
                        "tensor_ready", "comm",
                        rec.started_at * 1e6 + kFlowEpsUs, obs::kSimPid,
                        lane);
          }
        }
      }
      comm_end = std::max(comm_end, done);
      timeline.messages.push_back(
          {bytes, buf_wire, count, issue, rec.started_at, done});
    }
  }
  timeline.backward_end = backward_end_now();
  timeline.comm_end = comm_end;
  if (span.active()) {
    span.set_args(strfmt("{\"tensors\":%zu,\"messages\":%zu}", grads.size(),
                         timeline.messages.size()));
  }
  return timeline;
}

}  // namespace dlsr::hvd
