// Tests for the discrete-event engine, link resources, topology, and GPU
// memory accounting.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "mem/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/gpu_memory.hpp"
#include "sim/link.hpp"
#include "sim/topology.hpp"
#include "tensor/tensor.hpp"

namespace dlsr::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.at(3.0, [&] { order.push_back(3); });
  simulator.at(1.0, [&] { order.push_back(1); });
  simulator.at(2.0, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.now(), 3.0);
  EXPECT_EQ(simulator.executed_events(), 3u);
}

TEST(Simulator, TiesBreakBySchedulingOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.at(1.0, [&] { order.push_back(0); });
  simulator.at(1.0, [&] { order.push_back(1); });
  simulator.at(1.0, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, CallbacksScheduleMoreEvents) {
  Simulator simulator;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) {
      simulator.after(1.0, chain);
    }
  };
  simulator.after(1.0, chain);
  simulator.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(simulator.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int fired = 0;
  simulator.at(1.0, [&] { ++fired; });
  simulator.at(5.0, [&] { ++fired; });
  simulator.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulator.now(), 2.0);
  EXPECT_EQ(simulator.pending(), 1u);
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator simulator;
  simulator.at(2.0, [] {});
  simulator.run();
  EXPECT_THROW(simulator.at(1.0, [] {}), Error);
  EXPECT_THROW(simulator.after(-1.0, [] {}), Error);
}

TEST(LinkTest, IdleTransferTiming) {
  Link link(LinkSpec{1e9, 1e-6});
  // 1 MB at 1 GB/s + 1 us latency = 1.001 ms.
  const SimTime done = link.transfer(0.0, 1000000);
  EXPECT_NEAR(done, 1.001e-3, 1e-9);
  EXPECT_EQ(link.total_bytes(), 1000000u);
  EXPECT_EQ(link.transfer_count(), 1u);
}

TEST(LinkTest, FifoSerialization) {
  Link link(LinkSpec{1e9, 0.0});
  const SimTime first = link.transfer(0.0, 1000000);   // ends at 1 ms
  const SimTime second = link.transfer(0.0, 1000000);  // queues behind
  EXPECT_NEAR(first, 1e-3, 1e-12);
  EXPECT_NEAR(second, 2e-3, 1e-12);
  // A transfer ready after the link frees starts at its ready time.
  const SimTime third = link.transfer(5e-3, 1000000);
  EXPECT_NEAR(third, 6e-3, 1e-12);
}

TEST(LinkTest, ExplicitDurationOccupancy) {
  Link link(LinkSpec{1e9, 0.0});
  const SimTime done = link.occupy(1.0, 42, 0.5);
  EXPECT_DOUBLE_EQ(done, 1.5);
  EXPECT_DOUBLE_EQ(link.busy_time(), 0.5);
  EXPECT_THROW(link.occupy(0.0, 1, -1.0), Error);
}

TEST(LinkTest, ResetClearsState) {
  Link link(LinkSpec{1e9, 0.0});
  link.transfer(0.0, 1000);
  link.reset();
  EXPECT_DOUBLE_EQ(link.busy_until(), 0.0);
  EXPECT_EQ(link.total_bytes(), 0u);
  EXPECT_DOUBLE_EQ(link.busy_time(), 0.0);
}

TEST(LinkTest, RejectsBadSpec) {
  EXPECT_THROW(Link(LinkSpec{0.0, 0.0}), Error);
  EXPECT_THROW(Link(LinkSpec{1e9, -1.0}), Error);
}

TEST(Topology, LassenShape) {
  const ClusterSpec spec = ClusterSpec::lassen(128);
  EXPECT_EQ(spec.nodes, 128u);
  EXPECT_EQ(spec.gpus_per_node, 4u);
  EXPECT_EQ(spec.ib_ports_per_node, 2u);
  Cluster cluster(spec);
  EXPECT_EQ(cluster.total_gpus(), 512u);
}

TEST(Topology, RankMapping) {
  Cluster cluster(ClusterSpec::lassen(4));
  EXPECT_EQ(cluster.node_of(0), 0u);
  EXPECT_EQ(cluster.node_of(5), 1u);
  EXPECT_EQ(cluster.local_of(5), 1u);
  EXPECT_EQ(cluster.node_of(15), 3u);
  EXPECT_TRUE(cluster.same_node(4, 7));
  EXPECT_FALSE(cluster.same_node(3, 4));
  EXPECT_THROW(cluster.node_of(16), Error);
}

TEST(Topology, LeastBusyIbAlternates) {
  Cluster cluster(ClusterSpec::lassen(1));
  Link& first = cluster.least_busy_ib(0);
  first.occupy(0.0, 100, 1.0);
  Link& second = cluster.least_busy_ib(0);
  EXPECT_NE(&first, &second);  // dual-rail spreading
  second.occupy(0.0, 100, 2.0);
  EXPECT_EQ(&cluster.least_busy_ib(0), &first);
}

TEST(Topology, ResetClearsEverything) {
  Cluster cluster(ClusterSpec::lassen(2));
  cluster.gpu_port(3).occupy(0.0, 10, 1.0);
  cluster.host_bus(1).occupy(0.0, 20, 2.0);
  cluster.ib_port(1, 1).degrade(2.0);
  cluster.ib_port(1, 1).occupy(0.0, 30, 3.0);
  cluster.reset();
  for (Link* link : {&cluster.gpu_port(3), &cluster.host_bus(1),
                     &cluster.ib_port(1, 1)}) {
    EXPECT_DOUBLE_EQ(link->busy_until(), 0.0);
    EXPECT_DOUBLE_EQ(link->busy_time(), 0.0);
    EXPECT_EQ(link->total_bytes(), 0u);
    EXPECT_EQ(link->transfer_count(), 0u);
  }
  // Degradation is a property of the hardware and survives the reset.
  EXPECT_DOUBLE_EQ(cluster.ib_port(1, 1).degradation(), 2.0);
}

TEST(Topology, LinksNameTheirCounterTracks) {
  Cluster cluster(ClusterSpec::lassen(2));
  EXPECT_EQ(cluster.gpu_port(0).name(), "gpu0.nvlink");
  EXPECT_EQ(cluster.gpu_port(7).name(), "gpu7.nvlink");
  EXPECT_EQ(cluster.host_bus(1).name(), "node1.hostbus");
  EXPECT_EQ(cluster.ib_port(0, 1).name(), "node0.ib1");
  EXPECT_EQ(cluster.ib_port(1, 0).name(), "node1.ib0");
}

TEST(GpuMemoryTest, AllocateReleaseBalance) {
  GpuMemory mem("gpu0", 1000);
  EXPECT_TRUE(mem.allocate("weights", 400));
  EXPECT_TRUE(mem.allocate("activations", 500));
  EXPECT_EQ(mem.used(), 900u);
  EXPECT_EQ(mem.available(), 100u);
  EXPECT_EQ(mem.used_by("weights"), 400u);
  mem.release("weights", 400);
  EXPECT_EQ(mem.used(), 500u);
  EXPECT_EQ(mem.used_by("weights"), 0u);
}

TEST(GpuMemoryTest, OomRefusedWithoutChange) {
  GpuMemory mem("gpu0", 1000);
  EXPECT_TRUE(mem.allocate("a", 900));
  EXPECT_FALSE(mem.allocate("b", 200));
  EXPECT_EQ(mem.used(), 900u);  // failed alloc left no trace
}

TEST(GpuMemoryTest, OverReleaseThrows) {
  GpuMemory mem("gpu0", 1000);
  ASSERT_TRUE(mem.allocate("a", 100));
  EXPECT_THROW(mem.release("a", 200), Error);
  EXPECT_THROW(mem.release("unknown", 1), Error);
}

TEST(GpuMemoryTest, BreakdownTracksTags) {
  GpuMemory mem("gpu0", 1000);
  ASSERT_TRUE(mem.allocate("ctx", 100));
  ASSERT_TRUE(mem.allocate("ctx", 100));
  EXPECT_EQ(mem.breakdown().at("ctx"), 200u);
}

TEST(GpuMemoryTest, InternedTagsAliasTheirStringNames) {
  GpuMemory mem("gpu0", 1000);
  const GpuMemory::TagId ctx = mem.intern("ctx");
  EXPECT_EQ(mem.intern("ctx"), ctx);  // stable across calls
  ASSERT_TRUE(mem.allocate(ctx, 150));
  ASSERT_TRUE(mem.allocate("ctx", 50));  // string path hits the same slot
  EXPECT_EQ(mem.used_by(ctx), 200u);
  EXPECT_EQ(mem.used_by("ctx"), 200u);
  mem.release(ctx, 120);
  EXPECT_EQ(mem.used_by("ctx"), 80u);
  // reset() zeroes balances but keeps interned ids valid.
  mem.reset();
  EXPECT_EQ(mem.used(), 0u);
  ASSERT_TRUE(mem.allocate(ctx, 10));
  EXPECT_EQ(mem.used_by("ctx"), 10u);
}

TEST(GpuMemoryTest, BookPoolPeaksIsAllOrNothing) {
  // Guarantee at least one nonzero pool peak, then book the registry's
  // peaks: a roomy accountant takes them all, a 1-byte one takes nothing.
  const Tensor t(Shape{64},
                 mem::Registry::global().heap(mem::PoolId::kDefault));
  std::size_t total_peak = 0;
  for (std::size_t i = 0; i < mem::kPoolCount; ++i) {
    total_peak += mem::Registry::global()
                      .stats(static_cast<mem::PoolId>(i))
                      .peak_live_bytes;
  }
  ASSERT_GT(total_peak, 0u);

  GpuMemory roomy("gpu0", 2 * total_peak + 1);
  EXPECT_TRUE(roomy.book_pool_peaks(mem::Registry::global()));
  EXPECT_EQ(roomy.used(), total_peak);
  EXPECT_GE(roomy.used_by("pool/default"), 64 * sizeof(float));

  GpuMemory tiny("gpu1", 1);
  EXPECT_FALSE(tiny.book_pool_peaks(mem::Registry::global()));
  EXPECT_EQ(tiny.used(), 0u);  // failed booking left no trace
  EXPECT_TRUE(tiny.breakdown().empty());

  // Scale shifts the whole booking (simulating N replicas per device).
  GpuMemory doubled("gpu2", 4 * total_peak + 4);
  EXPECT_TRUE(doubled.book_pool_peaks(mem::Registry::global(), 2.0));
  EXPECT_GE(doubled.used(), 2 * total_peak - mem::kPoolCount);
}


TEST(Topology, SocketMapping) {
  Cluster cluster(ClusterSpec::lassen(2));
  // Lassen: 2 GPUs per socket -> locals {0,1} socket 0, {2,3} socket 1.
  EXPECT_EQ(cluster.socket_of(0), 0u);
  EXPECT_EQ(cluster.socket_of(1), 0u);
  EXPECT_EQ(cluster.socket_of(2), 1u);
  EXPECT_EQ(cluster.socket_of(3), 1u);
  EXPECT_TRUE(cluster.same_socket(0, 1));
  EXPECT_FALSE(cluster.same_socket(1, 2));
  // Same local socket index on different nodes is NOT the same socket.
  EXPECT_FALSE(cluster.same_socket(0, 4));
  EXPECT_EQ(cluster.socket_of(6), 1u);
}

}  // namespace
}  // namespace dlsr::sim
