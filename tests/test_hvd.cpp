// Tests for the Horovod middleware: Tensor Fusion scheduling (time plane)
// and the functional WorkerGroup (data plane).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hvd/backend.hpp"
#include "hvd/fusion.hpp"
#include "hvd/worker_group.hpp"
#include "models/edsr.hpp"
#include "models/edsr_graph.hpp"
#include "nn/optimizer.hpp"
#include "obs/trace.hpp"
#include "obs/trace_summary.hpp"
#include "tensor/tensor_ops.hpp"

namespace dlsr::hvd {
namespace {

std::vector<models::GradTensor> uniform_grads(std::size_t count,
                                              std::size_t bytes_each) {
  std::vector<models::GradTensor> grads;
  for (std::size_t i = 0; i < count; ++i) {
    models::GradTensor g;
    g.name = "t" + std::to_string(i);
    g.bytes = bytes_each;
    g.ready_fraction =
        static_cast<double>(i + 1) / static_cast<double>(count);
    g.id = std::hash<std::string>{}(g.name);
    grads.push_back(g);
  }
  return grads;
}

TEST(FusionEngine, AllTensorsReducedExactlyOnce) {
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
  FusionConfig cfg;
  cfg.fusion_threshold = 4 * 1024 * 1024;
  cfg.cycle_time = 5e-3;
  TensorFusionEngine engine(cfg, backend);
  const auto grads = uniform_grads(40, 512 * 1024);
  const StepTimeline timeline = engine.simulate_step(grads, 0.0, 0.1);
  std::size_t tensors = 0;
  std::size_t bytes = 0;
  for (const auto& m : timeline.messages) {
    tensors += m.tensor_count;
    bytes += m.bytes;
  }
  EXPECT_EQ(tensors, 40u);
  EXPECT_EQ(bytes, 40u * 512 * 1024);
}

TEST(FusionEngine, RespectsFusionThreshold) {
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
  FusionConfig cfg;
  cfg.fusion_threshold = 3 * 512 * 1024;  // 3 tensors per buffer
  cfg.cycle_time = 1.0;                   // one giant cycle
  TensorFusionEngine engine(cfg, backend);
  const auto grads = uniform_grads(10, 512 * 1024);
  const StepTimeline timeline = engine.simulate_step(grads, 0.0, 0.01);
  for (const auto& m : timeline.messages) {
    EXPECT_LE(m.bytes, cfg.fusion_threshold);
    EXPECT_LE(m.tensor_count, 3u);
  }
  EXPECT_GE(timeline.messages.size(), 4u);
}

TEST(FusionEngine, OversizedTensorGoesAlone) {
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
  FusionConfig cfg;
  cfg.fusion_threshold = 1 * 1024 * 1024;
  cfg.cycle_time = 1.0;
  TensorFusionEngine engine(cfg, backend);
  std::vector<models::GradTensor> grads = uniform_grads(2, 256 * 1024);
  models::GradTensor big;
  big.name = "huge";
  big.bytes = 8 * 1024 * 1024;
  big.ready_fraction = 0.5;
  big.id = std::hash<std::string>{}(big.name);
  grads.insert(grads.begin() + 1, big);
  // Re-sort readiness so the engine sees monotone arrival.
  grads[0].ready_fraction = 0.1;
  grads[1].ready_fraction = 0.5;
  grads[2].ready_fraction = 0.9;
  const StepTimeline timeline = engine.simulate_step(grads, 0.0, 0.01);
  bool saw_big = false;
  for (const auto& m : timeline.messages) {
    if (m.bytes >= 8 * 1024 * 1024) {
      EXPECT_EQ(m.tensor_count, 1u);
      saw_big = true;
    }
  }
  EXPECT_TRUE(saw_big);
}

TEST(FusionEngine, FusedBufferFlowsFanInFromEveryContributingTensor) {
  auto& tracer = obs::Tracer::instance();
  tracer.disable();
  tracer.reset();
  tracer.enable();
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
  FusionConfig cfg;
  cfg.fusion_threshold = 3 * 512 * 1024;  // force multi-tensor buffers
  cfg.cycle_time = 1.0;                   // one giant cycle
  TensorFusionEngine engine(cfg, backend);
  const StepTimeline timeline =
      engine.simulate_step(uniform_grads(10, 512 * 1024), 0.0, 0.01);
  const std::string json = tracer.to_chrome_trace_json();
  tracer.disable();
  tracer.reset();

  // Every tensor that rode in a fused (multi-tensor) buffer fans its own
  // "tensor_ready" arrow into the wire slice; solo messages do not.
  std::size_t fused_tensors = 0;
  std::size_t fused_messages = 0;
  for (const auto& m : timeline.messages) {
    if (m.tensor_count > 1) {
      fused_tensors += m.tensor_count;
      ++fused_messages;
    }
  }
  ASSERT_GT(fused_messages, 0u);

  const auto events = obs::parse_trace_events(json);
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> chains;
  std::size_t ready_starts = 0;
  for (const auto& e : events) {
    if (e.phase != 's' && e.phase != 'f') {
      continue;
    }
    auto& [starts, finishes] = chains[e.flow_id];
    starts += e.phase == 's';
    finishes += e.phase == 'f';
    ready_starts += e.phase == 's' && e.name == "tensor_ready";
  }
  EXPECT_EQ(ready_starts, fused_tensors);
  // Message chains + per-tensor chains, each exactly one 's' and one 'f'.
  EXPECT_EQ(chains.size(), timeline.messages.size() + fused_tensors);
  for (const auto& [id, counts] : chains) {
    EXPECT_EQ(counts.first, 1u) << "flow " << id;
    EXPECT_EQ(counts.second, 1u) << "flow " << id;
  }
}

TEST(FusionEngine, FlowIdSequenceIsDeterministicAcrossRuns) {
  // Cross-rank joins in `dlsr trace-merge` depend on every rank's fusion
  // engine minting the same flow-id sequence for the same config: the ids
  // come from an engine-local counter, not the process-global id well.
  const auto flow_ids = [] {
    auto& tracer = obs::Tracer::instance();
    tracer.disable();
    tracer.reset();
    tracer.enable();
    sim::Cluster cluster(sim::ClusterSpec::lassen(1));
    MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
    FusionConfig cfg;
    cfg.fusion_threshold = 3 * 512 * 1024;
    TensorFusionEngine engine(cfg, backend);
    engine.simulate_step(uniform_grads(10, 512 * 1024), 0.0, 0.01);
    // Perturb the global id well between runs: it must not matter.
    obs::new_trace_id();
    std::vector<std::uint64_t> ids;
    for (const auto& e :
         obs::parse_trace_events(tracer.to_chrome_trace_json())) {
      if (e.phase == 's') {
        ids.push_back(e.flow_id);
      }
    }
    tracer.disable();
    tracer.reset();
    return ids;
  };
  const auto first = flow_ids();
  const auto second = flow_ids();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FusionEngine, LargerCycleMakesFewerBiggerMessages) {
  const auto message_count = [&](double cycle) {
    sim::Cluster cluster(sim::ClusterSpec::lassen(1));
    MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
    FusionConfig cfg;
    cfg.fusion_threshold = 256ull * 1024 * 1024;
    cfg.cycle_time = cycle;
    TensorFusionEngine engine(cfg, backend);
    return engine.simulate_step(uniform_grads(64, 1024 * 1024), 0.0, 0.2)
        .messages.size();
  };
  EXPECT_GT(message_count(2e-3), 2 * message_count(50e-3));
}

TEST(FusionEngine, FlushesAtBackwardEnd) {
  // With a huge cycle time the engine must still issue everything once
  // backward completes, not a full cycle later.
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
  FusionConfig cfg;
  cfg.cycle_time = 100.0;  // absurd
  TensorFusionEngine engine(cfg, backend);
  const auto grads = uniform_grads(8, 1024 * 1024);
  const StepTimeline timeline = engine.simulate_step(grads, 1.0, 0.5);
  ASSERT_FALSE(timeline.messages.empty());
  EXPECT_LE(timeline.messages.front().issued_at, 1.5 + 1e-3);  // + pack cost
  EXPECT_LT(timeline.comm_end, 2.5);  // nowhere near cycle_time
}

TEST(FusionEngine, BlockingBackendWaitsForBackward) {
  // Default MPI (no IPC) cannot overlap: no message may start before
  // backward ends.
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  MpiBackend backend(cluster, mpisim::MpiEnv::mpi_default());
  ASSERT_FALSE(backend.overlaps_compute());
  FusionConfig cfg;
  cfg.cycle_time = 10e-3;
  TensorFusionEngine engine(cfg, backend);
  const auto grads = uniform_grads(16, 4 * 1024 * 1024);
  const StepTimeline timeline = engine.simulate_step(grads, 0.0, 0.2);
  for (const auto& m : timeline.messages) {
    EXPECT_GE(m.issued_at, timeline.backward_end);
  }
}

TEST(FusionEngine, OverlappingBackendIssuesDuringBackward) {
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
  ASSERT_TRUE(backend.overlaps_compute());
  FusionConfig cfg;
  cfg.cycle_time = 10e-3;
  TensorFusionEngine engine(cfg, backend);
  const auto grads = uniform_grads(16, 4 * 1024 * 1024);
  const StepTimeline timeline = engine.simulate_step(grads, 0.0, 0.2);
  EXPECT_LT(timeline.messages.front().issued_at, timeline.backward_end);
}

TEST(FusionEngine, ExposedCommDefinition) {
  // Exposed comm is the union of per-message busy time past backward_end,
  // not comm_end - backward_end: messages overlapping on separate in-flight
  // slots must not be double counted.
  StepTimeline t;
  t.backward_end = 2.0;
  t.comm_end = 2.5;
  t.messages.push_back({0, 0, 0, 1.9, 1.9, 2.5});
  EXPECT_DOUBLE_EQ(t.exposed_comm(), 0.5);
  t.messages.back().done_at = 1.5;
  t.comm_end = 1.5;
  EXPECT_DOUBLE_EQ(t.exposed_comm(), 0.0);
}

TEST(FusionEngine, ExposedCommUnionsOverlappingMessages) {
  // Two messages past backward_end: [2.0, 2.6] (clipped from start 1.8)
  // and [2.4, 3.0] overlap on [2.4, 2.6]; the union is 1.0, not the 1.2
  // a per-message sum would report. A third message entirely inside
  // backward adds nothing.
  StepTimeline t;
  t.backward_end = 2.0;
  t.comm_end = 3.0;
  t.messages.push_back({0, 0, 0, 1.7, 1.8, 2.6});
  t.messages.push_back({0, 0, 0, 2.3, 2.4, 3.0});
  t.messages.push_back({0, 0, 0, 0.5, 0.6, 1.4});
  EXPECT_DOUBLE_EQ(t.exposed_comm(), 1.0);
}

TEST(FusionEngine, RealEdsrGradientSequence) {
  // End-to-end through the real model graph: every gradient byte of the
  // paper's EDSR must be communicated.
  const models::ModelGraph graph =
      models::build_edsr_graph(models::EdsrConfig::paper(), 48);
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
  TensorFusionEngine engine(FusionConfig{}, backend);
  const StepTimeline timeline =
      engine.simulate_step(graph.gradient_sequence(), 0.0, 0.25);
  std::size_t bytes = 0;
  for (const auto& m : timeline.messages) {
    bytes += m.bytes;
  }
  EXPECT_EQ(bytes, graph.param_bytes());
}

TEST(Backends, NamesFollowPaper) {
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  EXPECT_EQ(MpiBackend(cluster, mpisim::MpiEnv::mpi_default()).name(), "MPI");
  EXPECT_EQ(MpiBackend(cluster, mpisim::MpiEnv::mpi_reg()).name(), "MPI-Reg");
  EXPECT_EQ(MpiBackend(cluster, mpisim::MpiEnv::mpi_opt()).name(), "MPI-Opt");
  EXPECT_EQ(NcclBackend(cluster).name(), "NCCL");
}


TEST(FusionEngine, ResponseCacheNegotiatesOnlyOnce) {
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
  FusionConfig cfg;
  cfg.cycle_time = 5e-3;
  TensorFusionEngine engine(cfg, backend);
  const auto grads = uniform_grads(12, 1024 * 1024);
  const StepTimeline step1 = engine.simulate_step(grads, 0.0, 0.05);
  EXPECT_EQ(engine.negotiated_tensors(), 12u);
  EXPECT_EQ(engine.cached_tensors(), 12u);
  const StepTimeline step2 =
      engine.simulate_step(grads, step1.comm_end, 0.05);
  // Second step: every tensor served from the response cache.
  EXPECT_EQ(engine.negotiated_tensors(), 12u);
  // And the second step's comm finishes faster (no negotiation rounds).
  const double d1 = step1.comm_end - 0.0;
  const double d2 = step2.comm_end - step1.comm_end;
  EXPECT_LT(d2, d1);
}

TEST(FusionEngine, Fp16HalvesWireBytes) {
  sim::Cluster cluster(sim::ClusterSpec::lassen(1));
  MpiBackend backend(cluster, mpisim::MpiEnv::mpi_opt());
  FusionConfig cfg;
  cfg.gradient_dtype_bytes = 2;
  TensorFusionEngine engine(cfg, backend);
  const auto grads = uniform_grads(4, 1024 * 1024);
  const StepTimeline timeline = engine.simulate_step(grads, 0.0, 0.05);
  std::size_t bytes = 0;
  std::size_t wire = 0;
  for (const auto& m : timeline.messages) {
    bytes += m.bytes;
    wire += m.wire_bytes;
  }
  EXPECT_EQ(bytes, 4u * 1024 * 1024);  // logical fp32 payload unchanged
  EXPECT_EQ(wire, 2u * 1024 * 1024);   // half of 4 MB on the wire
  FusionConfig bad;
  bad.gradient_dtype_bytes = 3;
  TensorFusionEngine broken(bad, backend);
  EXPECT_THROW(broken.simulate_step(grads, 0.0, 0.05), Error);
}

// ------------------------------------------------------------ WorkerGroup --

WorkerGroup make_group(std::size_t workers, std::uint64_t seed_base,
                       double lr = 1e-3) {
  // Give each replica different initial weights on purpose: the broadcast
  // must align them.
  auto seed = std::make_shared<std::uint64_t>(seed_base);
  return WorkerGroup(
      workers,
      [seed]() {
        Rng rng((*seed)++);
        return std::make_unique<models::Edsr>(models::EdsrConfig::tiny(), rng);
      },
      [lr](std::vector<nn::ParamRef> params) {
        return std::make_unique<nn::Adam>(std::move(params), lr);
      });
}

Tensor random_image(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform());
  }
  return t;
}

TEST(WorkerGroupTest, BroadcastSynchronizesReplicas) {
  WorkerGroup group = make_group(3, 100);
  EXPECT_FALSE(group.replicas_in_sync());
  group.broadcast_parameters();
  EXPECT_TRUE(group.replicas_in_sync());
}

TEST(WorkerGroupTest, ReplicasStayInSyncThroughTraining) {
  WorkerGroup group = make_group(4, 200);
  group.broadcast_parameters();
  std::vector<Tensor> inputs;
  std::vector<Tensor> targets;
  for (std::size_t w = 0; w < 4; ++w) {
    inputs.push_back(random_image({1, 3, 6, 6}, 300 + w));
    targets.push_back(random_image({1, 3, 12, 12}, 400 + w));
  }
  for (int step = 0; step < 3; ++step) {
    group.train_step(inputs, targets);
    EXPECT_TRUE(group.replicas_in_sync()) << "step " << step;
  }
}

TEST(WorkerGroupTest, LossDecreases) {
  WorkerGroup group = make_group(2, 500);
  group.broadcast_parameters();
  std::vector<Tensor> inputs = {random_image({1, 3, 6, 6}, 1),
                                random_image({1, 3, 6, 6}, 2)};
  std::vector<Tensor> targets = {random_image({1, 3, 12, 12}, 3),
                                 random_image({1, 3, 12, 12}, 4)};
  double first = 0.0;
  double last = 0.0;
  for (int step = 0; step < 30; ++step) {
    const WorkerStepResult r = group.train_step(inputs, targets);
    if (step == 0) first = r.mean_loss;
    last = r.mean_loss;
  }
  EXPECT_LT(last, 0.8 * first);
}

TEST(WorkerGroupTest, EquivalentToSingleWorkerOnConcatenatedBatch) {
  // The defining data-parallelism property (paper §II-C): K workers with
  // batch shards + gradient averaging == one worker on the full batch.
  const auto make_model = [](std::uint64_t seed) {
    Rng rng(seed);
    return std::make_unique<models::Edsr>(models::EdsrConfig::tiny(), rng);
  };
  // Two workers, same initial weights (seed fixed by broadcast).
  WorkerGroup group(
      2, [&] { return make_model(7); },
      [](std::vector<nn::ParamRef> params) {
        return std::make_unique<nn::Sgd>(std::move(params), 0.01);
      });
  group.broadcast_parameters();

  auto solo = make_model(7);
  nn::Sgd solo_opt(solo->parameters(), 0.01);

  const Tensor in_a = random_image({2, 3, 6, 6}, 11);
  const Tensor in_b = random_image({2, 3, 6, 6}, 12);
  const Tensor tg_a = random_image({2, 3, 12, 12}, 13);
  const Tensor tg_b = random_image({2, 3, 12, 12}, 14);

  group.train_step({in_a, in_b}, {tg_a, tg_b});

  // Concatenate the two shards for the solo model.
  Tensor in_full({4, 3, 6, 6});
  Tensor tg_full({4, 3, 12, 12});
  std::copy(in_a.data().begin(), in_a.data().end(), in_full.data().begin());
  std::copy(in_b.data().begin(), in_b.data().end(),
            in_full.data().begin() + in_a.numel());
  std::copy(tg_a.data().begin(), tg_a.data().end(), tg_full.data().begin());
  std::copy(tg_b.data().begin(), tg_b.data().end(),
            tg_full.data().begin() + tg_a.numel());
  solo->zero_grad();
  const Tensor out = solo->forward(in_full);
  const nn::LossResult loss = nn::l1_loss(out, tg_full);
  solo->backward(loss.grad);
  solo_opt.step();

  // L1-loss gradients average over elements, so per-shard mean-of-means ==
  // full-batch mean when shards are equal size. Weights must match closely.
  const auto group_params = group.worker(0).parameters();
  const auto solo_params = solo->parameters();
  ASSERT_EQ(group_params.size(), solo_params.size());
  for (std::size_t p = 0; p < solo_params.size(); ++p) {
    EXPECT_LT(max_abs_diff(*group_params[p].value, *solo_params[p].value),
              1e-6f)
        << solo_params[p].name;
  }
}

TEST(WorkerGroupTest, Validation) {
  EXPECT_THROW(make_group(0, 1), Error);
  WorkerGroup group = make_group(2, 600);
  EXPECT_THROW(group.train_step({}, {}), Error);
  EXPECT_THROW(group.worker(5), Error);
}

}  // namespace
}  // namespace dlsr::hvd
