// Exact-output golden for the simulator. Every simulated figure is
// deterministic, so a change that only makes the simulator faster must
// leave this file byte-identical: img/s, exposed comm, allreduce total and
// registration-cache hit rate as hex floats, an FNV-1a checksum over the
// bit patterns of every step time, and the straggler report.
//
// When the output differs, the test writes what it computed to
// `sim_golden.actual.txt` in its working directory, next to the failure,
// so the difference can be inspected with diff. A deliberate change to the
// simulated numbers replaces tests/data/sim_golden.txt with that file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/strings.hpp"
#include "core/backend_kind.hpp"
#include "core/experiments.hpp"

namespace dlsr::core {
namespace {

constexpr std::size_t kSteps = 60;

std::uint64_t step_checksum(const std::vector<double>& step_times) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (const double t : step_times) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;  // FNV-1a prime
    }
  }
  return h;
}

std::string describe(const std::string& label, const RunResult& r) {
  return strfmt(
      "%s gpus=%zu img_per_s=%a exposed_comm=%a allreduce_total=%a "
      "reg_cache_hit=%a steps=%zu step_fnv=%016llx\n"
      "%s straggler=%s\n",
      label.c_str(), r.gpus, r.images_per_second, r.mean_exposed_comm,
      r.allreduce_time_total, r.reg_cache_hit_rate, r.step_times.size(),
      static_cast<unsigned long long>(step_checksum(r.step_times)),
      label.c_str(), r.straggler.to_json().c_str());
}

std::string simulate_golden_configs() {
  const PaperExperiment exp;
  std::string out;
  const DistributedTrainer paper(exp.graph, exp.perf, exp.job);
  for (const BackendKind kind : {BackendKind::Mpi, BackendKind::MpiReg,
                                 BackendKind::MpiOpt, BackendKind::Nccl}) {
    for (const std::size_t nodes : {1, 2, 16, 128}) {
      out += describe(strfmt("%s nodes=%zu", backend_kind_name(kind), nodes),
                      paper.run(kind, nodes, kSteps));
    }
  }

  // One sick GPU among 512: the straggler detector must name rank 37.
  TrainingJobConfig perturbed = exp.job;
  perturbed.perturb_rank = 37;
  perturbed.perturb_factor = 1.3;
  out += describe(
      "MPI-Opt nodes=128 perturb=37x1.3",
      DistributedTrainer(exp.graph, exp.perf, perturbed)
          .run(BackendKind::MpiOpt, 128, kSteps));

  // The comm-slot scheduler, the quantized wire and a whole slow node.
  TrainingJobConfig slow = exp.job;
  slow.fusion.wire = comm::WireFormat::Fp16;
  slow.fusion.inflight_buffers = 4;
  slow.straggler_slowdown = 1.5;
  slow.straggler_node = 3;
  for (const BackendKind kind : {BackendKind::MpiOpt, BackendKind::Nccl}) {
    out += describe(
        strfmt("%s nodes=16 fp16 inflight=4 slow_node=3x1.5",
               backend_kind_name(kind)),
        DistributedTrainer(exp.graph, exp.perf, slow).run(kind, 16, kSteps));
  }
  return out;
}

TEST(SimGolden, OutputsMatchCheckedInFile) {
  const std::string actual = simulate_golden_configs();
  std::ifstream in(DLSR_TEST_DATA_DIR "/sim_golden.txt");
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() != actual) {
    std::ofstream("sim_golden.actual.txt") << actual;
  }
  ASSERT_TRUE(in.is_open())
      << "missing " DLSR_TEST_DATA_DIR "/sim_golden.txt";
  EXPECT_EQ(expected.str(), actual)
      << "simulated outputs changed; this run's are in "
         "sim_golden.actual.txt";
}

}  // namespace
}  // namespace dlsr::core
