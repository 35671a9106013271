// Quantifies Fig. 6 (and Fig. 7): the "overhead kernel" memory problem.
//
// Fig. 6a: with CUDA_VISIBLE_DEVICES unset, all four of a node's processes
// create a CUDA context on every GPU — 3 foreign contexts per device.
// Fig. 7: the proposed MV2_VISIBLE_DEVICES keeps the framework pinned (no
// foreign contexts) while MPI still sees every device for IPC.
//
// This bench books the actual allocations in the simulator's per-GPU memory
// accountant and reports the breakdown plus the largest training batch that
// still fits under each policy.
#include <cstdio>

#include "bench_util.hpp"
#include "models/edsr_graph.hpp"
#include "mpisim/env.hpp"
#include "perf/v100_model.hpp"
#include "sim/gpu_memory.hpp"
#include "sim/topology.hpp"

int main() {
  using namespace dlsr;
  bench::print_header("Figure 6 / 7",
                      "overhead-kernel GPU memory under visibility policies");

  const models::ModelGraph graph =
      models::build_edsr_graph(models::EdsrConfig::paper(), 48);
  const perf::PerfModel perf_model(perf::GpuSpec::v100_16gb(),
                                   perf::EfficiencyCalibration::edsr());

  struct Policy {
    const char* name;
    mpisim::MpiEnv env;
  };
  Policy policies[] = {
      {"CVD unset (Fig. 6a)",
       [] {
         mpisim::MpiEnv e = mpisim::MpiEnv::mpi_default();
         e.cuda_visible_devices_pinned = false;
         return e;
       }()},
      {"CVD pinned (default)", mpisim::MpiEnv::mpi_default()},
      {"CVD pinned + MV2 (Fig. 7)", mpisim::MpiEnv::mpi_opt()},
  };

  const std::size_t local = sim::ClusterSpec::lassen(1).gpus_per_node;
  const std::size_t gpu_bytes = perf::GpuSpec::v100_16gb().memory_bytes;
  Table t({"Policy", "IPC", "Foreign ctx/GPU", "Ctx GB/GPU",
           "Free for training (GB)", "Max batch"});
  for (const Policy& p : policies) {
    const std::size_t foreign = p.env.foreign_contexts_per_gpu(local);
    // Book every process's context(s) on GPU 0's accountant. Tags are
    // interned once; the booking loop is index-only.
    sim::GpuMemory gpu("gpu0", gpu_bytes);
    const sim::GpuMemory::TagId own = gpu.intern("own-context");
    const sim::GpuMemory::TagId foreign_tag = gpu.intern("foreign-contexts");
    if (!gpu.allocate(own, perf::kCudaContextBytes)) {
      bench::print_note("context allocation failed — unexpected");
    }
    for (std::size_t f = 0; f < foreign; ++f) {
      (void)gpu.allocate(foreign_tag, perf::kCudaContextBytes);
    }
    const std::size_t free_bytes = gpu.available();
    // Largest batch whose remaining training footprint fits.
    std::size_t max_batch = 0;
    for (std::size_t b = 1; b <= 64; ++b) {
      const std::size_t need =
          perf_model.training_memory_bytes(graph, b,
                                           foreign *
                                               perf::kCudaContextBytes);
      if (need <= gpu_bytes) {
        max_batch = b;
      }
    }
    t.add_row({p.name, p.env.ipc_enabled() ? "yes" : "NO",
               strfmt("%zu", foreign),
               strfmt("%.2f", (foreign + 1) * perf::kCudaContextBytes / 1e9),
               strfmt("%.2f", free_bytes / 1e9), strfmt("%zu", max_batch)});
  }
  bench::print_table(t);
  bench::print_note(
      "only the MV2_VISIBLE_DEVICES policy gets both: no foreign contexts "
      "eating device memory AND CUDA IPC available to MPI — the paper's "
      "Fig. 7 configuration");
  return 0;
}
