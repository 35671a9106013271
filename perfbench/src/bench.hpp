// Shared pieces of the benchmark executable: run arguments, the record stream
// the parent (run.py) aggregates, and small timing helpers.
//
// Every record is one JSON object on its own stdout line, flushed at once,
// so a child that dies on a signal leaves every finished operation behind:
//   {"t":"setup","s":S}              one set-up repetition (seconds)
//   {"t":"plan","ops":N}             operations the timed phase will attempt
//   {"t":"op",...}                   one finished operation
//   {"t":"check","name":..,"ok":..}  one correctness check
//   {"t":"metric","name":..,"value":..,"unit":..}  a per-layer figure
//   {"t":"end"}                      the child finished normally
// Library logs go to stderr and never mix with the records.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Writes one record line (a JSON object without the trailing newline).
void emit(const std::string& json_object);

void emit_setup(double seconds);
void emit_plan(std::size_t ops);
void emit_metric(const std::string& name, double value, const char* unit);
/// Records a check; returns `ok` so callers can chain.
bool emit_check(const std::string& name, bool ok, const std::string& detail);

/// Mixes a workload salt into the run seed (splitmix64), so workloads that
/// share a seed still draw unrelated inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

// Workload entry points (one per BENCHMARK.json workload).
int run_train(const Args& args, bool bf16);
int run_serve(const Args& args);
int run_sim(const Args& args, bool overlap);

}  // namespace perfbench
