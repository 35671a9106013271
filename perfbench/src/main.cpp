// dlsr_perfbench — runs one benchmark workload in this process and streams
// its records to stdout (see bench.hpp). run.py starts it as a child
// process, measures its peak RSS, and turns the records into metrics.
//
//   dlsr_perfbench --workload <train_fp32|train_bf16|serve_open|sim_scaling|
//                              sim_overlap>
//                  --seed <n> --seconds <s> --trace <0|1>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>

#include "bench.hpp"
#include "common/strings.hpp"

namespace perfbench {
namespace {

std::mutex g_emit_mutex;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: dlsr_perfbench --workload <train_fp32|train_bf16|"
               "serve_open|sim_scaling|sim_overlap> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

}  // namespace

void emit(const std::string& json_object) {
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::fputs(json_object.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void emit_setup(double seconds) {
  emit(dlsr::strfmt(R"({"t":"setup","s":%.9g})", seconds));
}

void emit_plan(std::size_t ops) {
  emit(dlsr::strfmt(R"({"t":"plan","ops":%zu})", ops));
}

void emit_metric(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  emit(dlsr::strfmt(R"({"t":"metric","name":"%s","value":%.9g,"unit":"%s"})",
                    name.c_str(), value, unit));
}

bool emit_check(const std::string& name, bool ok, const std::string& detail) {
  emit(dlsr::strfmt(R"({"t":"check","name":"%s","ok":%s,"detail":"%s"})",
                    name.c_str(), ok ? "true" : "false",
                    json_escape(detail).c_str()));
  return ok;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return perfbench::usage();
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) {
    return perfbench::usage();
  }
  try {
    int rc = 0;
    if (args.workload == "train_fp32") {
      rc = perfbench::run_train(args, /*bf16=*/false);
    } else if (args.workload == "train_bf16") {
      rc = perfbench::run_train(args, /*bf16=*/true);
    } else if (args.workload == "serve_open") {
      rc = perfbench::run_serve(args);
    } else if (args.workload == "sim_scaling") {
      rc = perfbench::run_sim(args, /*overlap=*/false);
    } else if (args.workload == "sim_overlap") {
      rc = perfbench::run_sim(args, /*overlap=*/true);
    } else {
      return perfbench::usage();
    }
    perfbench::emit(R"({"t":"end"})");
    return rc;
  } catch (const std::exception& e) {
    perfbench::emit_check("no_exception", false, e.what());
    std::fprintf(stderr, "dlsr_perfbench: %s\n", e.what());
    return 1;
  }
}
