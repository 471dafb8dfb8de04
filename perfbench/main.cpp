// Host-clock benchmark of the DiVE pipeline. Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// Prints the run context, one line per metric (name, value, unit, sample
// count), and as its last line one JSON object (report.h). Exits 1 when an
// output check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "codec/sad_kernels.h"
#include "report.h"
#include "workloads.h"

namespace {

bool parse(int argc, char** argv, perfbench::RunArgs& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args.seconds <= 0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const char* force_scalar = std::getenv("DIVE_FORCE_SCALAR");
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("sad_kernel %s nproc %u%s\n",
              dive::codec::to_string(dive::codec::active_sad_kernel()),
              std::thread::hardware_concurrency(),
              force_scalar != nullptr && std::string(force_scalar) != "0"
                  ? " WARNING: DIVE_FORCE_SCALAR is set, SIMD kernels are off"
                  : "");

  perfbench::Report report;
  if (!perfbench::run_agent_workload(args, report) &&
      !perfbench::run_serve_workload(args, report)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return report.finish();
}
