// perfbench: one workload per process.
//
//   perfbench --workload oltp|adhoc|analytic --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--corrupt]
//
// Prints a human-readable report and, as its last line, one JSON object
// with correct/attempted/failed and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). Exits 0 when every check passed, 3 when a
// check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload oltp|adhoc|analytic --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] "
               "[--corrupt]\n");
  return perfbench::kExitError;
}

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    long long v = 0;
    if (arg == "--corrupt") {
      opt.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed" && ParseInt(val, 0, 1LL << 62, &v)) {
      opt.seed = static_cast<uint64_t>(v);
    } else if (arg == "--seconds" && ParseInt(val, 1, 600, &v)) {
      opt.seconds = static_cast<int>(v);
    } else if (arg == "--trace" && ParseInt(val, 0, 1, &v)) {
      opt.trace = v == 1;
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      return Usage();
    }
  }
  if (opt.workload == "oltp") return perfbench::RunOltp(opt);
  if (opt.workload == "adhoc") return perfbench::RunAdhoc(opt);
  if (opt.workload == "analytic") return perfbench::RunAnalytic(opt);
  return Usage();
}
