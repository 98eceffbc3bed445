// The benchmark binary: runs one workload and prints its result as the
// last line of stdout (one JSON object). Progress goes to stderr.
//
// Usage: flo_perfbench --workload fleet_steady|fleet_churn|plan_sweep
//                      --seed N --seconds S --trace 0|1
//                      [--trace-out file.json]
// --trace 1 reports per-layer metrics and writes the bench-side spans to
// --trace-out as a Chrome trace. A run whose gates fail still prints its
// figures, with "correct": false, and exits 0.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/cpp/common.h"
#include "perfbench/cpp/workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr, "flo_perfbench: %s\n", problem.c_str());
  std::exit(2);
}

int Main(int argc, char** argv) {
  Args args;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.trace && trace_out.empty()) {
    Usage("--trace 1 needs --trace-out");
  }
  SpanRecorder spans(args.trace, args.workload + ":" + std::to_string(args.seed));
  Outcome out;
  {
    ScopedSpan root(&spans, "bench.run");
    if (args.workload == "fleet_steady" || args.workload == "fleet_churn") {
      RunFleetWorkload(args, args.workload == "fleet_churn", &spans, &out);
    } else if (args.workload == "plan_sweep") {
      RunPlanSweep(args, &spans, &out);
    } else {
      Usage("unknown workload " + args.workload);
    }
  }
  if (args.trace) {
    out.result.Check(spans.WriteChromeTrace(trace_out), "cannot write " + trace_out);
  }
  for (const std::string& failure : out.result.failures()) {
    Note("CHECK FAILED: %s", failure.c_str());
  }
  std::printf("digest %s\n", out.digest.c_str());
  std::printf("%s\n", out.result.Json(out.attempted, out.failed).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
