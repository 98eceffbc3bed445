// The benchmark's three workloads. Each one builds its inputs from the
// seed, measures for the requested host seconds, checks its outputs, and
// fills an Outcome: end-to-end metrics for an untraced run, per-layer
// metrics (counters, probes and obs figures) for a traced one.
#ifndef PERFBENCH_CPP_WORKLOADS_H_
#define PERFBENCH_CPP_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/cpp/common.h"
#include "src/core/flashoverlap.h"
#include "src/obs/obs_plane.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Outcome {
  Result result;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string digest;
};

// Per-layer counters from a fleet run's public reports. A sweep passes an
// empty report and a cluster that never ran: every fleet counter reads 0.
void AddFleetCounters(const flo::FleetReport& report, const flo::ServingCluster& cluster,
                      double rss_delta_mb, Result* result);
// obs.* figures of a traced run's plane (null: no fleet ran, all 0) and
// the median tracing overhead over untraced/traced pairs, in percent.
void AddObsMetrics(flo::ObsPlane* obs, const std::vector<double>& overheads_pct,
                   Result* result);

void RunFleetWorkload(const Args& args, bool churn, SpanRecorder* spans, Outcome* out);
void RunPlanSweep(const Args& args, SpanRecorder* spans, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_WORKLOADS_H_
