// Timed per-layer probes for the traced run. Each probe calls one layer's
// public function on the run's own inputs and sizes (peak replica count,
// key set, record count) and reports host time per call. Probes run after
// the fleet or sweep they describe, never inside its timed phase.
#ifndef PERFBENCH_CPP_PROBES_H_
#define PERFBENCH_CPP_PROBES_H_

#include <cstdint>
#include <vector>

#include "perfbench/cpp/common.h"
#include "src/core/flashoverlap.h"

namespace perfbench {

struct ProbeInputs {
  // The run's distinct specs (its key set).
  std::vector<flo::ScenarioSpec> keys;
  // Peak accepting replicas (1 for a single-engine sweep).
  int replicas = 1;
  // The run's records; stats_record_ns re-records a prefix of them.
  const std::vector<flo::RequestRecord>* records = nullptr;
  // Keys the cluster layer hashes (ServingCluster::KeyFor).
  const flo::ServingCluster* cluster = nullptr;
  uint64_t seed = 0;
};

// Runs every probe and adds its metrics (host ns or ms per call) to
// `result`, each probe inside a span named after its layer. Per-probe
// sample counts go to stderr.
void AddLayerProbes(const ProbeInputs& inputs, SpanRecorder* spans, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_PROBES_H_
