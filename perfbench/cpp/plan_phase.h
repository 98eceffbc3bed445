// The planning phase every workload runs: rounds of a cold pass over a
// spec list on a fresh OverlapEngine (every spec planned, then every spec
// executed) followed by warm passes of OverlapEngine::Execute on the same
// engine. It yields cold_plans_per_s, warm_replays_per_s and
// sim_speedup_geomean for the workload's own specs: the grid on
// plan_sweep, the key set on the fleets.
#ifndef PERFBENCH_CPP_PLAN_PHASE_H_
#define PERFBENCH_CPP_PLAN_PHASE_H_

#include <cstdint>
#include <vector>

#include "perfbench/cpp/common.h"
#include "perfbench/cpp/workloads.h"
#include "src/core/flashoverlap.h"

namespace perfbench {

flo::ClusterSpec BenchHardware();
flo::EngineOptions BenchOptions();

// Each overlap spec followed by its sequential baseline (specs[2i] overlaps,
// specs[2i + 1] is its non-overlap twin). Overlap specs whose canonical
// plan key repeats an earlier one are dropped.
std::vector<flo::ScenarioSpec> PairWithBaselines(const std::vector<flo::ScenarioSpec>& overlap);

struct PlanPhase {
  size_t specs = 0;
  // Per round: specs / cold-pass seconds; per warm pass: specs / seconds.
  std::vector<double> cold_rates;
  std::vector<double> warm_rates;
  // Per round: every execution of the round / seconds of its passes.
  std::vector<double> round_rates;
  // Pass seconds of the untraced [0] and traced [1] rounds.
  std::vector<double> round_s[2];
  std::vector<flo::OverlapRun> cold_runs;
  size_t cold_searches = 0;
};

// Appends rounds to `phase` until `seconds` have passed and at least
// `min_rounds` ran. With `spans` enabled, odd rounds record spans and even
// rounds run untraced, so the two sets of round times give the tracing
// overhead. Checks that every pass reproduces the phase's first cold pass
// and that warm passes never search.
void RunPlanRounds(const std::vector<flo::ScenarioSpec>& pairs, double seconds, int min_rounds,
                   SpanRecorder* spans, Outcome* out, PlanPhase* phase);

// cold_plans_per_s, warm_replays_per_s and sim_speedup_geomean.
void AddPlanMetrics(const PlanPhase& phase, Result* result);

// Order-sensitive digest of each run's total, predicted time and partition.
std::string RunsDigest(const std::vector<flo::OverlapRun>& runs);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_PLAN_PHASE_H_
