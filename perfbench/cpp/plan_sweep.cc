// plan_sweep: one closed-loop caller sweeping the paper's operator grid
// through an OverlapEngine; no fleet layer runs. The set-up builds the
// seeded grid; the timed phase is the plan phase (cold pass on a fresh
// engine, then warm passes) repeated for the requested seconds.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/cpp/plan_phase.h"
#include "perfbench/cpp/probes.h"
#include "perfbench/cpp/workloads.h"
#include "src/core/flashoverlap.h"
#include "src/models/e2e.h"
#include "src/models/shapes.h"

namespace perfbench {
namespace {

constexpr int kImbalancedSets = 24;
// Bases of the imbalanced multisets. Larger All-to-All bases exhaust the
// multi-rank search's node budget (seconds per plan), which would make the
// pass time depend on the draw.
constexpr int64_t kMoeBaseM[4] = {2048, 3072, 4096, 6144};
constexpr int kMinRounds = 3;
constexpr int kSetupSamples = 5;
// Building the grid takes well under a millisecond: each set-up sample
// repeats it for at least this long (see SecondsPerCall).
constexpr double kSetupSampleS = 0.05;

std::vector<flo::GemmShape> HeatmapShapes(const flo::HeatmapAxes& axes) {
  std::vector<flo::GemmShape> shapes;
  for (const int k_ki : axes.k_ki) {
    for (const int mn : axes.mn_mi) {
      shapes.push_back(flo::GemmShape{static_cast<int64_t>(mn) * 1024 * 1024 / axes.n, axes.n,
                                      static_cast<int64_t>(k_ki) * 1024});
    }
  }
  return shapes;
}

// The seeded grid, paired with baselines: Table 3 operator shapes for all
// four primitives, the Fig. 11 GEMM+RS shapes and both Fig. 13 heatmap
// axes, each with K moved by a seeded 0-3 steps of 64 (so each seed is its
// own draw around the paper's grid while tile counts, and the host work
// per replay, stay fixed), plus kImbalancedSets distinct imbalanced
// All-to-All rank-shape multisets; order shuffled by the seed.
std::vector<flo::ScenarioSpec> MakeGrid(uint64_t seed) {
  uint64_t draw = seed;
  std::vector<flo::ScenarioSpec> overlap;
  auto add = [&](flo::GemmShape shape, flo::CommPrimitive primitive) {
    draw = Mix64(draw);
    shape.k += 64 * static_cast<int64_t>(draw % 4);
    overlap.push_back(flo::ScenarioSpec::Overlap(shape, primitive));
  };
  for (const flo::CommPrimitive primitive :
       {flo::CommPrimitive::kAllReduce, flo::CommPrimitive::kReduceScatter,
        flo::CommPrimitive::kAllGather, flo::CommPrimitive::kAllToAll}) {
    for (const flo::GemmShape& shape : flo::OperatorShapes(primitive, true)) {
      add(shape, primitive);
    }
  }
  for (const flo::GemmShape& shape : flo::TypicalRsShapes()) {
    add(shape, flo::CommPrimitive::kReduceScatter);
  }
  for (const flo::GemmShape& shape : HeatmapShapes(flo::HeatmapAxesA800())) {
    add(shape, flo::CommPrimitive::kAllReduce);
  }
  for (const flo::GemmShape& shape : HeatmapShapes(flo::HeatmapAxes4090())) {
    add(shape, flo::CommPrimitive::kReduceScatter);
  }
  std::vector<flo::ScenarioSpec> imbalanced;
  for (int attempt = 0; static_cast<int>(imbalanced.size()) < kImbalancedSets && attempt < 1000;
       ++attempt) {
    draw = Mix64(draw);
    const flo::GemmShape base{kMoeBaseM[draw % 4], 8192, (draw >> 8) % 2 == 0 ? 4096 : 6144};
    const double imbalance = 1.1 + 0.1 * static_cast<double>((draw >> 20) % 10);
    flo::ScenarioSpec spec = flo::ScenarioSpec::Imbalanced(
        flo::ImbalancedShapes(base, 8, imbalance), flo::CommPrimitive::kAllToAll);
    if (std::find(imbalanced.begin(), imbalanced.end(), spec) == imbalanced.end()) {
      imbalanced.push_back(std::move(spec));
    }
  }
  overlap.insert(overlap.end(), imbalanced.begin(), imbalanced.end());
  Shuffle(&overlap, draw);
  return PairWithBaselines(overlap);
}

}  // namespace

void RunPlanSweep(const Args& args, SpanRecorder* spans, Outcome* out) {
  std::vector<flo::ScenarioSpec> grid;
  std::vector<double> setups;
  {
    ScopedSpan span(spans, "bench.setup");
    for (int sample = 0; sample < kSetupSamples; ++sample) {
      setups.push_back(SecondsPerCall(kSetupSampleS, [&] { grid = MakeGrid(args.seed); }));
    }
  }
  PlanPhase phase;
  RunPlanRounds(grid, args.seconds, kMinRounds, spans, out, &phase);
  out->digest = RunsDigest(phase.cold_runs);
  // The sweep's simulated latency sample: one overlapped execution per
  // overlap spec of the grid.
  std::vector<double> overlap_ms;
  for (size_t i = 0; i < phase.cold_runs.size(); i += 2) {
    overlap_ms.push_back(phase.cold_runs[i].total_us / 1e3);
  }
  Note("plan_sweep: %zu specs, sim latency over %zu overlap executions", grid.size(),
       overlap_ms.size());
  if (!args.trace) {
    out->result.Add("requests_per_s", BestRate(phase.round_rates), "req/s");
    out->result.Add("setup_s", Median(setups), "s");
    out->result.Add("peak_rss_mb", PeakRssMb(), "MB");
    out->result.Add("sim_p50_ms", Quantile(overlap_ms, 0.5), "ms");
    out->result.Add("sim_p99_ms", Quantile(overlap_ms, 0.99), "ms");
    AddPlanMetrics(phase, &out->result);
    return;
  }
  // No fleet runs here: every fleet counter and obs figure reads 0; the
  // probes run at this sweep's sizes (one engine, the grid's specs).
  flo::ClusterConfig config;
  config.replicas = 1;
  const flo::ServingCluster cluster(BenchHardware(), config, flo::TunerConfig{},
                                    BenchOptions());
  AddFleetCounters(flo::FleetReport{}, cluster, 0.0, &out->result);
  out->result.Add("planner.searches", static_cast<double>(phase.cold_searches), "count");
  std::vector<double> overheads;
  for (size_t i = 0; i < std::min(phase.round_s[0].size(), phase.round_s[1].size()); ++i) {
    overheads.push_back(100.0 * (phase.round_s[1][i] / phase.round_s[0][i] - 1.0));
  }
  AddObsMetrics(nullptr, overheads, &out->result);

  // One record per overlapped execution, back to back on one executor, so
  // stats_record_ns has this run's record count.
  std::vector<flo::RequestRecord> records;
  double clock_us = 0.0;
  for (size_t i = 0; i < overlap_ms.size(); ++i) {
    flo::RequestRecord record;
    record.id = static_cast<int64_t>(i);
    record.tenant = "sweep";
    record.arrival_us = clock_us;
    record.start_us = clock_us;
    clock_us += overlap_ms[i] * 1e3;
    record.finish_us = clock_us;
    record.plan_cache_hit = true;
    records.push_back(std::move(record));
  }
  ProbeInputs inputs;
  inputs.keys = grid;
  inputs.replicas = 1;
  inputs.records = &records;
  inputs.cluster = &cluster;
  inputs.seed = args.seed;
  AddLayerProbes(inputs, spans, &out->result);
}

}  // namespace perfbench
