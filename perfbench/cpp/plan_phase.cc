#include "perfbench/cpp/plan_phase.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

namespace perfbench {
namespace {

constexpr int kWarmPasses = 2;

std::vector<flo::OverlapRun> ExecutePass(flo::OverlapEngine* engine,
                                         const std::vector<flo::ScenarioSpec>& specs) {
  std::vector<flo::OverlapRun> runs;
  runs.reserve(specs.size());
  for (const flo::ScenarioSpec& spec : specs) {
    runs.push_back(engine->Execute(spec));
  }
  return runs;
}

}  // namespace

flo::ClusterSpec BenchHardware() { return flo::MakeA800Cluster(8); }
flo::EngineOptions BenchOptions() { return flo::EngineOptions{.jitter = false}; }

std::vector<flo::ScenarioSpec> PairWithBaselines(const std::vector<flo::ScenarioSpec>& overlap) {
  flo::Tuner tuner(BenchHardware());
  flo::PlanStore store;
  const flo::OverlapPlanner keyer(&tuner, &store);
  std::set<uint64_t> seen;
  std::vector<flo::ScenarioSpec> pairs;
  for (const flo::ScenarioSpec& spec : overlap) {
    if (!seen.insert(keyer.CanonicalKey(spec)).second) {
      continue;
    }
    pairs.push_back(spec);
    pairs.push_back(spec.imbalanced()
                        ? flo::ScenarioSpec::NonOverlapImbalanced(spec.shapes, spec.primitive)
                        : flo::ScenarioSpec::NonOverlap(spec.shapes[0], spec.primitive));
  }
  return pairs;
}

std::string RunsDigest(const std::vector<flo::OverlapRun>& runs) {
  Digest digest;
  digest.Mix(runs.size());
  for (const flo::OverlapRun& run : runs) {
    digest.MixDouble(run.total_us);
    digest.MixDouble(run.predicted_us);
    digest.Mix(run.partition.group_sizes.size());
    for (const int size : run.partition.group_sizes) {
      digest.Mix(static_cast<uint64_t>(size));
    }
  }
  return digest.Hex();
}

void RunPlanRounds(const std::vector<flo::ScenarioSpec>& pairs, double seconds, int min_rounds,
                   SpanRecorder* spans, Outcome* out, PlanPhase* phase) {
  SpanRecorder untraced(false, "");
  phase->specs = pairs.size();
  const double start = NowS();
  for (int round = 0; round < min_rounds || NowS() - start < seconds; ++round) {
    const bool traced = spans->enabled() && phase->cold_rates.size() % 2 == 1;
    SpanRecorder* recorder = traced ? spans : &untraced;
    flo::OverlapEngine engine(BenchHardware(), flo::TunerConfig{}, BenchOptions());
    const double cold_start = NowS();
    {
      ScopedSpan span(recorder, "planner.cold_plan_pass");
      for (const flo::ScenarioSpec& spec : pairs) {
        engine.planner().Plan(spec);
      }
    }
    std::vector<flo::OverlapRun> cold;
    {
      ScopedSpan span(recorder, "executor.cold_replay_pass");
      cold = ExecutePass(&engine, pairs);
    }
    const double cold_s = NowS() - cold_start;
    const size_t searches = engine.tuner().search_count();
    double round_s = cold_s;
    out->attempted += cold.size();
    for (const flo::OverlapRun& run : cold) {
      out->failed += std::isfinite(run.total_us) && run.total_us > 0.0 ? 0 : 1;
    }
    const std::string cold_digest = RunsDigest(cold);
    if (phase->cold_runs.empty()) {
      phase->cold_runs = std::move(cold);
      phase->cold_searches = searches;
    }
    const std::string digest = RunsDigest(phase->cold_runs);
    out->result.Check(cold_digest == digest && searches == phase->cold_searches,
                      "a cold pass changed the planned runs");
    for (int pass = 0; pass < kWarmPasses; ++pass) {
      const double warm_start = NowS();
      std::vector<flo::OverlapRun> warm;
      {
        ScopedSpan span(recorder, "executor.warm_pass");
        warm = ExecutePass(&engine, pairs);
      }
      const double warm_s = NowS() - warm_start;
      round_s += warm_s;
      phase->warm_rates.push_back(static_cast<double>(pairs.size()) / warm_s);
      out->attempted += warm.size();
      out->result.Check(RunsDigest(warm) == digest, "a warm pass changed the runs");
    }
    out->result.Check(engine.tuner().search_count() == searches,
                      "a warm pass ran a tuner search");
    phase->cold_rates.push_back(static_cast<double>(pairs.size()) / cold_s);
    phase->round_rates.push_back(static_cast<double>(pairs.size() * (1 + kWarmPasses)) /
                                 round_s);
    phase->round_s[traced ? 1 : 0].push_back(round_s);
  }
}

void AddPlanMetrics(const PlanPhase& phase, Result* result) {
  Note("plan phase: %zu specs, %zu rounds of 1 cold + %d warm passes, %zu cold searches",
       phase.specs, phase.cold_rates.size(), kWarmPasses, phase.cold_searches);
  double log_sum = 0.0;
  bool positive = true;
  const std::vector<flo::OverlapRun>& runs = phase.cold_runs;
  for (size_t i = 0; i + 1 < runs.size(); i += 2) {
    positive = positive && runs[i].total_us > 0.0 && runs[i + 1].total_us > 0.0;
    log_sum += std::log(runs[i + 1].total_us / runs[i].total_us);
  }
  result->Check(positive && !runs.empty(), "a simulated time is not positive");
  result->Add("cold_plans_per_s", BestRate(phase.cold_rates), "plans/s");
  result->Add("warm_replays_per_s", BestRate(phase.warm_rates), "replays/s");
  result->Add("sim_speedup_geomean",
              std::exp(log_sum / static_cast<double>(std::max<size_t>(1, runs.size() / 2))),
              "x");
}

}  // namespace perfbench
