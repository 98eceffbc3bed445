#include "perfbench/cpp/probes.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "perfbench/cpp/plan_phase.h"
#include "src/sim/event_loop.h"

namespace perfbench {
namespace {

constexpr int kRounds = 5;

// Fastest of kRounds rounds, in host ns per call, of `body(calls)`.
template <typename Body>
double NsPerCall(int64_t calls, Body body) {
  std::vector<double> per_call;
  for (int round = 0; round < kRounds; ++round) {
    const double start = NowS();
    body(calls);
    per_call.push_back((NowS() - start) * 1e9 / static_cast<double>(calls));
  }
  return BestTime(per_call);
}

// Keeps probe results observable so the calls cannot be elided.
volatile uint64_t g_sink = 0;

// EventLoop Push + dispatch with `population` events live: every dispatch
// pushes one successor until `events` have fired, so the calendar holds
// the population for the whole probe.
double EventNs(int population, uint64_t seed) {
  constexpr int64_t kEvents = 400000;
  return NsPerCall(kEvents, [&](int64_t events) {
    flo::EventLoop loop;
    int64_t remaining = events - population;
    uint32_t handler = 0;
    handler = loop.RegisterHandler([&](const flo::EventRecord& record, flo::SimTime now) {
      if (remaining > 0) {
        --remaining;
        flo::EventRecord next = record;
        next.key = Mix64(record.key);
        loop.Push(now + 1.0 + static_cast<double>(next.key % 4096) * 0.01, next);
      }
    });
    for (int i = 0; i < population; ++i) {
      flo::EventRecord record;
      record.type = flo::EventType::kBatchFinished;
      record.handler = handler;
      record.key = Mix64(seed + static_cast<uint64_t>(i));
      loop.Push(static_cast<double>(record.key % 1000) * 0.01, record);
    }
    loop.RunToCompletion();
    g_sink = g_sink + loop.dispatched();
  });
}

// FleetRouter::Place over a replica-count snapshot vector in the fleet's
// steady state: every replica accepting and holding the key warm, so
// plan affinity compares backlogs across the whole fleet.
double PlaceNs(int replicas, uint64_t seed) {
  std::vector<flo::ReplicaSnapshot> snapshots(static_cast<size_t>(replicas));
  for (int i = 0; i < replicas; ++i) {
    const uint64_t draw = Mix64(seed ^ static_cast<uint64_t>(i));
    flo::ReplicaSnapshot& snapshot = snapshots[static_cast<size_t>(i)];
    snapshot.id = i;
    snapshot.queued_requests = draw % 4;
    snapshot.busy_us = static_cast<double>(draw % 2000);
    snapshot.pending_cost_us = static_cast<double>(snapshot.queued_requests) * 1500.0;
    snapshot.plan_warm = true;
  }
  flo::FleetRouter router(flo::PlacementPolicy::kPlanAffinity);
  return NsPerCall(200000, [&](int64_t calls) {
    uint64_t sum = 0;
    for (int64_t c = 0; c < calls; ++c) {
      // Rotate one backlog so successive placements differ.
      flo::ReplicaSnapshot& moved = snapshots[static_cast<size_t>(c % replicas)];
      moved.busy_us = static_cast<double>((c * 7919) % 2000);
      sum += static_cast<uint64_t>(router.Place(snapshots));
    }
    g_sink = g_sink + sum;
  });
}

double KeyHashNs(const flo::ServingCluster& cluster, const std::vector<flo::ScenarioSpec>& keys) {
  return NsPerCall(200000, [&](int64_t calls) {
    uint64_t sum = 0;
    for (int64_t c = 0; c < calls; ++c) {
      sum += cluster.KeyFor(keys[static_cast<size_t>(c) % keys.size()]);
    }
    g_sink = g_sink + sum;
  });
}

double ContainsNs(const flo::PlanStore& store, const std::vector<uint64_t>& keys) {
  return NsPerCall(400000, [&](int64_t calls) {
    uint64_t hits = 0;
    for (int64_t c = 0; c < calls; ++c) {
      hits += store.Contains(keys[static_cast<size_t>(c) % keys.size()]) ? 1 : 0;
    }
    g_sink = g_sink + hits;
  });
}

// A repeat ExecuteMemoized call: plan lookup plus the memoized result copy.
double MemoHitNs(flo::OverlapEngine* engine, const std::vector<flo::ScenarioSpec>& keys) {
  for (const flo::ScenarioSpec& spec : keys) {
    engine->ExecuteMemoized(spec);
  }
  return NsPerCall(20000, [&](int64_t calls) {
    double sum = 0.0;
    for (int64_t c = 0; c < calls; ++c) {
      sum += engine->ExecuteMemoized(keys[static_cast<size_t>(c) % keys.size()]).total_us;
    }
    g_sink = g_sink + static_cast<uint64_t>(sum);
  });
}

// ServeStats::Record of the run's own records (a prefix, copied first so
// the copy is not timed).
double StatsRecordNs(const std::vector<flo::RequestRecord>& records) {
  const size_t count = std::min<size_t>(records.size(), 200000);
  const std::vector<flo::RequestRecord> prefix(records.begin(),
                                               records.begin() + static_cast<long>(count));
  std::vector<double> per_call;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<flo::RequestRecord> copy = prefix;
    flo::ServeStats stats;
    const double start = NowS();
    for (flo::RequestRecord& record : copy) {
      stats.Record(std::move(record));
    }
    per_call.push_back((NowS() - start) * 1e9 / static_cast<double>(count));
    g_sink = g_sink + stats.count();
  }
  return BestTime(per_call);
}

// Cold planning on a fresh engine, one OverlapPlanner::Plan per overlap
// key: host ms per balanced search (`balanced`) and per imbalanced
// multi-rank search (`multirank`). The first key of each primitive also
// pays the lazily built GEMM profile and latency curve.
void TuneMs(const ProbeInputs& inputs, std::vector<double>* balanced,
            std::vector<double>* multirank) {
  flo::OverlapEngine engine(BenchHardware(), {}, BenchOptions());
  for (const flo::ScenarioSpec& spec : inputs.keys) {
    if (spec.kind != flo::ScenarioKind::kOverlap) {
      continue;
    }
    const double start = NowS();
    const flo::ExecutionPlan& plan = engine.planner().Plan(spec);
    const double ms = (NowS() - start) * 1e3;
    g_sink = g_sink + plan.partition.group_sizes.size();
    (spec.imbalanced() ? multirank : balanced)->push_back(ms);
  }
}

// Warm OverlapEngine::Execute replays (plan cached, no run memo): host ms
// per call, at least 200 samples over the key set. The first pass also
// gives each overlap key's predictor error against the simulated replay,
// |predicted - simulated| / simulated, in percent.
std::vector<double> ReplayMs(flo::OverlapEngine* engine,
                             const std::vector<flo::ScenarioSpec>& keys,
                             std::vector<double>* predict_err_pct) {
  const size_t passes = std::max<size_t>(1, (200 + keys.size() - 1) / keys.size());
  std::vector<double> samples;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (const flo::ScenarioSpec& spec : keys) {
      const double start = NowS();
      const flo::OverlapRun run = engine->Execute(spec);
      samples.push_back((NowS() - start) * 1e3);
      if (pass == 0 && spec.kind == flo::ScenarioKind::kOverlap && run.total_us > 0.0) {
        predict_err_pct->push_back(100.0 * std::abs(run.predicted_us - run.total_us) /
                                   run.total_us);
      }
    }
  }
  return samples;
}

}  // namespace

void AddLayerProbes(const ProbeInputs& inputs, SpanRecorder* spans, Result* result) {
  const std::vector<flo::ScenarioSpec>& keys = inputs.keys;
  // The store, executor and memo probes share one engine warmed on the key
  // set (unbounded store: every key's plan resident).
  flo::OverlapEngine warm(BenchHardware(), {}, BenchOptions());
  for (const flo::ScenarioSpec& spec : keys) {
    warm.Execute(spec);
  }
  const int population = inputs.replicas + 1;
  {
    ScopedSpan span(spans, "sim.event_probe");
    result->Add("sim.event_ns", EventNs(population, inputs.seed), "ns");
  }
  {
    ScopedSpan span(spans, "cluster.place_probe");
    result->Add("cluster.place_ns", PlaceNs(inputs.replicas, inputs.seed), "ns");
  }
  {
    ScopedSpan span(spans, "cluster.key_hash_probe");
    result->Add("cluster.key_hash_ns", KeyHashNs(*inputs.cluster, keys), "ns");
  }
  {
    ScopedSpan span(spans, "store.contains_probe");
    std::vector<uint64_t> plan_keys;
    for (const flo::ScenarioSpec& spec : keys) {
      plan_keys.push_back(warm.planner().CanonicalKey(spec));
    }
    result->Add("store.contains_ns", ContainsNs(warm.plan_store(), plan_keys), "ns");
  }
  {
    ScopedSpan span(spans, "executor.memo_hit_probe");
    result->Add("executor.memo_hit_ns", MemoHitNs(&warm, keys), "ns");
  }
  {
    ScopedSpan span(spans, "serve.stats_record_probe");
    result->Add("serve.stats_record_ns",
                inputs.records->empty() ? 0.0 : StatsRecordNs(*inputs.records), "ns");
  }
  std::vector<double> balanced;
  std::vector<double> multirank;
  {
    ScopedSpan span(spans, "planner.tune_probe");
    TuneMs(inputs, &balanced, &multirank);
  }
  result->Add("planner.tune_ms_p50", Quantile(balanced, 0.5), "ms");
  result->Add("planner.tune_ms_p99", Quantile(balanced, 0.99), "ms");
  result->Add("planner.multirank_tune_ms_p50", Quantile(multirank, 0.5), "ms");
  std::vector<double> replays;
  std::vector<double> predict_err_pct;
  {
    ScopedSpan span(spans, "executor.replay_probe");
    replays = ReplayMs(&warm, keys, &predict_err_pct);
  }
  result->Add("planner.predict_err_p50_pct", Quantile(predict_err_pct, 0.5), "%");
  result->Add("planner.predict_err_p99_pct", Quantile(predict_err_pct, 0.99), "%");
  result->Add("executor.replay_ms_p50", Quantile(replays, 0.5), "ms");
  result->Add("executor.replay_ms_p99", Quantile(replays, 0.99), "ms");
  Note("probes: %zu balanced + %zu multi-rank cold plans, %zu warm replays", balanced.size(),
       multirank.size(), replays.size());
  Note("probes: event %d live x 400000 events, place %d replicas x 200000 calls, "
       "key hash / contains / memo over %zu keys x 200000 / 400000 / 20000 calls, "
       "stats record %zu records; each the fastest of %d rounds",
       population, inputs.replicas, keys.size(),
       std::min<size_t>(inputs.records->size(), 200000), kRounds);
}

}  // namespace perfbench
