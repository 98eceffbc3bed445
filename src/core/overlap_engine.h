// The FlashOverlap engine: a thin orchestration of the
// ScenarioSpec -> OverlapPlanner -> ScheduleExecutor pipeline.
//
// Describe what to run as a ScenarioSpec (declarative: per-rank shapes,
// primitive, ablation knobs, optional forced partition and per-scenario
// options); the planner turns it into a cached ExecutionPlan; the executor
// replays the plan on the simulated cluster. RunBatch sweeps many specs
// through one shared executor, reusing cached plans — a warm sweep
// performs zero tuner searches.
//
// The legacy Run* entry points survive as one-line shims over
// ScenarioSpec/Execute and are DEPRECATED: new call sites should build a
// ScenarioSpec directly.
#ifndef SRC_CORE_OVERLAP_ENGINE_H_
#define SRC_CORE_OVERLAP_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "src/comm/cost_model.h"
#include "src/core/engine_options.h"
#include "src/core/overlap_planner.h"
#include "src/core/plan_store.h"
#include "src/core/replay_memo.h"
#include "src/core/scenario.h"
#include "src/core/schedule_executor.h"
#include "src/core/tuner.h"
#include "src/core/wave_partition.h"
#include "src/hw/cluster.h"
#include "src/sim/event_queue.h"
#include "src/sim/timeline.h"
#include "src/util/thread_pool.h"

namespace flo {

class OverlapEngine {
 public:
  // What a serving loop needs from one replay: the simulated service time
  // and whether this call's plan lookup hit the store.
  struct ServedRun {
    SimTime total_us = 0.0;
    bool plan_cache_hit = false;
  };

  explicit OverlapEngine(ClusterSpec cluster, TunerConfig tuner_config = {},
                         EngineOptions options = {});

  Tuner& tuner() { return tuner_; }
  OverlapPlanner& planner() { return planner_; }
  // The active store: the engine-owned one, or the shared one after
  // UseSharedPlanStore.
  PlanStore& plan_store() { return *store_; }
  ScheduleExecutor& executor() { return executor_; }
  const ClusterSpec& cluster() const { return cluster_; }
  const EngineOptions& options() const { return options_; }

  // Shared-store mode (the paper's plans are "cached and reusable across
  // serving processes"): repoints the planner at an external, possibly
  // capacity-bounded PlanStore so several engines/serving loops reuse each
  // other's plans. Cross-engine reuse only happens between identical
  // deployments — the canonical key covers cluster and tuner config.
  // Resets planner stats (they described the old store). The replay memo
  // is kept: a memoized replay is a pure function of the canonical key
  // and the engine's options, whichever store serves the plan, and the
  // memo may be shared by a whole fleet (UseSharedReplayMemo).
  void UseSharedPlanStore(std::shared_ptr<PlanStore> store);

  // Shared-memo mode: repoints ExecuteMemoized/ExecuteServed at an
  // external ReplayMemo so several engines replay each distinct scenario
  // once between them. Every engine sharing a memo must have the same
  // cluster, tuner config and EngineOptions (a ServingCluster's replicas
  // do), and all of them must be driven from one thread.
  void UseSharedReplayMemo(std::shared_ptr<ReplayMemo> memo);
  const ReplayMemo& replay_memo() const { return *memo_; }

  // Executes one scenario end to end: plan (cached) then schedule. For
  // ScenarioKind::kNonOverlap only `total_us`, `predicted_us` and
  // `partition` are populated.
  OverlapRun Execute(const ScenarioSpec& spec);

  // Execute with result memoization for serving loops that replay the same
  // scenario many times (fleet runs execute each distinct spec thousands of
  // times). The plan-store lookup still happens on every call — store
  // hit/miss counters, LRU recency, and planner stats advance exactly as
  // with Execute, and plan_cache_hit reflects the fresh lookup — but on a
  // repeat spec the deterministic simulation itself (gemm configs, seeded
  // schedule replay) is skipped and the cached result returned with its
  // traces empty: `groups`, `gemm_timeline` and `comm_timeline` are never
  // memoized, so callers of a memoized run may read only the scalar
  // fields (total_us, predicted_us, gemm_end_us, partition,
  // plan_cache_hit). The memo is keyed by the canonical plan key. Specs
  // carrying per-scenario options bypass the memo entirely (their engine
  // options are not part of the key).
  OverlapRun ExecuteMemoized(const ScenarioSpec& spec);

  // The serving loop's form of ExecuteMemoized, for a caller that already
  // holds `key` == planner().CanonicalKey(spec): same store bookkeeping,
  // same memo, but a memo hit copies neither the plan nor the run — it
  // returns the memoized total and this call's hit/miss.
  ServedRun ExecuteServed(const ScenarioSpec& spec, uint64_t key);

  // Sweeps many scenarios through the shared executor. Plans are reused
  // across calls via the PlanStore, so repeating a sweep performs zero
  // tuner searches; planner().stats() exposes the hit/miss counts. With
  // EngineOptions::tune_threads > 1 a cold sweep first runs every distinct
  // predictive search on a worker pool (PretuneParallel), so tuning cost
  // scales down with cores while results stay bit-identical.
  std::vector<OverlapRun> RunBatch(std::span<const ScenarioSpec> specs);

  // Pre-warms the tuner cache for every spec whose plan is absent from the
  // active store: collects the distinct tuner searches those specs would
  // trigger (balanced Tune or imbalanced TuneImbalanced, see
  // PretuneRequest) and runs them on `threads` workers (sequentially for
  // threads <= 1 or a single request). Returns the claimed searches in
  // spec order (first spec to need a search claims it) — callers charging
  // tuning cost attribute from this list rather than re-deriving the
  // decision. Safe against a shared PlanStore — the tuner single-flights
  // concurrent searches per key, so plans are deterministic regardless of
  // the thread count.
  std::vector<PretuneRequest> PretuneParallel(std::span<const ScenarioSpec> specs,
                                              int threads);

  // Perfect-overlap bound (Sec. 6.4).
  SimTime TheoreticalBest(const GemmShape& shape, CommPrimitive primitive);

  // Observability mirror: exports the tuner's and the active plan
  // store's totals into registry gauges — the checkpoint-poller body
  // serving layers register on an attached ObsPlane.
  void ExportMetrics(MetricsRegistry* registry) const;

  // --- DEPRECATED shims over ScenarioSpec/Execute ---

  // DEPRECATED: use Execute(ScenarioSpec::Overlap(...)).
  OverlapRun RunOverlap(const GemmShape& shape, CommPrimitive primitive,
                        const WavePartition* forced_partition = nullptr);
  // DEPRECATED: use Execute(ScenarioSpec::NonOverlap(...)).total_us.
  SimTime RunNonOverlap(const GemmShape& shape, CommPrimitive primitive);
  // DEPRECATED: use Execute(ScenarioSpec::Misconfigured(...)).
  OverlapRun RunOverlapMisconfigured(const GemmShape& shape, CommPrimitive primitive,
                                     int extra_tiles);
  // DEPRECATED: use Execute(ScenarioSpec::Imbalanced(...)).
  OverlapRun RunOverlapImbalanced(const std::vector<GemmShape>& shapes, CommPrimitive primitive,
                                  const WavePartition* forced_partition = nullptr);
  // DEPRECATED: use Execute(ScenarioSpec::NonOverlapImbalanced(...)).total_us.
  SimTime RunNonOverlapImbalanced(const std::vector<GemmShape>& shapes, CommPrimitive primitive);

 private:
  // `key` is CanonicalKey(spec), computed once by the caller.
  OverlapRun ExecuteInternal(const ScenarioSpec& spec, uint64_t key, bool memoize);

  // The persistent tuning pool, created lazily by the first parallel
  // pretune and reused afterwards (grown if a later call asks for more
  // workers) — per-call pool construction would cost more than the
  // searches it parallelizes now that a B&B search is microseconds.
  ThreadPool& TunePool(int threads);

  ClusterSpec cluster_;
  EngineOptions options_;
  Tuner tuner_;
  PlanStore plan_store_;
  std::shared_ptr<PlanStore> shared_store_;  // set by UseSharedPlanStore
  PlanStore* store_ = &plan_store_;          // the store planner_ memoizes into
  OverlapPlanner planner_;
  ScheduleExecutor executor_;
  std::unique_ptr<ThreadPool> tune_pool_;
  // ExecuteMemoized/ExecuteServed results keyed by canonical plan key:
  // engine-owned by default, the fleet's shared memo after
  // UseSharedReplayMemo. Entries hold runs with every trace cleared;
  // timings are exact because the schedule replay is a pure function of
  // (plan, configs, options, case seed), all derived deterministically
  // from the spec and the engine's identity.
  std::shared_ptr<ReplayMemo> memo_;
};

}  // namespace flo

#endif  // SRC_CORE_OVERLAP_ENGINE_H_
