// Executes an ExecutionPlan on the simulated cluster.
//
// The execution layer of the ScenarioSpec -> OverlapPlanner ->
// ScheduleExecutor pipeline. Each rank gets a device and two streams
// (computation / signal+comm, as in the paper's implementation, Sec. 5),
// and the run is assembled from three composable stages layered on
// src/sim/:
//
//   1. collective rendezvous — one CollectiveOp (or mechanistic
//      RingCollectiveOp) per wave group, shared by all ranks;
//   2. signal dispatcher — per rank and group, a signal kernel that waits
//      on the local counting table and releases on a poll boundary;
//   3. wave scheduler — the GEMM wave loop whose width is whatever SM
//      budget the resident collectives leave over.
//
// The executor owns the simulated devices and is reusable across runs, so
// a batch sweep shares one cluster's SM-pool state instead of rebuilding
// devices per scenario. Each Execute call spins a fresh event queue.
#ifndef SRC_CORE_SCHEDULE_EXECUTOR_H_
#define SRC_CORE_SCHEDULE_EXECUTOR_H_

#include <memory>
#include <vector>

#include "src/comm/collective_op.h"
#include "src/comm/ring_transport.h"
#include "src/core/counting_table.h"
#include "src/core/execution_plan.h"
#include "src/core/engine_options.h"
#include "src/gemm/gemm_model.h"
#include "src/hw/cluster.h"
#include "src/sim/event_queue.h"
#include "src/sim/stream.h"
#include "src/sim/timeline.h"
#include "src/util/rng.h"

namespace flo {

struct GroupTrace {
  int group = 0;
  int tiles = 0;
  double bytes = 0.0;
  SimTime signal_time = 0.0;
  SimTime comm_start = 0.0;
  SimTime comm_end = 0.0;
};

struct OverlapRun {
  SimTime total_us = 0.0;
  SimTime gemm_end_us = 0.0;
  WavePartition partition;
  std::vector<GroupTrace> groups;
  double predicted_us = 0.0;
  // Whether the plan came from the PlanStore (set by OverlapEngine, not
  // the executor): per-spec cache visibility for RunBatch / serving loops.
  bool plan_cache_hit = false;
  // Rank-0 stream timelines, for trace export (src/sim/trace_export.h).
  Timeline gemm_timeline;
  Timeline comm_timeline;
};

class ScheduleExecutor {
 public:
  explicit ScheduleExecutor(ClusterSpec spec);

  const ClusterSpec& cluster() const { return spec_; }

  // Stable per-case seed so every binary prints identical numbers on
  // re-run (jitter is derived from it).
  uint64_t CaseSeed(const GemmShape& shape, CommPrimitive primitive,
                    const WavePartition& partition, uint64_t seed_salt) const;

  // Timed overlapped execution of `plan`. `rank_configs` are the tuned
  // GEMM configurations, one per rank, aligned with plan.group_tiles.
  OverlapRun ExecuteOverlap(const ExecutionPlan& plan,
                            const std::vector<GemmConfig>& rank_configs,
                            const EngineOptions& options, uint64_t case_seed);

  // Counting-table updates (RecordTiles calls) over every overlapped run
  // so far. A wave adds one per group its tiles span, so a run costs at
  // most ranks x (waves + groups) updates however many tiles it has.
  uint64_t counting_updates() const { return counting_updates_; }

  // Sequential baseline: every rank's GEMM runs unconstrained (minus any
  // reserved SMs), then the plan's single collective segment moves the full
  // payload once the slowest rank arrives. Closed form — no event queue.
  SimTime ExecuteSequential(const ExecutionPlan& plan,
                            const std::vector<GemmConfig>& rank_configs,
                            const EngineOptions& options, uint64_t case_seed);

 private:
  struct RankState {
    GemmConfig config;
    // Cumulative counting-table targets: group g holds the tiles in
    // [group_ends[g-1], group_ends[g]).
    std::vector<int> group_ends;
    std::unique_ptr<CountingTable> table;
    std::unique_ptr<Stream> gemm_stream;
    std::unique_ptr<Stream> comm_stream;
    int tiles_done = 0;
    int group_cursor = 0;  // the group holding tile `tiles_done`
  };
  struct CollectiveSet {
    // Exactly one of the two entries per group is non-null: the
    // closed-form CollectiveOp or the mechanistic per-step ring transport.
    std::vector<std::unique_ptr<CollectiveOp>> closed_form;
    std::vector<std::unique_ptr<RingCollectiveOp>> ring;
  };

  // Jitter multipliers in [1, 1+amp); 1.0 when jitter is disabled.
  static double JitterFactor(Rng* rng, bool enabled, double amplitude);

  // --- Stages of ExecuteOverlap ---
  std::vector<RankState> BuildRankStates(Simulator* sim, const ExecutionPlan& plan,
                                         const std::vector<GemmConfig>& rank_configs);
  CollectiveSet BuildCollectives(const ExecutionPlan& plan, const EngineOptions& options,
                                 int per_collective_sms, Rng* rng, OverlapRun* run);
  void EnqueueSignalDispatch(Simulator* sim, std::vector<RankState>* ranks,
                             CollectiveSet* collectives, const EngineOptions& options,
                             OverlapRun* run);
  void EnqueueWaveSchedulers(Simulator* sim, std::vector<RankState>* ranks,
                             const EngineOptions& options, Rng* rng);
  // Records one finished wave of `take` tiles: one RecordTiles call per
  // group the wave's tile range overlaps.
  void RecordWave(RankState* state, int take);
  void CollectResults(const std::vector<RankState>& ranks, const CollectiveSet& collectives,
                      const EngineOptions& options, OverlapRun* run);

  ClusterSpec spec_;
  Cluster devices_;
  uint64_t counting_updates_ = 0;
};

}  // namespace flo

#endif  // SRC_CORE_SCHEDULE_EXECUTOR_H_
