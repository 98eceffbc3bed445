// The fleet's per-request hot path: index-backed placement, the shared
// replay memo and one canonical key per request, each pinned against the
// reference it replaced — FleetRouter::Place over per-replica snapshots,
// full replays (ServeConfig::memoize_runs off) and per-call hashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/fleet_router.h"
#include "src/cluster/serving_cluster.h"
#include "src/core/overlap_engine.h"
#include "src/fault/fault_schedule.h"
#include "src/hw/cluster.h"
#include "src/models/e2e.h"
#include "src/serve/request_source.h"
#include "src/util/rng.h"

namespace flo {
namespace {

ScenarioSpec SmallSpec(int64_t m, CommPrimitive primitive = CommPrimitive::kAllReduce) {
  return ScenarioSpec::Overlap(GemmShape{m, 2048, 1024}, primitive);
}

// A seeded multi-tenant trace over `keys` balanced keys plus one
// imbalanced All-to-All key (4-GPU hardware), dense enough to queue.
std::vector<ServeRequest> RandomTrace(uint64_t seed, int keys, int per_tenant) {
  std::vector<ScenarioSpec> specs;
  Rng rng(seed);
  for (int k = 0; k < keys; ++k) {
    const CommPrimitive primitive =
        k % 2 == 0 ? CommPrimitive::kAllReduce : CommPrimitive::kReduceScatter;
    specs.push_back(SmallSpec(1024 + 256 * static_cast<int64_t>(rng.NextBelow(8)) + 64 * k,
                              primitive));
  }
  specs.push_back(ScenarioSpec::Imbalanced(ImbalancedShapes(GemmShape{2048, 2048, 1024}, 4, 1.5),
                                           CommPrimitive::kAllToAll));
  std::vector<ScenarioSpec> shuffled = specs;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
  }
  return MergeStreams(
      {MakeRequestStream("llm", specs, PoissonArrivals(150.0, per_tenant, seed * 3 + 1), 0),
       MakeRequestStream("moe", shuffled,
                         BurstyArrivals(300.0, 4.0, 8, per_tenant, seed * 3 + 2), 100000),
       MakeRequestStream("rec", specs, PoissonArrivals(400.0, per_tenant / 2, seed * 3 + 3),
                         200000)});
}

// Autoscaling, sched preemption, bounded (evicting) stores, and a seeded
// crash / hang / straggler / ship-loss / tuner-fault schedule.
ClusterConfig ChurnConfig(PlacementPolicy policy, uint64_t seed) {
  ClusterConfig config;
  config.replicas = 3;
  config.policy = policy;
  config.store_capacity = 2;
  config.serve.tuner_lanes = 2;
  config.serve.tune_threads = 1;
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = 2;
  config.autoscale.max_replicas = 7;
  config.autoscale.check_interval_us = 3000.0;
  config.autoscale.spawn_queue_per_replica = 3.0;
  config.autoscale.drain_after_calm_checks = 2;
  config.sched.enabled = true;
  config.sched.preempt_interval_us = 1000.0;
  config.sched.overload_factor = 1.5;
  config.sched.overload_min_queue = 2;
  config.faults.seed = seed;
  config.faults.horizon_us = 25000.0;
  config.faults.crashes = 2;
  config.faults.hangs = 2;
  config.faults.slowdowns = 2;
  config.faults.ship_loss_windows = 1;
  config.faults.tuner_failures = 6;
  config.faults.tuner_retry_budget = static_cast<int>(seed % 2);
  return config;
}

struct Audit {
  size_t placements = 0;
  size_t avoided = 0;
  size_t mismatches = 0;
  size_t evictions = 0;
};

// Serves `trace` twice on one cluster (the second run starts from the
// first run's stores and replicas) and checks every placement against
// FleetRouter::Place over ServingCluster::Snapshots(), with an oracle
// router of the same policy fed the same decisions. Returns the first
// run's report.
FleetReport RunAudited(const ClusterConfig& config, const std::vector<ServeRequest>& trace,
                       Audit* audit) {
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  FleetRouter oracle(config.policy);
  fleet.SetPlacementObserver([&](uint64_t key, SimTime now, int avoid_id, int placed) {
    ++audit->placements;
    audit->avoided += avoid_id >= 0 ? 1 : 0;
    const int expected = oracle.Place(fleet.Snapshots(key, now), avoid_id);
    if (expected != placed) {
      ++audit->mismatches;
      ADD_FAILURE() << PlacementPolicyName(config.policy) << " placement " << audit->placements
                    << " at " << now << " us: index chose " << placed << ", snapshots "
                    << expected;
    }
  });
  FleetReport report = fleet.Run(trace);
  const FleetReport rerun = fleet.Run(trace);
  EXPECT_EQ(rerun.stats.count(), trace.size());
  for (const auto& replica : fleet.replicas()) {
    audit->evictions += replica->store()->stats().evictions;
  }
  return report;
}

TEST(FleetHotPathTest, IndexedPlacementMatchesSnapshotRouterAtEveryDecision) {
  size_t placements = 0;
  size_t avoided = 0;
  size_t requeued = 0;
  size_t evictions = 0;
  size_t spawns = 0;
  size_t degraded = 0;
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kPlanAffinity}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const auto trace = RandomTrace(seed, 5, 120);
      Audit audit;
      const FleetReport report = RunAudited(ChurnConfig(policy, seed), trace, &audit);
      ASSERT_EQ(report.stats.count(), trace.size());
      EXPECT_EQ(audit.mismatches, 0u) << PlacementPolicyName(policy) << " seed " << seed;
      placements += audit.placements;
      avoided += audit.avoided;
      requeued += report.fault.requests_requeued;
      spawns += report.spawns;
      degraded += report.fault.requests_degraded;
      evictions += audit.evictions;
    }
  }
  // The audit covered every placement path, not just arrivals.
  EXPECT_GT(placements, 0u);
  EXPECT_GT(avoided, 0u);   // sched preemption re-placements
  EXPECT_GT(requeued, 0u);  // fault requeues
  EXPECT_GT(spawns, 0u);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(evictions, 0u);  // residency changes pushed by bounded stores
}

// Every record field, in order.
void ExpectSameRecords(const FleetReport& a, const FleetReport& b) {
  ASSERT_EQ(a.stats.count(), b.stats.count());
  for (size_t i = 0; i < a.stats.count(); ++i) {
    const RequestRecord& ra = a.stats.records()[i];
    const RequestRecord& rb = b.stats.records()[i];
    EXPECT_EQ(ra.id, rb.id) << i;
    EXPECT_EQ(ra.tenant, rb.tenant) << i;
    EXPECT_EQ(ra.arrival_us, rb.arrival_us) << i;
    EXPECT_EQ(ra.start_us, rb.start_us) << i;
    EXPECT_EQ(ra.finish_us, rb.finish_us) << i;
    EXPECT_EQ(ra.plan_cache_hit, rb.plan_cache_hit) << i;
    EXPECT_EQ(ra.batch_size, rb.batch_size) << i;
    EXPECT_EQ(ra.retries, rb.retries) << i;
    EXPECT_EQ(ra.degraded, rb.degraded) << i;
  }
}

FleetReport RunChurn(const std::vector<ServeRequest>& trace, bool memoize, uint64_t seed,
                     std::vector<PlanStoreStats>* stores) {
  ClusterConfig config = ChurnConfig(PlacementPolicy::kPlanAffinity, seed);
  config.serve.memoize_runs = memoize;
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  FleetReport report = fleet.Run(trace);
  for (const auto& replica : fleet.replicas()) {
    stores->push_back(replica->store()->stats());
  }
  return report;
}

TEST(FleetHotPathTest, SharedMemoFleetMatchesFullReplaysBitForBit) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const auto trace = RandomTrace(seed, 5, 120);
    std::vector<PlanStoreStats> memo_stores;
    std::vector<PlanStoreStats> full_stores;
    const FleetReport memoized = RunChurn(trace, true, seed, &memo_stores);
    const FleetReport full = RunChurn(trace, false, seed, &full_stores);
    ExpectSameRecords(memoized, full);
    EXPECT_EQ(memoized.makespan_us, full.makespan_us);
    EXPECT_EQ(memoized.events, full.events);
    EXPECT_EQ(memoized.total_searches, full.total_searches);
    EXPECT_EQ(memoized.spawns, full.spawns);
    EXPECT_EQ(memoized.drains, full.drains);
    EXPECT_EQ(memoized.fault.injected_tuner_failures, full.fault.injected_tuner_failures);
    EXPECT_EQ(memoized.fault.requests_degraded, full.fault.requests_degraded);
    EXPECT_EQ(memoized.sched.preempted_requests, full.sched.preempted_requests);
    // Store hit/miss counters and evictions advance exactly as with full
    // replays, replica by replica.
    ASSERT_EQ(memo_stores.size(), full_stores.size());
    for (size_t i = 0; i < memo_stores.size(); ++i) {
      EXPECT_EQ(memo_stores[i].hits, full_stores[i].hits) << i;
      EXPECT_EQ(memo_stores[i].misses, full_stores[i].misses) << i;
      EXPECT_EQ(memo_stores[i].evictions, full_stores[i].evictions) << i;
    }
    EXPECT_GT(memoized.fault.injected_tuner_failures, 0u);
    EXPECT_GT(memoized.replays, 0u);
    EXPECT_EQ(full.replays, 0u);
  }
}

TEST(FleetHotPathTest, ReplaysPerRunEqualDistinctKeysExecuted) {
  std::vector<ScenarioSpec> specs;
  for (int k = 0; k < 5; ++k) {
    specs.push_back(SmallSpec(1024 + 512 * k));
  }
  const auto trace = MergeStreams(
      {MakeRequestStream("a", specs, PoissonArrivals(40.0, 400, 1), 0),
       MakeRequestStream("b", specs, PoissonArrivals(40.0, 400, 2), 100000)});
  ClusterConfig config;
  config.replicas = 16;
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  std::set<uint64_t> placed_keys;
  fleet.SetPlacementObserver(
      [&placed_keys](uint64_t key, SimTime, int, int) { placed_keys.insert(key); });
  const FleetReport first = fleet.Run(trace);
  ASSERT_EQ(first.stats.count(), trace.size());
  EXPECT_EQ(first.distinct_keys, specs.size());
  // The key computed once at ingestion is the canonical key.
  std::set<uint64_t> canonical;
  for (const ScenarioSpec& spec : specs) {
    canonical.insert(fleet.KeyFor(spec));
  }
  EXPECT_EQ(placed_keys, canonical);
  // Sixteen replicas served the five keys; the fleet replayed each once.
  EXPECT_EQ(first.replays, specs.size());
  const ReplayMemo* shared = &fleet.replicas()[0]->engine().replay_memo();
  for (const auto& replica : fleet.replicas()) {
    EXPECT_EQ(&replica->engine().replay_memo(), shared);
  }
  // The memo persists across runs, like the stores.
  const FleetReport second = fleet.Run(trace);
  EXPECT_EQ(second.replays, 0u);
  EXPECT_EQ(shared->size(), specs.size());
}

TEST(FleetHotPathTest, DegradedImbalancedSearchServesTheSafetyPlan) {
  // A tuner fault during a cold imbalanced (multi-rank) search with no
  // retry budget degrades the batch to the single-group safety plan. The
  // forced one-wave partition must be restated over the reference rank's
  // waves, or plan construction aborts.
  const ScenarioSpec moe = ScenarioSpec::Imbalanced(
      ImbalancedShapes(GemmShape{4096, 8192, 4096}, 8, 1.5), CommPrimitive::kAllToAll);
  const auto trace = MakeRequestStream("moe", {moe}, PoissonArrivals(500.0, 12, 3), 0);
  ClusterConfig config;
  config.replicas = 1;
  config.faults.tuner_failures = 1;
  config.faults.horizon_us = 80000.0;
  config.faults.tuner_retry_budget = 0;
  ServingCluster fleet(MakeA800Cluster(8), config, {}, EngineOptions{.jitter = false});
  FaultSchedule schedule;
  schedule.Add(FaultEvent{5000.0, FaultKind::kTunerFail, 0, 0.0, 0.0});
  fleet.SetFaultSchedule(schedule);
  const FleetReport report = fleet.Run(trace);
  ASSERT_EQ(report.stats.count(), trace.size());
  EXPECT_EQ(report.fault.injected_tuner_failures, 1u);
  EXPECT_GT(report.fault.requests_degraded, 0u);
  EXPECT_EQ(report.stats.degraded_requests(), report.fault.requests_degraded);
}

TEST(FleetHotPathTest, ForcedPartitionOnImbalancedSpecCoversEveryRank) {
  OverlapEngine engine(MakeA800Cluster(8), {}, EngineOptions{.jitter = false});
  const std::vector<GemmShape> shapes = ImbalancedShapes(GemmShape{4096, 8192, 4096}, 8, 1.5);
  const WavePartition single = WavePartition::SingleGroup(1);
  const OverlapRun run = engine.Execute(
      ScenarioSpec::Imbalanced(shapes, CommPrimitive::kAllToAll, &single));
  EXPECT_GT(run.total_us, 0.0);
  EXPECT_EQ(run.partition.group_count(), 1);
}

TEST(FleetHotPathTest, MemoizedRunsCarryNoTraces) {
  OverlapEngine engine(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  const ScenarioSpec spec = SmallSpec(4096);
  const OverlapRun full = engine.Execute(spec);
  ASSERT_FALSE(full.gemm_timeline.empty());
  const OverlapRun first = engine.ExecuteMemoized(spec);
  const OverlapRun repeat = engine.ExecuteMemoized(spec);
  EXPECT_EQ(repeat.total_us, full.total_us);
  EXPECT_EQ(repeat.predicted_us, full.predicted_us);
  EXPECT_TRUE(repeat.plan_cache_hit);
  EXPECT_TRUE(repeat.groups.empty());
  EXPECT_TRUE(repeat.gemm_timeline.empty());
  EXPECT_TRUE(repeat.comm_timeline.empty());
  EXPECT_EQ(first.total_us, full.total_us);
  EXPECT_EQ(engine.replay_memo().size(), 1u);
  // The serving form reads the same entry, with this call's lookup.
  const OverlapEngine::ServedRun served =
      engine.ExecuteServed(spec, engine.planner().CanonicalKey(spec));
  EXPECT_EQ(served.total_us, full.total_us);
  EXPECT_TRUE(served.plan_cache_hit);
  EXPECT_EQ(engine.replay_memo().size(), 1u);
}

TEST(FleetHotPathTest, ServedRunAdvancesStoreCountersLikeExecuteMemoized) {
  const ScenarioSpec a = SmallSpec(2048);
  const ScenarioSpec b = SmallSpec(3072);
  OverlapEngine memoized(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  OverlapEngine served(Make4090Cluster(4), {}, EngineOptions{.jitter = false});
  for (OverlapEngine* engine : {&memoized, &served}) {
    engine->UseSharedPlanStore(std::make_shared<PlanStore>(1));
  }
  for (const ScenarioSpec* spec : {&a, &a, &b, &a, &b, &b}) {
    const OverlapRun run = memoized.ExecuteMemoized(*spec);
    const OverlapEngine::ServedRun slim =
        served.ExecuteServed(*spec, served.planner().CanonicalKey(*spec));
    EXPECT_EQ(slim.total_us, run.total_us);
    EXPECT_EQ(slim.plan_cache_hit, run.plan_cache_hit);
  }
  const PlanStoreStats left = memoized.plan_store().stats();
  const PlanStoreStats right = served.plan_store().stats();
  EXPECT_EQ(left.hits, right.hits);
  EXPECT_EQ(left.misses, right.misses);
  EXPECT_EQ(left.evictions, right.evictions);
  EXPECT_GT(left.evictions, 0u);
  EXPECT_EQ(memoized.planner().stats().cache_hits, served.planner().stats().cache_hits);
  EXPECT_EQ(memoized.tuner().search_count(), served.tuner().search_count());
}

}  // namespace
}  // namespace flo
