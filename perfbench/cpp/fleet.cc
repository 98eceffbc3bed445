// fleet_steady and fleet_churn: open-loop multi-tenant traffic through a
// ServingCluster, timed around ServingCluster::Run.
//
// Each repetition sets the fleet up from scratch (key set, service-time
// calibration, tenant cursors, cluster), then serves one of the run's
// seeded traces (see kTraces); repetitions run until the requested seconds
// have passed and the fastest is reported (see BestRate). A trace served
// again must reproduce its first digest, so a repeat is also a
// determinism check.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/cpp/plan_phase.h"
#include "perfbench/cpp/probes.h"
#include "perfbench/cpp/workloads.h"
#include "src/core/flashoverlap.h"
#include "src/models/e2e.h"
#include "src/models/shapes.h"
#include "src/obs/obs_plane.h"
#include "src/serve/request_cursor.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

// A run serves kTraces traces of the same workload, each built from its
// own seed drawn from the run's seed, and pools their request latencies
// for sim_p50_ms / sim_p99_ms: on fleet_churn one trace's tail rests on a
// single cold-start burst, so a one-trace p99 moved by a quarter from
// seed to seed.
constexpr int kTraces = 5;
// Share of the measured seconds spent in plan-phase rounds over the
// fleet's key set (cold_plans_per_s, warm_replays_per_s,
// sim_speedup_geomean).
constexpr double kPlanShare = 0.2;
// Minimum host time per set-up sample (see SecondsPerCall).
constexpr double kSetupSampleS = 0.2;
constexpr int kSteadyReplicas = 128;
constexpr int64_t kSteadyRequests = 100000;
constexpr int kChurnStartReplicas = 16;
constexpr int kChurnMaxReplicas = 64;
constexpr int64_t kChurnRequests = 100000;

flo::ScenarioSpec MoeSpec(const flo::GemmShape& shape, double imbalance) {
  return flo::ScenarioSpec::Imbalanced(flo::ImbalancedShapes(shape, 8, imbalance),
                                       flo::CommPrimitive::kAllToAll);
}

// Seeded GEMM depth: K moved by 0 to levels - 1 steps of 64. The
// simulated times move with the seed; tile counts (M x N), and with them
// the host work per replay, do not.
int64_t SeededDepth(int64_t k, uint64_t levels, uint64_t* draw) {
  *draw = Mix64(*draw);
  return k + 64 * static_cast<int64_t>(*draw % levels);
}

// The headline fleet's handful of keys: the GEMM+RS mix of the ROADMAP's
// 128-replica figures plus one imbalanced MoE All-to-All key, at seeded
// depths. Without queueing (80% load on 128 replicas) request latency is
// the key's execution time, so the seeded depths are what make each
// seed's latency sample its own. The pooled p99 is the slowest key's time
// at the deepest of the run's five draws for it; eight depth levels keep
// that maximum from landing on the same level for nearly every seed.
std::vector<flo::ScenarioSpec> SteadyKeys(uint64_t seed) {
  constexpr uint64_t kLevels = 8;
  std::vector<flo::ScenarioSpec> keys;
  uint64_t draw = seed;
  for (const int64_t m : {1024, 2048, 4096, 6144}) {
    keys.push_back(flo::ScenarioSpec::Overlap(
        flo::GemmShape{m, 8192, SeededDepth(3584, kLevels, &draw)},
        flo::CommPrimitive::kReduceScatter));
  }
  keys.push_back(MoeSpec(flo::GemmShape{4096, 8192, SeededDepth(4096, kLevels, &draw)}, 1.5));
  return keys;
}

// 48 balanced keys: 16 shapes from each of the AR, RS and AG operator
// grids, at seeded depths.
std::vector<flo::ScenarioSpec> ChurnBalancedKeys(uint64_t seed) {
  std::vector<flo::ScenarioSpec> keys;
  uint64_t draw = seed;
  for (const flo::CommPrimitive primitive :
       {flo::CommPrimitive::kAllReduce, flo::CommPrimitive::kReduceScatter,
        flo::CommPrimitive::kAllGather}) {
    const std::vector<flo::GemmShape> shapes = flo::OperatorShapes(primitive, true);
    for (size_t i = 0; i < 16; ++i) {
      flo::GemmShape shape = shapes[i];
      shape.k = SeededDepth(shape.k, 4, &draw);
      keys.push_back(flo::ScenarioSpec::Overlap(shape, primitive));
    }
  }
  return keys;
}

// 16 imbalanced All-to-All multisets at seeded depths, around base shapes
// whose multi-rank search stays within milliseconds (larger A2A bases
// exhaust the search's node budget).
std::vector<flo::ScenarioSpec> ChurnMoeKeys(uint64_t seed) {
  std::vector<flo::ScenarioSpec> keys;
  uint64_t draw = ~seed;
  for (const int64_t m : {2048, 3072, 4096, 6144}) {
    for (const double imbalance : {1.25, 1.5, 1.75, 2.0}) {
      keys.push_back(MoeSpec(flo::GemmShape{m, 8192, SeededDepth(4096, 4, &draw)}, imbalance));
    }
  }
  return keys;
}

// Every key executed once on a scratch engine: the mean simulated service
// time calibrates the arrival rates, and the engine's plan store is the
// key set's plan snapshot.
struct Calibration {
  double service_us = 0.0;
  std::string snapshot;
};

Calibration Calibrate(const std::vector<flo::ScenarioSpec>& keys) {
  flo::OverlapEngine scratch(BenchHardware(), {}, BenchOptions());
  Calibration calibration;
  for (const flo::ScenarioSpec& spec : keys) {
    calibration.service_us += scratch.Execute(spec).total_us;
  }
  calibration.service_us /= static_cast<double>(keys.size());
  calibration.snapshot = scratch.plan_store().Serialize();
  return calibration;
}

// One repetition's inputs and system under test.
struct Fleet {
  std::vector<flo::ScenarioSpec> keys;
  double service_us = 0.0;
  int64_t requests = 0;
  // Plans the cluster was warm-started with (fleet_steady only).
  size_t warm_plans = 0;
  std::vector<std::unique_ptr<flo::RequestCursor>> tenants;
  std::unique_ptr<flo::MergeCursor> cursor;
  std::unique_ptr<flo::ServingCluster> cluster;
};

void AddTenant(Fleet* fleet, const std::string& name, std::vector<flo::ScenarioSpec> specs,
               flo::ArrivalProcess process, int64_t count, int index) {
  fleet->tenants.push_back(std::make_unique<flo::SyntheticCursor>(
      name, std::move(specs), process, count, static_cast<int64_t>(index) * 100000000));
}

void FinishCursor(Fleet* fleet) {
  std::vector<flo::RequestCursor*> sources;
  for (const auto& tenant : fleet->tenants) {
    sources.push_back(tenant.get());
  }
  fleet->cursor = std::make_unique<flo::MergeCursor>(std::move(sources));
}

// fleet_steady: four Poisson tenants at 80% of a 128-replica fleet's
// executor capacity; plan affinity, FIFO dispatch; sched, faults and
// autoscaling off. The fleet warm-starts from the key set's plan snapshot
// (the deployment path: plans prepared once, served many times), so the
// run measures the steady state rather than a cold-start transient.
Fleet MakeSteady(uint64_t seed, int64_t requests, flo::ObsPlane* obs) {
  Fleet fleet;
  fleet.keys = SteadyKeys(seed);
  const Calibration calibration = Calibrate(fleet.keys);
  fleet.service_us = calibration.service_us;
  fleet.requests = requests;
  constexpr int kTenants = 4;
  const double fleet_gap_us = fleet.service_us / (0.8 * kSteadyReplicas);
  for (int t = 0; t < kTenants; ++t) {
    std::vector<flo::ScenarioSpec> specs = fleet.keys;
    Shuffle(&specs, Mix64(seed * 8 + static_cast<uint64_t>(t)));
    const int64_t count = requests / kTenants + (t < requests % kTenants ? 1 : 0);
    AddTenant(&fleet, "tenant" + std::to_string(t), std::move(specs),
              flo::ArrivalProcess::Poisson(fleet_gap_us * kTenants,
                                           Mix64(seed * 16 + static_cast<uint64_t>(t))),
              count, t);
  }
  FinishCursor(&fleet);
  flo::ClusterConfig config;
  config.replicas = kSteadyReplicas;
  config.policy = flo::PlacementPolicy::kPlanAffinity;
  config.serve.tune_threads = 1;
  config.serve.obs = obs;
  fleet.cluster = std::make_unique<flo::ServingCluster>(BenchHardware(), config,
                                                        flo::TunerConfig{}, BenchOptions());
  fleet.warm_plans = fleet.cluster->ImportPlans(calibration.snapshot);
  return fleet;
}

// The bursty tenant: Poisson arrivals whose rate follows a square wave —
// `burst_us` at `burst_gap_us` mean spacing, then the rest of each
// `period_us` at `calm_gap_us` — with specs cycled round-robin. The phase
// schedule is fixed and the seed moves only individual arrivals, so every
// seed sees the same number of bursts of the same size: the autoscaler
// and the tail it leaves behind are not at the mercy of a few long idle
// gaps.
class SquareWaveCursor : public flo::RequestCursor {
 public:
  SquareWaveCursor(std::string tenant, std::vector<flo::ScenarioSpec> specs, int64_t count,
                   int64_t first_id, double start_us, double period_us, double burst_us,
                   double burst_gap_us, double calm_gap_us, uint64_t seed)
      : tenant_(std::move(tenant)),
        specs_(std::move(specs)),
        remaining_(count),
        next_id_(first_id),
        period_us_(period_us),
        burst_us_(burst_us),
        burst_gap_us_(burst_gap_us),
        calm_ratio_(burst_gap_us / calm_gap_us),
        rng_(seed),
        start_us_(start_us),
        t_(start_us) {}

  std::optional<flo::ServeRequest> Next() override {
    if (remaining_ <= 0) {
      return std::nullopt;
    }
    // Thinning: candidates at the burst rate, kept with probability
    // calm rate / burst rate outside the burst phase.
    for (;;) {
      t_ += -burst_gap_us_ * std::log(1.0 - rng_.NextDouble());
      const bool in_burst = std::fmod(t_ - start_us_, period_us_) < burst_us_;
      if (in_burst || rng_.NextDouble() < calm_ratio_) {
        break;
      }
    }
    --remaining_;
    flo::ServeRequest request;
    request.id = next_id_++;
    request.tenant = tenant_;
    request.arrival_us = t_;
    request.spec = specs_[index_];
    index_ = (index_ + 1) % specs_.size();
    return request;
  }

 private:
  std::string tenant_;
  std::vector<flo::ScenarioSpec> specs_;
  int64_t remaining_;
  int64_t next_id_;
  double period_us_;
  double burst_us_;
  double burst_gap_us_;
  double calm_ratio_;
  flo::Rng rng_;
  double start_us_;
  double t_;
  size_t index_ = 0;
};

// fleet_churn: one bursty MoE tenant over three Poisson tenants, a fleet
// that starts at 16 replicas and autoscales (reactive + predictive) up to
// 64, the fleet scheduler on, two tuner lanes, and a seeded crash / hang
// / straggler / ship-loss schedule. Two parts are held out until known
// defects are fixed (see the README): tuner faults, because one during an
// imbalanced multi-rank search aborts the process, and backfill, because
// it delays tuned head batches under fair share. A blocked head therefore
// holds the executor (a sched reserve) instead of being backfilled.
Fleet MakeChurn(uint64_t seed, int64_t requests, flo::ObsPlane* obs) {
  Fleet fleet;
  const std::vector<flo::ScenarioSpec> balanced = ChurnBalancedKeys(seed);
  const std::vector<flo::ScenarioSpec> moe = ChurnMoeKeys(seed);
  fleet.keys = balanced;
  fleet.keys.insert(fleet.keys.end(), moe.begin(), moe.end());
  fleet.service_us = Calibrate(fleet.keys).service_us;
  fleet.requests = requests;
  // Loads in replica-equivalents (one executor kept busy unbatched): the
  // Poisson tenants fit the starting fleet with room to spare; the bursty
  // tenant's bursts push the need well past it, its calm phases barely
  // register.
  constexpr double kPoissonLoad = 9.0;
  constexpr double kBurstLoad = 14.0;
  constexpr double kCalmLoad = 0.5;
  // 2 s cycles, 500 ms of burst each: ten autoscale checkpoints of burst.
  constexpr double kPeriodUs = 2000000.0;
  constexpr double kBurstUs = 500000.0;
  const double duty = kBurstUs / kPeriodUs;
  const double bursty_load = duty * kBurstLoad + (1.0 - duty) * kCalmLoad;
  const double total_load = kPoissonLoad + bursty_load;
  const int64_t bursty_count =
      static_cast<int64_t>(static_cast<double>(requests) * bursty_load / total_load);
  std::vector<flo::ScenarioSpec> moe_specs = moe;
  Shuffle(&moe_specs, Mix64(seed * 8 + 7));
  fleet.tenants.push_back(std::make_unique<SquareWaveCursor>(
      "moe", std::move(moe_specs), bursty_count, 0, 0.0, kPeriodUs, kBurstUs,
      fleet.service_us / kBurstLoad, fleet.service_us / kCalmLoad, Mix64(seed * 16 + 7)));
  const int64_t poisson_total = requests - bursty_count;
  for (int t = 0; t < 3; ++t) {
    std::vector<flo::ScenarioSpec> specs = balanced;
    Shuffle(&specs, Mix64(seed * 8 + static_cast<uint64_t>(t)));
    const int64_t count = poisson_total / 3 + (t < poisson_total % 3 ? 1 : 0);
    AddTenant(&fleet, "llm" + std::to_string(t), std::move(specs),
              flo::ArrivalProcess::Poisson(fleet.service_us / (kPoissonLoad / 3.0),
                                           Mix64(seed * 16 + static_cast<uint64_t>(t))),
              count, t + 1);
  }
  FinishCursor(&fleet);

  flo::ClusterConfig config;
  config.replicas = kChurnStartReplicas;
  config.policy = flo::PlacementPolicy::kPlanAffinity;
  // Bounded stores (48 plans for 64 keys) keep evicting, so cold re-plans
  // and plan re-shipping run all through the trace.
  config.store_capacity = 48;
  config.serve.tuner_lanes = 2;
  config.serve.tune_threads = 1;
  config.serve.obs = obs;
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = kChurnStartReplicas;
  config.autoscale.max_replicas = kChurnMaxReplicas;
  config.autoscale.check_interval_us = 50000.0;
  config.autoscale.predictive = true;
  config.sched.enabled = true;
  config.sched.backfill = false;
  const double horizon_us = static_cast<double>(requests) * fleet.service_us / total_load;
  config.faults.seed = Mix64(seed * 16 + 11);
  config.faults.horizon_us = horizon_us;
  config.faults.crashes = 8;
  config.faults.hangs = 8;
  config.faults.slowdowns = 8;
  config.faults.ship_loss_windows = 3;
  flo::FaultSchedule schedule = flo::FaultSchedule::FromConfig(config.faults, config.replicas);
  // Scripted on top of the seeded schedule: a 5 ms straggler window on
  // each starting replica 10 ms into the first MoE burst, while the MoE
  // keys' requests queue behind their cold tunes — the scheduler pulls
  // those queues off the stragglers.
  for (int replica = 0; replica < kChurnStartReplicas; ++replica) {
    schedule.Add(flo::FaultEvent{10000.0, flo::FaultKind::kSlowdown, replica, 5000.0, 3.0});
  }
  fleet.cluster = std::make_unique<flo::ServingCluster>(BenchHardware(), config,
                                                        flo::TunerConfig{}, BenchOptions());
  fleet.cluster->SetFaultSchedule(std::move(schedule));
  return fleet;
}

uint64_t TraceSeed(uint64_t seed, int trace) {
  return seed * kTraces + static_cast<uint64_t>(trace);
}

// `obs` (borrowed, may be null) is attached to every replica session.
Fleet MakeFleet(bool churn, uint64_t seed, flo::ObsPlane* obs) {
  if (churn) {
    return MakeChurn(seed, kChurnRequests, obs);
  }
  return MakeSteady(seed, kSteadyRequests, obs);
}

// Order-sensitive digest over every field of every request record.
std::string RecordDigest(const flo::FleetReport& report) {
  Digest digest;
  digest.Mix(report.stats.count());
  for (const flo::RequestRecord& record : report.stats.records()) {
    digest.Mix(static_cast<uint64_t>(record.id));
    digest.MixString(record.tenant);
    digest.MixDouble(record.arrival_us);
    digest.MixDouble(record.start_us);
    digest.MixDouble(record.finish_us);
    digest.Mix(record.plan_cache_hit ? 1 : 0);
    digest.Mix(static_cast<uint64_t>(record.batch_size));
    digest.Mix(record.tenant_id);
    digest.Mix(static_cast<uint64_t>(record.retries));
    digest.Mix(record.degraded ? 1 : 0);
  }
  return digest.Hex();
}

// The correctness gate for one repetition.
void CheckFleet(bool churn, const Fleet& fleet, const flo::FleetReport& report,
                Result* result) {
  const size_t served = report.stats.count();
  result->Check(served == static_cast<size_t>(fleet.requests),
                "served " + std::to_string(served) + " of " + std::to_string(fleet.requests) +
                    " requests");
  bool ordered = true;
  for (const flo::RequestRecord& record : report.stats.records()) {
    ordered = ordered && record.arrival_us >= 0.0 && record.start_us >= record.arrival_us &&
              record.finish_us > record.start_us;
  }
  result->Check(ordered, "a record is not arrival <= start < finish");
  const flo::PercentileSummary latency = report.stats.LatencyPercentiles();
  result->Check(latency.p50 > 0.0 && latency.p50 <= latency.p99,
                "latency percentiles not positive and ordered");
  size_t head_delays = 0;
  for (const flo::ReplicaReport& replica : report.replicas) {
    head_delays += replica.serve.head_delays;
  }
  // A backfill must never delay a tuned head batch.
  result->Check(report.sched.head_delays == head_delays && head_delays == 0,
                "backfill delayed a tuned head batch");
  if (!churn) {
    result->Check(fleet.warm_plans == fleet.keys.size(), "the plan snapshot did not load");
    result->Check(report.total_searches <= report.distinct_keys,
                  "searches exceed the distinct key count");
    return;
  }
  result->Check(report.spawns > 0, "no autoscale spawn");
  result->Check(report.drains > 0, "no autoscale drain");
  result->Check(report.fault.requests_requeued > 0, "no fault requeue");
  result->Check(report.sched.reserves > 0, "no sched reserve");
  result->Check(report.sched.preempted_requests > 0, "no sched preemption");
}

// Replica-time actually live during the run: the denominator of executor
// utilisation when the fleet size changes.
double ReplicaLiveUs(const flo::FleetReport& report) {
  double live = 0.0;
  for (const flo::ReplicaReport& replica : report.replicas) {
    const double end = replica.retired_us >= 0.0 ? replica.retired_us : report.makespan_us;
    live += std::max(0.0, end - replica.spawned_us);
  }
  return live;
}

// `latencies_us`: every request of every trace, pooled.
void AddEndToEnd(const std::vector<double>& latencies_us, const std::vector<double>& rates,
                 const std::vector<double>& setups, Result* result) {
  const double p50_ms = Quantile(latencies_us, 0.5) / 1e3;
  const double p99_ms = Quantile(latencies_us, 0.99) / 1e3;
  result->Add("requests_per_s", BestRate(rates), "req/s");
  result->Add("setup_s", Median(setups), "s");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->Add("sim_p50_ms", p50_ms, "ms");
  result->Add("sim_p99_ms", p99_ms, "ms");
  Note("sim latency over %zu requests of %d traces: p50 %.4f ms, p99 %.4f ms "
       "(%zu samples above p99)",
       latencies_us.size(), kTraces, p50_ms, p99_ms, latencies_us.size() / 100);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

void AddFleetCounters(const flo::FleetReport& report, const flo::ServingCluster& cluster,
                      double rss_delta_mb, Result* result) {
  const double served = static_cast<double>(report.stats.count());
  result->Add("sim.events_per_request", Ratio(static_cast<double>(report.events), served),
              "count");
  result->Add("cluster.warm_hit_rate", report.WarmHitRate(), "ratio");
  result->Add("cluster.searches_per_key",
              Ratio(static_cast<double>(report.total_searches),
                    static_cast<double>(report.distinct_keys)),
              "count");
  result->Add("cluster.duplicate_tunes_avoided",
              static_cast<double>(report.shipping.duplicate_tunes_avoided), "count");
  result->Add("cluster.ship_drops", static_cast<double>(report.fault.ship_drops), "count");
  result->Add("cluster.peak_replicas", report.peak_replicas, "count");
  result->Add("cluster.spawns", static_cast<double>(report.spawns), "count");
  result->Add("cluster.drains", static_cast<double>(report.drains), "count");
  result->Add("cluster.prespawns", static_cast<double>(report.prespawns), "count");
  flo::PlanStoreStats stores;
  for (const auto& replica : cluster.replicas()) {
    const flo::PlanStoreStats stats = replica->store()->stats();
    stores.hits += stats.hits;
    stores.misses += stats.misses;
    stores.evictions += stats.evictions;
  }
  result->Add("store.hit_rate", stores.HitRate(), "ratio");
  result->Add("store.evictions", static_cast<double>(stores.evictions), "count");

  size_t batches = 0;
  size_t cold_batches = 0;
  double executor_busy_us = 0.0;
  double tuner_busy_us = 0.0;
  for (const flo::ReplicaReport& replica : report.replicas) {
    batches += replica.serve.batches;
    cold_batches += replica.serve.cold_batches;
    executor_busy_us += replica.serve.executor_busy_us;
    tuner_busy_us += replica.serve.tuner_busy_us;
  }
  std::vector<double> queue_us;
  std::vector<double> exec_us;
  queue_us.reserve(report.stats.count());
  exec_us.reserve(report.stats.count());
  for (const flo::RequestRecord& record : report.stats.records()) {
    queue_us.push_back(record.QueueUs());
    exec_us.push_back(record.ExecUs());
  }
  const double live_us = ReplicaLiveUs(report);
  result->Add("serve.batch_size_mean", Ratio(served, static_cast<double>(batches)), "count");
  result->Add("serve.cold_batch_share",
              Ratio(static_cast<double>(cold_batches), static_cast<double>(batches)), "ratio");
  result->Add("serve.executor_util", Ratio(executor_busy_us, live_us), "ratio");
  result->Add("serve.tuner_busy_ms", tuner_busy_us / 1e3, "sim_ms");
  result->Add("serve.queue_ms_p50", Quantile(queue_us, 0.5) / 1e3, "sim_ms");
  result->Add("serve.queue_ms_p99", Quantile(queue_us, 0.99) / 1e3, "sim_ms");
  result->Add("serve.exec_ms_p50", Quantile(exec_us, 0.5) / 1e3, "sim_ms");
  result->Add("serve.bytes_per_request", Ratio(rss_delta_mb * 1048576.0, served), "B");

  result->Add("sched.backfills", static_cast<double>(report.sched.backfills), "count");
  result->Add("sched.reserves", static_cast<double>(report.sched.reserves), "count");
  result->Add("sched.reserve_idle_ms", report.sched.reserve_idle_us / 1e3, "sim_ms");
  result->Add("sched.preempted_requests", static_cast<double>(report.sched.preempted_requests),
              "count");
  result->Add("sched.head_delays", static_cast<double>(report.sched.head_delays), "count");

  result->Add("fault.injected", static_cast<double>(report.fault.injected_total()), "count");
  result->Add("fault.requests_requeued", static_cast<double>(report.fault.requests_requeued),
              "count");
  result->Add("fault.requests_retried", static_cast<double>(report.fault.requests_retried),
              "count");
  result->Add("fault.requests_degraded", static_cast<double>(report.fault.requests_degraded),
              "count");
  result->Add("fault.replica_restarts", static_cast<double>(report.fault.replica_restarts),
              "count");
}

void AddObsMetrics(flo::ObsPlane* obs, const std::vector<double>& overheads_pct,
                   Result* result) {
  const double emitted = obs != nullptr ? static_cast<double>(obs->tracer().emitted()) : 0.0;
  const double dropped = obs != nullptr ? static_cast<double>(obs->tracer().dropped()) : 0.0;
  result->Add("obs.spans_emitted", emitted, "count");
  result->Add("obs.span_drop_share", Ratio(dropped, emitted), "ratio");
  result->Add("obs.checkpoints",
              obs != nullptr ? static_cast<double>(obs->metrics().checkpoint_count()) : 0.0,
              "count");
  result->Add("trace.overhead_pct", Median(overheads_pct), "%");
  Note("tracing overhead: median of %zu untraced/traced pairs", overheads_pct.size());
}

namespace {

// The digest of a run: the traces' record digests, in trace order.
std::string RunDigest(const std::vector<std::string>& trace_digests) {
  Digest digest;
  for (const std::string& trace_digest : trace_digests) {
    digest.MixString(trace_digest);
  }
  return digest.Hex();
}

// Untraced: repetitions of set-up + Run, cycling through the run's traces,
// until kTraces repetitions and the fleet's share of `seconds` have
// passed. Each repetition is followed by plan-phase rounds over the first
// trace's key set for the plan phase's share of its time, so both sample
// the whole run. A trace served again must reproduce its first digest.
void MeasureFleet(const Args& args, bool churn, Outcome* out) {
  std::vector<double> rates;
  std::vector<double> setups;
  std::vector<flo::ScenarioSpec> pairs;
  // Only what later code needs from each trace's first repetition is
  // kept, so at most one fleet and one report are alive at a time
  // (peak_rss_mb).
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<size_t>(kTraces * std::max(kSteadyRequests, kChurnRequests)));
  std::vector<std::string> digests;
  PlanPhase phase;
  SpanRecorder untraced(false, "");
  const double measure_start = NowS();
  for (int rep = 0; rep < kTraces || NowS() - measure_start < args.seconds; ++rep) {
    const int trace = rep % kTraces;
    // Hand the last repetition's freed heap back, so peak_rss_mb is one
    // repetition's footprint rather than the heap's fragmentation history.
    malloc_trim(0);
    Fleet fleet;
    setups.push_back(SecondsPerCall(kSetupSampleS, [&] {
      fleet = Fleet{};
      fleet = MakeFleet(churn, TraceSeed(args.seed, trace), nullptr);
    }));
    const double t1 = NowS();
    flo::FleetReport report = fleet.cluster->Run(fleet.cursor.get());
    const double t2 = NowS();
    rates.push_back(static_cast<double>(report.stats.count()) / (t2 - t1));
    out->attempted += static_cast<uint64_t>(fleet.requests);
    out->failed += static_cast<uint64_t>(fleet.requests) -
                   std::min<uint64_t>(report.stats.count(), fleet.requests);
    const std::string digest = RecordDigest(report);
    if (rep < kTraces) {
      CheckFleet(churn, fleet, report, &out->result);
      Note("trace %d: makespan %.1f ms, peak %d replicas, %zu spawns, %zu drains, "
           "%zu searches, %zu requeued, %zu reserves, %zu preempted, %zu head delays",
           trace, report.makespan_us / 1e3, report.peak_replicas, report.spawns,
           report.drains, report.total_searches, report.fault.requests_requeued,
           report.sched.reserves, report.sched.preempted_requests,
           report.sched.head_delays);
      digests.push_back(digest);
      for (const flo::RequestRecord& record : report.stats.records()) {
        latencies_us.push_back(record.LatencyUs());
      }
      if (rep == 0) {
        pairs = PairWithBaselines(fleet.keys);
      }
    } else {
      out->result.Check(digest == digests[static_cast<size_t>(trace)],
                        "repetition " + std::to_string(rep) + " changed trace " +
                            std::to_string(trace) + "'s digest");
    }
    Note("rep %d: setup %.5f s, run %.4f s, %.0f req/s", rep, setups.back(), t2 - t1,
         rates.back());
    RunPlanRounds(pairs, kPlanShare / (1.0 - kPlanShare) * (t2 - t1), 1, &untraced, out,
                  &phase);
  }
  out->digest = RunDigest(digests);
  AddEndToEnd(latencies_us, rates, setups, &out->result);
  AddPlanMetrics(phase, &out->result);
}

// Traced: untraced / traced (obs plane attached) pairs, cycling through
// the run's traces, until kTraces pairs and `seconds` have passed, for the
// tracing overhead and the digest check; then counters from the first
// trace's untraced run and the layer probes.
void TraceFleet(const Args& args, bool churn, SpanRecorder* spans, Outcome* out) {
  flo::ObsConfig obs_config;
  obs_config.enabled = true;
  obs_config.checkpoint_interval_us = 100000.0;
  std::vector<double> overheads;
  std::vector<std::string> trace_digests;
  Fleet kept;
  flo::FleetReport kept_report;
  std::unique_ptr<flo::ObsPlane> kept_obs;
  double rss_delta_mb = 0.0;
  const double measure_start = NowS();
  for (int pair = 0; pair < kTraces || NowS() - measure_start < args.seconds; ++pair) {
    const int trace = pair % kTraces;
    double walls[2] = {0.0, 0.0};
    std::string digests[2];
    for (int traced = 0; traced < 2; ++traced) {
      std::unique_ptr<flo::ObsPlane> obs =
          traced == 1 ? std::make_unique<flo::ObsPlane>(obs_config) : nullptr;
      Fleet fleet;
      {
        ScopedSpan span(spans, "bench.setup");
        fleet = MakeFleet(churn, TraceSeed(args.seed, trace), obs.get());
      }
      // Hand freed heap back first, so the RSS growth over Run is the
      // memory the run retains rather than reuse of earlier frees.
      malloc_trim(0);
      const double rss_before = CurrentRssMb();
      const double start = NowS();
      flo::FleetReport report;
      {
        ScopedSpan span(spans, traced == 1 ? "cluster.run_traced" : "cluster.run");
        report = fleet.cluster->Run(fleet.cursor.get());
      }
      walls[traced] = NowS() - start;
      digests[traced] = RecordDigest(report);
      out->attempted += static_cast<uint64_t>(fleet.requests);
      out->failed += static_cast<uint64_t>(fleet.requests) -
                     std::min<uint64_t>(report.stats.count(), fleet.requests);
      CheckFleet(churn, fleet, report, &out->result);
      if (pair > 0) {
        continue;
      }
      if (traced == 0) {
        malloc_trim(0);
        rss_delta_mb = CurrentRssMb() - rss_before;
        kept = std::move(fleet);
        kept_report = std::move(report);
      } else {
        kept_obs = std::move(obs);
      }
    }
    out->result.Check(digests[0] == digests[1], "tracing changed the output digest");
    if (pair < kTraces) {
      trace_digests.push_back(digests[0]);
    }
    overheads.push_back(100.0 * (walls[1] / walls[0] - 1.0));
    Note("pair %d (trace %d): untraced %.4f s, traced %.4f s (%+.2f%%)", pair, trace,
         walls[0], walls[1], overheads.back());
  }
  out->digest = RunDigest(trace_digests);
  {
    ScopedSpan span(spans, "obs.export_probe");
    Note("obs trace export: %zu bytes", kept_obs->TraceJson().size());
  }
  AddFleetCounters(kept_report, *kept.cluster, rss_delta_mb, &out->result);
  out->result.Add("planner.searches", static_cast<double>(kept_report.total_searches), "count");
  AddObsMetrics(kept_obs.get(), overheads, &out->result);

  ProbeInputs inputs;
  inputs.keys = kept.keys;
  inputs.replicas = kept_report.peak_replicas;
  inputs.records = &kept_report.stats.records();
  inputs.cluster = kept.cluster.get();
  inputs.seed = args.seed;
  AddLayerProbes(inputs, spans, &out->result);
}

}  // namespace

void RunFleetWorkload(const Args& args, bool churn, SpanRecorder* spans, Outcome* out) {
  if (!args.trace) {
    MeasureFleet(args, churn, out);
    return;
  }
  TraceFleet(args, churn, spans, out);
}

}  // namespace perfbench
