#include "src/core/schedule_executor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "src/sim/simulator.h"
#include "src/util/check.h"

namespace flo {

ScheduleExecutor::ScheduleExecutor(ClusterSpec spec) : spec_(spec), devices_(spec_) {}

double ScheduleExecutor::JitterFactor(Rng* rng, bool enabled, double amplitude) {
  if (!enabled || rng == nullptr) {
    return 1.0;
  }
  // Real kernels only ever run at or below nominal speed: jitter stretches
  // durations, never shrinks them.
  return 1.0 + rng->NextDouble() * amplitude;
}

uint64_t ScheduleExecutor::CaseSeed(const GemmShape& shape, CommPrimitive primitive,
                                    const WavePartition& partition, uint64_t seed_salt) const {
  StableHash hash;
  hash.Mix(shape.m).Mix(shape.n).Mix(shape.k);
  hash.Mix(static_cast<int>(primitive));
  hash.Mix(spec_.gpu_count);
  hash.Mix(spec_.gpu.name.c_str());
  for (int size : partition.group_sizes) {
    hash.Mix(size);
  }
  hash.Mix(seed_salt);
  return hash.value();
}

SimTime ScheduleExecutor::ExecuteSequential(const ExecutionPlan& plan,
                                            const std::vector<GemmConfig>& rank_configs,
                                            const EngineOptions& options, uint64_t case_seed) {
  FLO_CHECK_EQ(rank_configs.size(), static_cast<size_t>(spec_.gpu_count));
  FLO_CHECK(!plan.segments.empty());
  Rng rng(case_seed);
  // Sequential: every rank's GEMM runs unconstrained; the collective starts
  // when the slowest rank's GEMM finishes and moves the full payload.
  double gemm_us = 0.0;
  for (const GemmConfig& config : rank_configs) {
    double duration = config.duration_us;
    if (options.reserved_sms > 0) {
      // Co-located work shrinks the wave width even without overlap.
      const int width = std::max(1, spec_.gpu.sm_count - options.reserved_sms);
      const int waves = (config.tile_count + width - 1) / width;
      duration = waves * config.wave_time_us + spec_.gpu.kernel_launch_overhead_us;
    }
    gemm_us = std::max(gemm_us,
                       duration * JitterFactor(&rng, options.jitter, options.wave_jitter));
  }
  const double worst_comm = plan.segments[0].latency_us;
  return gemm_us + worst_comm * JitterFactor(&rng, options.jitter, options.comm_jitter);
}

std::vector<ScheduleExecutor::RankState> ScheduleExecutor::BuildRankStates(
    Simulator* sim, const ExecutionPlan& plan, const std::vector<GemmConfig>& rank_configs) {
  const int n = spec_.gpu_count;
  const int group_count = plan.group_count();
  std::vector<RankState> ranks(n);
  for (int r = 0; r < n; ++r) {
    RankState& state = ranks[r];
    state.config = rank_configs[r];
    state.group_ends.reserve(group_count);
    int end = 0;
    for (int tiles : plan.group_tiles[r]) {
      end += tiles;
      state.group_ends.push_back(end);
    }
    FLO_CHECK_EQ(end, state.config.tile_count)
        << "plan's counting targets must cover rank " << r << "'s tiles exactly";
    state.table = std::make_unique<CountingTable>(plan.group_tiles[r]);
    state.gemm_stream =
        std::make_unique<Stream>(sim, &devices_.device(r), "gemm" + std::to_string(r));
    state.comm_stream =
        std::make_unique<Stream>(sim, &devices_.device(r), "comm" + std::to_string(r));
  }
  return ranks;
}

ScheduleExecutor::CollectiveSet ScheduleExecutor::BuildCollectives(
    const ExecutionPlan& plan, const EngineOptions& options, int per_collective_sms, Rng* rng,
    OverlapRun* run) {
  const int n = spec_.gpu_count;
  const int group_count = plan.group_count();
  CollectiveSet collectives;
  collectives.closed_form.reserve(group_count);
  collectives.ring.reserve(group_count);
  for (int g = 0; g < group_count; ++g) {
    std::vector<Device*> group_devices;
    group_devices.reserve(n);
    for (int r = 0; r < n; ++r) {
      group_devices.push_back(&devices_.device(r));
    }
    const CommSegment& segment = plan.segments[g];
    run->groups[g].group = g;
    run->groups[g].tiles = plan.group_tiles[0][g];
    run->groups[g].bytes = segment.max_bytes;
    if (options.detailed_comm) {
      InterconnectSpec link = spec_.link;
      link.comm_sm_count = per_collective_sms;
      collectives.ring.push_back(std::make_unique<RingCollectiveOp>(
          "comm_g" + std::to_string(g), std::move(group_devices), link, plan.primitive,
          segment.max_bytes, nullptr));
      collectives.closed_form.push_back(nullptr);
    } else {
      const double latency = segment.latency_us;
      const double jitter = JitterFactor(rng, options.jitter, options.comm_jitter);
      collectives.closed_form.push_back(std::make_unique<CollectiveOp>(
          "comm_g" + std::to_string(g), std::move(group_devices), per_collective_sms,
          [latency, jitter]() { return latency * jitter; }, nullptr));
      collectives.ring.push_back(nullptr);
    }
  }
  return collectives;
}

void ScheduleExecutor::EnqueueSignalDispatch(Simulator* sim, std::vector<RankState>* ranks,
                                             CollectiveSet* collectives,
                                             const EngineOptions& options, OverlapRun* run) {
  // Comm streams: per group, a signal kernel (waits for the local counting
  // table, released on a poll boundary) followed by this rank's share of
  // the collective rendezvous.
  const int group_count = static_cast<int>(run->groups.size());
  const double poll = options.signal_poll_interval_us;
  for (RankState& state : *ranks) {
    for (int g = 0; g < group_count; ++g) {
      CountingTable* table = state.table.get();
      state.comm_stream->Enqueue(
          "signal_g" + std::to_string(g),
          [table, g, poll, sim, run](Simulator&, Stream::DoneFn done) {
            table->OnGroupComplete(g, [done = std::move(done), g, poll, sim, run]() {
              // The signal time the paper cares about is when the *last*
              // rank's tiles land; later ranks overwrite earlier ones.
              run->groups[g].signal_time = std::max(run->groups[g].signal_time, sim->Now());
              if (poll > 0.0) {
                // The polling kernel only observes the table on its next
                // query; release on the poll boundary.
                const double remainder = std::fmod(sim->Now(), poll);
                const double wait = remainder == 0.0 ? 0.0 : poll - remainder;
                sim->Schedule(wait, [done = std::move(done)]() { done(); });
              } else {
                done();
              }
            });
          });
      const int rank = static_cast<int>(&state - ranks->data());
      if (options.detailed_comm) {
        collectives->ring[g]->EnqueueOn(*state.comm_stream, rank);
      } else {
        collectives->closed_form[g]->EnqueueOn(*state.comm_stream, rank);
      }
    }
  }
}

void ScheduleExecutor::EnqueueWaveSchedulers(Simulator* sim, std::vector<RankState>* ranks,
                                             const EngineOptions& options, Rng* rng) {
  // GEMM kernels: wave loop with dynamic width = free SMs at wave start.
  const bool jitter = options.jitter;
  const double wave_jitter_amp = options.wave_jitter;
  const double launch_overhead = spec_.gpu.kernel_launch_overhead_us;
  for (RankState& state : *ranks) {
    Device* device = state.gemm_stream->device();
    state.gemm_stream->Enqueue(
        "gemm", [this, sim, rng, state_ptr = &state, device, jitter, wave_jitter_amp,
                 launch_overhead](Simulator&, Stream::DoneFn done) {
          auto next_wave = std::make_shared<std::function<void()>>();
          // The recursive closure holds itself only weakly: ownership
          // lives in the scheduled events (each wave event keeps the next
          // one alive), so the last wave releases the function — and the
          // captured `done` — instead of leaking a shared_ptr cycle.
          *next_wave = [this, sim, rng, state_ptr, device, jitter, wave_jitter_amp,
                        weak_self = std::weak_ptr<std::function<void()>>(next_wave),
                        done = std::move(done)]() {
            RankState& state = *state_ptr;
            if (state.tiles_done >= state.config.tile_count) {
              done();
              return;
            }
            const int width = device->ComputeSms();
            const int take = std::min(width, state.config.tile_count - state.tiles_done);
            const double duration =
                state.config.wave_time_us * JitterFactor(rng, jitter, wave_jitter_amp);
            sim->Schedule(duration, [this, state_ptr, take, next_wave = weak_self.lock()]() {
              RecordWave(state_ptr, take);
              (*next_wave)();
            });
          };
          // Kernel launch overhead precedes the first wave.
          sim->Schedule(launch_overhead, [next_wave]() { (*next_wave)(); });
        });
  }
}

void ScheduleExecutor::RecordWave(RankState* state, int take) {
  // The wave's tiles [tiles_done, tiles_done + take) finish together; walk
  // the group boundaries they span in ascending order, which is the order
  // in which per-tile recording would complete the groups.
  int tile = state->tiles_done;
  const int wave_end = tile + take;
  while (tile < wave_end) {
    const int group = state->group_cursor;
    const int group_end = state->group_ends[group];
    const int n = std::min(wave_end, group_end) - tile;
    tile += n;
    if (tile == group_end) {
      ++state->group_cursor;
    }
    ++counting_updates_;
    state->table->RecordTiles(group, n);
  }
  state->tiles_done = wave_end;
}

void ScheduleExecutor::CollectResults(const std::vector<RankState>& ranks,
                                      const CollectiveSet& collectives,
                                      const EngineOptions& options, OverlapRun* run) {
  SimTime total = 0.0;
  SimTime gemm_end = 0.0;
  for (size_t r = 0; r < ranks.size(); ++r) {
    FLO_CHECK(ranks[r].gemm_stream->idle()) << "rank " << r << " GEMM never finished";
    FLO_CHECK(ranks[r].comm_stream->idle()) << "rank " << r << " comm stream stalled";
    FLO_CHECK(ranks[r].table->AllComplete());
    total = std::max(total, ranks[r].comm_stream->last_completion_time());
    total = std::max(total, ranks[r].gemm_stream->last_completion_time());
    gemm_end = std::max(gemm_end, ranks[r].gemm_stream->last_completion_time());
  }
  for (size_t g = 0; g < run->groups.size(); ++g) {
    if (options.detailed_comm) {
      FLO_CHECK(collectives.ring[g]->completed()) << "group " << g << " never ran";
      run->groups[g].comm_start = collectives.ring[g]->start_time();
      run->groups[g].comm_end = collectives.ring[g]->end_time();
    } else {
      FLO_CHECK(collectives.closed_form[g]->completed())
          << "group " << g << " collective never ran";
      run->groups[g].comm_start = collectives.closed_form[g]->start_time();
      run->groups[g].comm_end = collectives.closed_form[g]->end_time();
    }
  }
  run->total_us = total;
  run->gemm_end_us = gemm_end;
}

OverlapRun ScheduleExecutor::ExecuteOverlap(const ExecutionPlan& plan,
                                            const std::vector<GemmConfig>& rank_configs,
                                            const EngineOptions& options, uint64_t case_seed) {
  const int n = spec_.gpu_count;
  FLO_CHECK_EQ(plan.rank_count(), n);
  FLO_CHECK_EQ(rank_configs.size(), static_cast<size_t>(n));
  const int group_count = plan.group_count();
  FLO_CHECK_GT(group_count, 0);
  for (const auto& tiles : plan.group_tiles) {
    FLO_CHECK_EQ(static_cast<int>(tiles.size()), group_count);
  }
  FLO_CHECK_EQ(static_cast<int>(plan.segments.size()), group_count);

  Simulator sim;
  Rng rng(case_seed);
  if (options.reserved_sms > 0) {
    for (int r = 0; r < n; ++r) {
      devices_.device(r).AcquireSms(options.reserved_sms);
    }
  }
  // With persistent channels the signal/comm kernels occupy their SMs for
  // the entire overlapped region, matching the predictor's wave-count
  // adjustment; the per-collective acquisition is then disabled. A single
  // group means no concurrency at all — the "don't overlap" fallback —
  // so nothing is reserved and the run degenerates to sequential
  // execution.
  const bool persistent = options.persistent_comm_sms && group_count > 1;
  const int per_collective_sms = persistent ? 0 : spec_.link.comm_sm_count;
  if (persistent) {
    for (int r = 0; r < n; ++r) {
      devices_.device(r).AcquireSms(spec_.link.comm_sm_count);
    }
  }

  OverlapRun run;
  run.partition = plan.partition;
  run.groups.resize(group_count);

  std::vector<RankState> ranks = BuildRankStates(&sim, plan, rank_configs);
  CollectiveSet collectives =
      BuildCollectives(plan, options, per_collective_sms, &rng, &run);
  EnqueueSignalDispatch(&sim, &ranks, &collectives, options, &run);
  EnqueueWaveSchedulers(&sim, &ranks, options, &rng);

  sim.Run();

  CollectResults(ranks, collectives, options, &run);
  // The executor's devices persist across runs: return every acquired SM
  // so the next scenario in a batch starts from a clean pool.
  if (options.reserved_sms > 0) {
    for (int r = 0; r < n; ++r) {
      devices_.device(r).ReleaseSms(options.reserved_sms);
    }
  }
  if (persistent) {
    for (int r = 0; r < n; ++r) {
      devices_.device(r).ReleaseSms(spec_.link.comm_sm_count);
    }
  }
  run.gemm_timeline = ranks[0].gemm_stream->timeline();
  run.comm_timeline = ranks[0].comm_stream->timeline();
  return run;
}

}  // namespace flo
