// Configuration for the observability plane (src/obs).
//
// Everything here is off by default and the entire plane can be compiled
// out with -DFLO_DISABLE_OBS (CMake option FLO_DISABLE_OBS): every
// emission site guards on ObsPlane::enabled(), which folds to a constant
// false in that build, so the simulator's hot paths carry at most one
// predictable branch per event — and a disabled run is bit-identical to a
// build without the plane at all.
#ifndef SRC_OBS_OBS_CONFIG_H_
#define SRC_OBS_OBS_CONFIG_H_

#include <cstddef>

namespace flo {

#ifdef FLO_DISABLE_OBS
inline constexpr bool kObsCompiledIn = false;
#else
inline constexpr bool kObsCompiledIn = true;
#endif

struct ObsConfig {
  // Master switch; with it off an attached ObsPlane records nothing.
  bool enabled = false;
  // Request-lifecycle / planner span tracing (the Perfetto export).
  bool tracing = true;
  // Counter/gauge/histogram registry with sim-clock checkpoints.
  bool metrics = true;
  // Last-N event/span ring dumped on FLO_CHECK failure.
  bool flight_recorder = true;
  // Sim-clock spacing of metrics time-series rows; 0 = final snapshot
  // only. Checkpoints are taken from the event-loop tap when dispatched
  // time crosses a boundary — never by scheduling events, so enabling
  // them cannot perturb the simulation.
  double checkpoint_interval_us = 0.0;
  // Per-track (replica) span ring capacity: a 1M-request fleet run keeps
  // the last N traced spans per replica, so trace size is bounded by design
  // (SpanTracer reports how many were dropped). The default keeps a
  // 128-replica fleet's rings ~6MB total — deep rings (8192+) push the
  // working set past the cache and triple the traced run's overhead.
  size_t span_ring_capacity = 1024;
  // Head sampling of the per-request data plane: a request's request and
  // queue spans reach the tracer only when a deterministic hash of its id
  // falls below this fraction, and a batch's execute and plan hit/miss
  // spans only when the batch holds such a request (1.0 keeps every
  // request). Tuning, planner, fleet, fault and sched spans are always
  // kept, and the registry and flight recorder see every span either
  // way. Sampling spreads the retained requests over the whole run
  // instead of the last ring's worth, and keeps tracing's per-request
  // cost to a hash for the requests it skips.
  double trace_sample_rate = 1.0 / 16;
  // Flight-recorder ring capacities (events / spans).
  size_t flight_ring_capacity = 256;
};

}  // namespace flo

#endif  // SRC_OBS_OBS_CONFIG_H_
