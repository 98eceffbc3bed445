// One serving replica: an OverlapEngine with its own (possibly bounded)
// PlanStore plus the replica's serving session and lifecycle state.
//
// The engine and store persist for the replica's lifetime — plans stay
// warm across cluster runs — while the ServeSession (queues, lanes,
// report) is recreated per ServingCluster::Run. Lifecycle: accepting ->
// draining (router stops placing, the backlog finishes) -> retired.
#ifndef SRC_CLUSTER_REPLICA_H_
#define SRC_CLUSTER_REPLICA_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "src/core/overlap_engine.h"
#include "src/serve/serve_session.h"
#include "src/sim/event_loop.h"

namespace flo {

class Replica {
 public:
  // Fault-injection health (src/fault). Only a healthy replica accepts
  // placements; crashed and hung replicas are also stalled (their session
  // dispatches nothing), stragglers keep executing at a cost multiplier
  // but are unroutable until the window ends.
  enum class Health { kHealthy, kCrashed, kHung, kStraggling };

  Replica(int id, const ClusterSpec& cluster, const TunerConfig& tuner_config,
          const EngineOptions& options, size_t store_capacity, SimTime spawned_at);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  int id() const { return id_; }
  OverlapEngine& engine() { return engine_; }
  const std::shared_ptr<PlanStore>& store() const { return store_; }

  // Starts a fresh session (fresh report) for one cluster run; the
  // session's event records carry this replica's id. Also snapshots the
  // engine's tuner search count so per-run search totals subtract work
  // from earlier runs.
  void StartSession(const ServeConfig& config, EventLoop* events,
                    ServeSession::Hooks hooks);
  // Drops the previous run's session so its report cannot leak into a
  // later run (retired replicas are skipped by StartSession).
  void ClearSession() { session_.reset(); }
  ServeSession* session() { return session_.get(); }
  const ServeSession* session() const { return session_.get(); }
  // Searches this replica performed since StartSession.
  size_t SearchesThisRun();

  bool accepting() const {
    return !draining_ && !retired_ && health_ == Health::kHealthy;
  }
  bool draining() const { return draining_; }
  bool retired() const { return retired_; }
  Health health() const { return health_; }
  void SetHealth(Health health);
  void BeginDrain();
  void Retire(SimTime now);
  // Called with accepting() whenever a call above, or StartSession, may
  // have changed it: the one feed for anything that mirrors it.
  void SetAcceptingListener(std::function<void(bool)> listener);

  SimTime spawned_us() const { return spawned_us_; }
  // -1 while the replica is still active.
  SimTime retired_us() const { return retired_us_; }

 private:
  int id_;
  std::shared_ptr<PlanStore> store_;
  OverlapEngine engine_;
  std::unique_ptr<ServeSession> session_;
  size_t searches_at_session_start_ = 0;
  bool draining_ = false;
  bool retired_ = false;
  Health health_ = Health::kHealthy;
  SimTime spawned_us_ = 0.0;
  SimTime retired_us_ = -1.0;
  std::function<void(bool)> accepting_listener_;

  void NotifyAccepting();
};

}  // namespace flo

#endif  // SRC_CLUSTER_REPLICA_H_
