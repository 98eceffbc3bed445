#include "src/cluster/replica.h"

#include <utility>

#include "src/util/check.h"

namespace flo {

Replica::Replica(int id, const ClusterSpec& cluster, const TunerConfig& tuner_config,
                 const EngineOptions& options, size_t store_capacity, SimTime spawned_at)
    : id_(id),
      store_(std::make_shared<PlanStore>(store_capacity)),
      engine_(cluster, tuner_config, options),
      spawned_us_(spawned_at) {
  engine_.UseSharedPlanStore(store_);
}

void Replica::StartSession(const ServeConfig& config, EventLoop* events,
                           ServeSession::Hooks hooks) {
  FLO_CHECK(!retired_);
  searches_at_session_start_ = engine_.tuner().search_count();
  health_ = Health::kHealthy;  // injected faults do not leak across runs
  session_ = std::make_unique<ServeSession>(&engine_, config, events, std::move(hooks), id_);
  NotifyAccepting();
}

size_t Replica::SearchesThisRun() {
  return engine_.tuner().search_count() - searches_at_session_start_;
}

void Replica::Retire(SimTime now) {
  FLO_CHECK(draining_);
  FLO_CHECK(session_ == nullptr || session_->idle());
  retired_ = true;
  retired_us_ = now;
  NotifyAccepting();
}

void Replica::SetHealth(Health health) {
  health_ = health;
  NotifyAccepting();
}

void Replica::BeginDrain() {
  draining_ = true;
  NotifyAccepting();
}

void Replica::SetAcceptingListener(std::function<void(bool)> listener) {
  accepting_listener_ = std::move(listener);
  NotifyAccepting();
}

void Replica::NotifyAccepting() {
  if (accepting_listener_) {
    accepting_listener_(accepting());
  }
}

}  // namespace flo
