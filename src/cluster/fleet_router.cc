#include "src/cluster/fleet_router.h"

#include "src/cluster/fleet_plan_index.h"
#include "src/util/check.h"

namespace flo {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "RoundRobin";
    case PlacementPolicy::kLeastLoaded:
      return "LeastLoaded";
    case PlacementPolicy::kPlanAffinity:
      return "PlanAffinity";
  }
  return "Unknown";
}

std::optional<PlacementPolicy> TryPlacementPolicyFromName(const std::string& name) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kPlanAffinity}) {
    if (name == PlacementPolicyName(policy)) {
      return policy;
    }
  }
  return std::nullopt;
}

template <typename Pred>
int FleetRouter::LeastLoaded(const std::vector<ReplicaSnapshot>& replicas, Pred pred) {
  int best = -1;
  double best_load = 0.0;
  for (const ReplicaSnapshot& replica : replicas) {
    // INVARIANT: `accepting` gates every affinity tier, including the
    // warm-plan winner — a draining, retired, or unhealthy replica must
    // never receive a placement, no matter how attractive its plan cache
    // looks (cluster_test pins this). Snapshots() additionally excludes
    // retired replicas at the source.
    if (!replica.accepting || !pred(replica)) {
      continue;
    }
    const double load = replica.busy_us + replica.pending_cost_us;
    if (best == -1 || load < best_load) {
      best = replica.id;
      best_load = load;
    }
  }
  return best;
}

int FleetRouter::PlaceRoundRobin(const std::vector<ReplicaSnapshot>& replicas,
                                 int avoid_id) {
  // Rotate by id so the cycle survives spawns and drains: the next
  // accepting id after the previous placement, wrapping to the lowest.
  int next = -1;
  int lowest = -1;
  for (const ReplicaSnapshot& replica : replicas) {
    if (!replica.accepting || replica.id == avoid_id) {
      continue;
    }
    if (lowest == -1 || replica.id < lowest) {
      lowest = replica.id;
    }
    if (replica.id > last_placed_id_ && (next == -1 || replica.id < next)) {
      next = replica.id;
    }
  }
  return next != -1 ? next : lowest;
}

int FleetRouter::Place(const std::vector<ReplicaSnapshot>& replicas, int avoid_id) {
  const auto allowed = [avoid_id](const ReplicaSnapshot& r) { return r.id != avoid_id; };
  int placed = -1;
  switch (policy_) {
    case PlacementPolicy::kRoundRobin:
      placed = PlaceRoundRobin(replicas, avoid_id);
      break;
    case PlacementPolicy::kLeastLoaded:
      placed = LeastLoaded(replicas, allowed);
      break;
    case PlacementPolicy::kPlanAffinity:
      placed = LeastLoaded(
          replicas, [&](const ReplicaSnapshot& r) { return allowed(r) && r.plan_warm; });
      if (placed == -1) {
        placed = LeastLoaded(
            replicas, [&](const ReplicaSnapshot& r) { return allowed(r) && r.plan_tuning; });
      }
      if (placed == -1) {
        placed = LeastLoaded(
            replicas, [&](const ReplicaSnapshot& r) { return allowed(r) && r.plan_pending; });
      }
      if (placed == -1) {
        placed = LeastLoaded(replicas, allowed);
      }
      break;
  }
  if (placed != -1) {
    last_placed_id_ = placed;
  }
  return placed;
}

int FleetRouter::PlaceIndexed(const FleetPlanIndex& index, uint64_t key, SimTime now,
                              double cost_estimate_us, int avoid_id) {
  using Tier = FleetPlanIndex::Tier;
  int placed = -1;
  switch (policy_) {
    case PlacementPolicy::kRoundRobin:
      placed = index.NextAccepting(last_placed_id_, avoid_id);
      break;
    case PlacementPolicy::kLeastLoaded:
      placed = index.LeastLoaded(key, Tier::kAny, now, cost_estimate_us, avoid_id);
      break;
    case PlacementPolicy::kPlanAffinity:
      for (const Tier tier : {Tier::kWarm, Tier::kTuning, Tier::kPending, Tier::kAny}) {
        placed = index.LeastLoaded(key, tier, now, cost_estimate_us, avoid_id);
        if (placed != -1) {
          break;
        }
      }
      break;
  }
  if (placed != -1) {
    last_placed_id_ = placed;
  }
  return placed;
}

}  // namespace flo
