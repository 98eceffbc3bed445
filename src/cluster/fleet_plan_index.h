// The fleet's placement index: everything FleetRouter's tiers and
// least-loaded rule read, kept current by push notifications instead of
// rebuilt from every replica on every request.
//
// Rows: one per replica ever spawned, indexed by replica id (ids are
// dense, in spawn order). A row holds the load inputs — the executor's
// busy horizon and the pending request count — plus an accepting bit.
// Per plan key, three replica bitsets: resident (the replica's PlanStore
// holds the plan; fed by PlanStore's residency listener), tuning and
// pending (fed by ServeSession::Observer). The router's tiers derive
// from them exactly as ReplicaSnapshot's flags do:
//   warm    = resident and not tuning
//   tuning  = tuning
//   pending = pending requests of the key
// A placement reads one key entry and makes no store or session call:
// it scans the candidates' rows in id order, the order FleetRouter's
// scan over snapshots uses.
#ifndef SRC_CLUSTER_FLEET_PLAN_INDEX_H_
#define SRC_CLUSTER_FLEET_PLAN_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/serve/serve_session.h"
#include "src/sim/event_queue.h"

namespace flo {

class FleetPlanIndex : public ServeSession::Observer {
 public:
  // The replica sets a placement can draw from.
  enum class Tier { kWarm, kTuning, kPending, kAny };

  // Appends the row for replica `id`, which must equal the row count:
  // accepting, holding nothing.
  void AddReplica(int id);
  void SetAccepting(int id, bool accepting);
  void SetResident(int id, uint64_t key, bool resident);
  // Zeroes every row's load and clears every tuning and pending bit: the
  // sessions of a new run start empty. Residency is kept (stores persist
  // across runs).
  void ResetSessions();

  // ServeSession::Observer.
  void OnLoad(int replica_id, size_t pending_requests, SimTime busy_until) override;
  void OnTuning(int replica_id, uint64_t key, bool tuning) override;
  void OnPending(int replica_id, uint64_t key, bool pending) override;

  // The accepting replica of `tier` for `key` with the least backlog,
  // max(0, busy_until - now) + pending x cost_estimate_us, ties to the
  // lowest id; `avoid_id` (when >= 0) is never chosen. -1 when no
  // replica qualifies. Bit for bit the choice FleetRouter::Place makes
  // among the same replicas' snapshots.
  int LeastLoaded(uint64_t key, Tier tier, SimTime now, double cost_estimate_us,
                  int avoid_id) const;
  // Round-robin successor: the lowest accepting id above `after`,
  // wrapping to the lowest accepting id; never `avoid_id`. -1 when none.
  int NextAccepting(int after, int avoid_id) const;

 private:
  struct Row {
    SimTime busy_until = 0.0;
    size_t pending = 0;
  };
  // One bit per replica id, in 64-bit words.
  using Bits = std::vector<uint64_t>;
  struct KeyBits {
    Bits resident;
    Bits tuning;
    Bits pending;
  };

  KeyBits& BitsFor(uint64_t key);
  static void Assign(Bits* bits, int id, bool value);
  size_t words() const { return accepting_.size(); }

  std::vector<Row> rows_;
  Bits accepting_;
  std::unordered_map<uint64_t, KeyBits> keys_;
};

}  // namespace flo

#endif  // SRC_CLUSTER_FLEET_PLAN_INDEX_H_
