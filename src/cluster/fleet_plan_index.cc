#include "src/cluster/fleet_plan_index.h"

#include <algorithm>
#include <bit>

#include "src/util/check.h"

namespace flo {

namespace {

constexpr int kWordBits = 64;

uint64_t Bit(int id) { return uint64_t{1} << (id % kWordBits); }

}  // namespace

void FleetPlanIndex::AddReplica(int id) {
  FLO_CHECK_EQ(static_cast<size_t>(id), rows_.size());
  rows_.push_back(Row{});
  const size_t needed = (rows_.size() + kWordBits - 1) / kWordBits;
  if (needed > words()) {
    accepting_.resize(needed, 0);
    for (auto& [key, bits] : keys_) {
      bits.resident.resize(needed, 0);
      bits.tuning.resize(needed, 0);
      bits.pending.resize(needed, 0);
    }
  }
  Assign(&accepting_, id, true);
}

void FleetPlanIndex::Assign(Bits* bits, int id, bool value) {
  uint64_t& word = (*bits)[static_cast<size_t>(id / kWordBits)];
  word = value ? (word | Bit(id)) : (word & ~Bit(id));
}

FleetPlanIndex::KeyBits& FleetPlanIndex::BitsFor(uint64_t key) {
  const auto [it, inserted] = keys_.try_emplace(key);
  if (inserted) {
    it->second.resident.assign(words(), 0);
    it->second.tuning.assign(words(), 0);
    it->second.pending.assign(words(), 0);
  }
  return it->second;
}

void FleetPlanIndex::SetAccepting(int id, bool accepting) {
  Assign(&accepting_, id, accepting);
}

void FleetPlanIndex::SetResident(int id, uint64_t key, bool resident) {
  Assign(&BitsFor(key).resident, id, resident);
}

void FleetPlanIndex::ResetSessions() {
  std::fill(rows_.begin(), rows_.end(), Row{});
  for (auto& [key, bits] : keys_) {
    std::fill(bits.tuning.begin(), bits.tuning.end(), 0);
    std::fill(bits.pending.begin(), bits.pending.end(), 0);
  }
}

void FleetPlanIndex::OnLoad(int replica_id, size_t pending_requests, SimTime busy_until) {
  Row& row = rows_[static_cast<size_t>(replica_id)];
  row.pending = pending_requests;
  row.busy_until = busy_until;
}

void FleetPlanIndex::OnTuning(int replica_id, uint64_t key, bool tuning) {
  Assign(&BitsFor(key).tuning, replica_id, tuning);
}

void FleetPlanIndex::OnPending(int replica_id, uint64_t key, bool pending) {
  Assign(&BitsFor(key).pending, replica_id, pending);
}

int FleetPlanIndex::LeastLoaded(uint64_t key, Tier tier, SimTime now,
                                double cost_estimate_us, int avoid_id) const {
  const KeyBits* bits = nullptr;
  if (tier != Tier::kAny) {
    const auto it = keys_.find(key);
    if (it == keys_.end()) {
      return -1;
    }
    bits = &it->second;
  }
  const auto candidates_in = [&](size_t w) {
    uint64_t candidates = accepting_[w];
    switch (tier) {
      case Tier::kWarm:
        candidates &= bits->resident[w] & ~bits->tuning[w];
        break;
      case Tier::kTuning:
        candidates &= bits->tuning[w];
        break;
      case Tier::kPending:
        candidates &= bits->pending[w];
        break;
      case Tier::kAny:
        break;
    }
    if (avoid_id >= 0 && static_cast<size_t>(avoid_id / kWordBits) == w) {
      candidates &= ~Bit(avoid_id);
    }
    return candidates;
  };
  // Least backlog in ascending id order, a strict '<' keeping ties with
  // the earliest replica, as FleetRouter's scan over snapshots does.
  int best = -1;
  double best_load = 0.0;
  for (size_t w = 0; w < words(); ++w) {
    for (uint64_t candidates = candidates_in(w); candidates != 0;
         candidates &= candidates - 1) {
      const int id = static_cast<int>(w) * kWordBits + std::countr_zero(candidates);
      const Row& row = rows_[static_cast<size_t>(id)];
      // The snapshot's busy_us + pending_cost_us, term for term.
      const double load = std::max(0.0, row.busy_until - now) +
                          static_cast<double>(row.pending) * cost_estimate_us;
      if (best == -1 || load < best_load) {
        best = id;
        best_load = load;
      }
    }
  }
  return best;
}

int FleetPlanIndex::NextAccepting(int after, int avoid_id) const {
  int lowest = -1;
  for (size_t w = 0; w < words(); ++w) {
    for (uint64_t candidates = accepting_[w]; candidates != 0; candidates &= candidates - 1) {
      const int id = static_cast<int>(w) * kWordBits + std::countr_zero(candidates);
      if (id == avoid_id) {
        continue;
      }
      if (id > after) {
        return id;
      }
      if (lowest == -1) {
        lowest = id;
      }
    }
  }
  return lowest;
}

}  // namespace flo
