// Memoized schedule replays, keyed by canonical plan key.
//
// A replay is a pure function of (plan, per-rank GEMM configs, engine
// options, case seed), and every one of those derives from the scenario
// spec plus the engine's identity (cluster, tuner config, EngineOptions).
// The canonical plan key covers the spec, the cluster and the tuner
// config, so engines built with the same three and the same
// EngineOptions can share one memo: a serving fleet replays each
// distinct scenario once for the whole fleet instead of once per replica
// (ServingCluster owns one and hands it to every replica engine).
//
// Entries hold the scalar results only: `groups` and both rank-0
// timelines are cleared on insert, so a hit copies no trace.
//
// Not thread-safe: engines sharing a memo must be driven from one thread
// (a ServingCluster drives every replica from its event loop).
#ifndef SRC_CORE_REPLAY_MEMO_H_
#define SRC_CORE_REPLAY_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "src/core/schedule_executor.h"

namespace flo {

class ReplayMemo {
 public:
  // nullptr when `key` was never replayed. The pointer stays valid until
  // the next Insert.
  const OverlapRun* Find(uint64_t key) const {
    const auto it = runs_.find(key);
    return it == runs_.end() ? nullptr : &it->second;
  }

  // Stores the first replay of `key` with its traces dropped.
  void Insert(uint64_t key, OverlapRun run) {
    run.groups.clear();
    run.gemm_timeline = Timeline{};
    run.comm_timeline = Timeline{};
    runs_.emplace(key, std::move(run));
  }

  // Distinct keys replayed so far — equally, the replays the memo has
  // recorded (each key is replayed once and never evicted).
  size_t size() const { return runs_.size(); }

 private:
  std::unordered_map<uint64_t, OverlapRun> runs_;
};

}  // namespace flo

#endif  // SRC_CORE_REPLAY_MEMO_H_
