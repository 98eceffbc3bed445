// The signaling mechanism's counting table (paper Sec. 3.2.4).
//
// The table holds one counter per wave group. On the device the GEMM
// epilogue bumps the counter of each finished tile's group; when a counter
// reaches the group's tile count, the signal kernel releases the group's
// communication. The simulator models the GEMM one wave at a time and all
// of a wave's tiles finish at the same simulated time, so it records a
// wave's tiles per group in one RecordTiles call instead of one call per
// tile. Every caller is single-threaded, so the counters are plain ints.
#ifndef SRC_CORE_COUNTING_TABLE_H_
#define SRC_CORE_COUNTING_TABLE_H_

#include <functional>
#include <vector>

namespace flo {

class CountingTable {
 public:
  // `group_targets[j]` = |G_j| in tiles.
  explicit CountingTable(std::vector<int> group_targets);

  int group_count() const { return static_cast<int>(targets_.size()); }
  int target(int group) const;
  int count(int group) const;

  // Registers a callback fired exactly once, when `group` completes. If the
  // group already completed the callback fires immediately.
  void OnGroupComplete(int group, std::function<void()> callback);

  // Records `n` > 0 finished tiles of `group`; returns true if they
  // completed the group (the "signal"), after firing its callbacks once.
  // Over-counting is a caller bug.
  bool RecordTiles(int group, int n);
  // RecordTiles(group, 1): the per-tile epilogue's view.
  bool RecordTile(int group) { return RecordTiles(group, 1); }

  bool GroupComplete(int group) const;
  bool AllComplete() const;

  // Resets all counters (keeps targets and drops callbacks); lets one
  // table be reused across iterations like the persistent device buffer.
  void Reset();

 private:
  std::vector<int> targets_;
  std::vector<int> counts_;
  std::vector<std::vector<std::function<void()>>> callbacks_;
};

}  // namespace flo

#endif  // SRC_CORE_COUNTING_TABLE_H_
