#include "src/core/counting_table.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace flo {

CountingTable::CountingTable(std::vector<int> group_targets)
    : targets_(std::move(group_targets)),
      counts_(targets_.size(), 0),
      callbacks_(targets_.size()) {
  FLO_CHECK(!targets_.empty());
  for (int target : targets_) {
    FLO_CHECK_GT(target, 0);
  }
}

int CountingTable::target(int group) const {
  FLO_CHECK_GE(group, 0);
  FLO_CHECK_LT(group, group_count());
  return targets_[group];
}

int CountingTable::count(int group) const {
  FLO_CHECK_GE(group, 0);
  FLO_CHECK_LT(group, group_count());
  return counts_[group];
}

void CountingTable::OnGroupComplete(int group, std::function<void()> callback) {
  FLO_CHECK_GE(group, 0);
  FLO_CHECK_LT(group, group_count());
  FLO_CHECK(callback != nullptr);
  if (GroupComplete(group)) {
    callback();
    return;
  }
  callbacks_[group].push_back(std::move(callback));
}

bool CountingTable::RecordTiles(int group, int n) {
  FLO_CHECK_GE(group, 0);
  FLO_CHECK_LT(group, group_count());
  FLO_CHECK_GT(n, 0);
  FLO_CHECK_LE(n, targets_[group] - counts_[group]) << "group over-counted";
  const int new_count = counts_[group] += n;
  if (new_count != targets_[group]) {
    return false;
  }
  auto callbacks = std::move(callbacks_[group]);
  callbacks_[group].clear();
  for (auto& callback : callbacks) {
    callback();
  }
  return true;
}

bool CountingTable::GroupComplete(int group) const { return count(group) >= target(group); }

bool CountingTable::AllComplete() const {
  for (int g = 0; g < group_count(); ++g) {
    if (!GroupComplete(g)) {
      return false;
    }
  }
  return true;
}

void CountingTable::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  for (auto& callbacks : callbacks_) {
    callbacks.clear();
  }
}

}  // namespace flo
