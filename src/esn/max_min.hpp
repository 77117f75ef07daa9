// Exact max-min fair rates over capacity constraints: the ESN fluid
// baselines' solver (§7).
//
// Progressive filling: take the constraint with the smallest fair share
// cap/cnt (capacity left over its unfrozen flows), freeze those flows at
// that share and charge it to their other constraints. Membership is flat
// CSR in path order; the touched constraints sit in an indexed min-heap
// keyed by the cached (fair share, constraint id), re-keyed in place on
// every freeze. Ties go to the smaller id, so the rates are a pure
// function of the capacities and the ordered paths.
#pragma once

#include <cstdint>
#include <vector>

namespace sirius::esn {

/// The capacity constraints one flow crosses: indices into the solver's
/// capacity vector (source NIC, destination NIC and, in an oversubscribed
/// fabric, the source rack's uplink and the destination rack's downlink).
/// A flow lists each constraint at most once.
struct FlowPath {
  static constexpr std::int32_t kMaxConstraints = 4;
  std::int32_t constraints[kMaxConstraints] = {};
  std::int32_t n_constraints = 0;
};

class MaxMinSolver {
 public:
  /// `capacity[c]` is constraint c's capacity in bits/sec.
  explicit MaxMinSolver(std::vector<double> capacity);

  /// Sets `rates[i]` (bits/sec, resized to `paths.size()`) to the max-min
  /// fair rate of the flow crossing `paths[i]`.
  void solve(const std::vector<FlowPath>& paths, std::vector<double>& rates);

 private:
  [[nodiscard]] bool before(std::int32_t a, std::int32_t b) const;
  void place(std::size_t slot, std::int32_t c);
  void sift_up(std::size_t slot);
  void sift_down(std::size_t slot);
  void resift(std::int32_t c);
  void erase(std::int32_t c);

  std::vector<double> capacity_;

  // Per constraint; meaningful only for the constraints in `touched_`.
  std::vector<double> cap_;          // capacity left to unfrozen flows
  std::vector<std::int32_t> cnt_;    // unfrozen flows
  std::vector<double> key_;          // cached fair share max(cap, 0) / cnt
  std::vector<std::int32_t> begin_;  // CSR range of members_
  std::vector<std::int32_t> end_;
  std::vector<std::size_t> slot_;    // position in heap_
  std::vector<std::int32_t> touched_;

  std::vector<std::int32_t> members_;  // flow indices, grouped by constraint
  std::vector<std::int32_t> heap_;     // constraint ids, min (key_, id) first
  std::vector<std::uint8_t> frozen_;   // per flow
};

}  // namespace sirius::esn
