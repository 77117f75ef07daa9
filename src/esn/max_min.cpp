#include "esn/max_min.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sirius::esn {

MaxMinSolver::MaxMinSolver(std::vector<double> capacity)
    : capacity_(std::move(capacity)) {
  const std::size_t n = capacity_.size();
  cap_.assign(n, 0.0);
  cnt_.assign(n, 0);
  key_.assign(n, 0.0);
  begin_.assign(n, 0);
  end_.assign(n, 0);
  slot_.assign(n, 0);
  heap_.reserve(n);
  touched_.reserve(n);
}

bool MaxMinSolver::before(std::int32_t a, std::int32_t b) const {
  const double ka = key_[static_cast<std::size_t>(a)];
  const double kb = key_[static_cast<std::size_t>(b)];
  return ka < kb || (ka == kb && a < b);
}

void MaxMinSolver::place(std::size_t slot, std::int32_t c) {
  heap_[slot] = c;
  slot_[static_cast<std::size_t>(c)] = slot;
}

void MaxMinSolver::sift_up(std::size_t slot) {
  const std::int32_t c = heap_[slot];
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / 2;
    if (!before(c, heap_[parent])) break;
    place(slot, heap_[parent]);
    slot = parent;
  }
  place(slot, c);
}

void MaxMinSolver::sift_down(std::size_t slot) {
  const std::int32_t c = heap_[slot];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * slot + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], c)) break;
    place(slot, heap_[child]);
    slot = child;
  }
  place(slot, c);
}

void MaxMinSolver::resift(std::int32_t c) {
  sift_up(slot_[static_cast<std::size_t>(c)]);
  sift_down(slot_[static_cast<std::size_t>(c)]);
}

void MaxMinSolver::erase(std::int32_t c) {
  const std::size_t slot = slot_[static_cast<std::size_t>(c)];
  const std::int32_t last = heap_.back();
  heap_.pop_back();
  if (slot == heap_.size()) return;
  place(slot, last);
  resift(last);
}

void MaxMinSolver::solve(const std::vector<FlowPath>& paths,
                         std::vector<double>& rates) {
  rates.assign(paths.size(), 0.0);
  frozen_.assign(paths.size(), 0);
  for (const std::int32_t c : touched_) cnt_[static_cast<std::size_t>(c)] = 0;
  touched_.clear();

  // Membership: count per touched constraint, prefix offsets, then one
  // fill pass in path order, which is the order members freeze in.
  for (const FlowPath& p : paths) {
    assert(p.n_constraints > 0 && "a flow with no constraint has no rate");
    for (std::int32_t k = 0; k < p.n_constraints; ++k) {
      const auto c = static_cast<std::size_t>(p.constraints[k]);
      if (cnt_[c]++ == 0) touched_.push_back(p.constraints[k]);
    }
  }
  std::int32_t offset = 0;
  heap_.clear();
  for (const std::int32_t c : touched_) {
    const auto ci = static_cast<std::size_t>(c);
    begin_[ci] = end_[ci] = offset;
    offset += cnt_[ci];
    cap_[ci] = capacity_[ci];
    key_[ci] = cap_[ci] / cnt_[ci];
    heap_.push_back(c);
    sift_up(heap_.size() - 1);
  }
  members_.resize(static_cast<std::size_t>(offset));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const FlowPath& p = paths[i];
    for (std::int32_t k = 0; k < p.n_constraints; ++k) {
      const auto c = static_cast<std::size_t>(p.constraints[k]);
      members_[static_cast<std::size_t>(end_[c]++)] =
          static_cast<std::int32_t>(i);
    }
  }

  // Progressive filling: saturate the constraint with the smallest fair
  // share, freeze its unfrozen flows at that share, and charge the share
  // to each frozen flow's other constraints.
  while (!heap_.empty()) {
    const std::int32_t c = heap_.front();
    const auto ci = static_cast<std::size_t>(c);
    const double fair = key_[ci];
    erase(c);
    for (std::int32_t m = begin_[ci]; m < end_[ci]; ++m) {
      const auto fi =
          static_cast<std::size_t>(members_[static_cast<std::size_t>(m)]);
      if (frozen_[fi] != 0) continue;
      frozen_[fi] = 1;
      rates[fi] = fair;
      const FlowPath& p = paths[fi];
      for (std::int32_t k = 0; k < p.n_constraints; ++k) {
        const std::int32_t c2 = p.constraints[k];
        const auto c2i = static_cast<std::size_t>(c2);
        cap_[c2i] -= fair;
        --cnt_[c2i];
        if (c2 == c) continue;
        if (cnt_[c2i] == 0) {
          erase(c2);
        } else {
          key_[c2i] = std::max(cap_[c2i], 0.0) / cnt_[c2i];
          resift(c2);
        }
      }
    }
  }
}

}  // namespace sirius::esn
