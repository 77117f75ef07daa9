#include "node/reorder_buffer.hpp"

#include <algorithm>

#include "ckpt/io.hpp"
#include "common/invariant.hpp"

namespace sirius::node {

std::int64_t ReorderBuffer::on_arrival(std::int32_t seq, std::int32_t bytes) {
  SIRIUS_INVARIANT(seq >= 0 && seq < total_cells_,
                   "reorder: seq %d outside the flow's [0, %lld) cells", seq,
                   static_cast<long long>(total_cells_));
  if (seq < 0 || seq >= total_cells_) return 0;
  SIRIUS_INVARIANT(bytes >= 0, "reorder: cell %d carries %d bytes", seq,
                   bytes);
  if (bytes < 0) bytes = 0;
  if (seq < next_expected_) return 0;  // duplicate; ignore
  if (seq > next_expected_) {
    const auto s = static_cast<std::size_t>(seq);
    const std::uint64_t mask = std::uint64_t{1} << (s % 64);
    if ((pending_[s / 64] & mask) == 0) {
      pending_[s / 64] |= mask;
      ++buffered_cells_;
      buffered_bytes_ += bytes;
      peak_bytes_ = std::max(peak_bytes_, buffered_bytes_);
    }
    return 0;
  }
  // In-order arrival: release it plus any buffered successors. The in-order
  // prefix only ever grows — that monotonicity is the in-order-release
  // contract the destination relies on.
  std::int64_t released = 1;
  ++next_expected_;
  while (next_expected_ < total_cells_ && pending_bit(
             static_cast<std::int32_t>(next_expected_))) {
    const auto s = static_cast<std::size_t>(next_expected_);
    pending_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    --buffered_cells_;
    ++next_expected_;
    ++released;
  }
  SIRIUS_INVARIANT(next_expected_ <= total_cells_,
                   "reorder: in-order prefix %lld ran past the flow's %lld "
                   "cells",
                   static_cast<long long>(next_expected_),
                   static_cast<long long>(total_cells_));
  // Conservatively account released buffered cells at full payload: exact
  // byte tracking per seq would need a map; the peak statistic is taken
  // before release so it is unaffected.
  if (released > 1) {
    buffered_bytes_ -= bytes * (released - 1);
    buffered_bytes_ = std::max<std::int64_t>(buffered_bytes_, 0);
  }
  return released;
}

template <class Io>
void ReorderBuffer::fields(Io& io) {
  io(total_cells_);
  io(next_expected_);
  io(pending_, "reorder pending bitmap");
  io(buffered_cells_);
  io(buffered_bytes_);
  io(peak_bytes_);
  const std::size_t words =
      total_cells_ > 0 ? static_cast<std::size_t>((total_cells_ + 63) / 64)
                       : 0;
  io.check(total_cells_ >= 0 && next_expected_ >= 0 &&
               next_expected_ <= total_cells_ && pending_.size() == words &&
               buffered_cells_ >= 0 && buffered_cells_ <= total_cells_ &&
               buffered_bytes_ >= 0 && peak_bytes_ >= 0,
           "reorder buffer state out of range");
}
template void ReorderBuffer::fields(ckpt::Writer&);
template void ReorderBuffer::fields(ckpt::Reader&);

}  // namespace sirius::node
