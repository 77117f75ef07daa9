// The fixed-size transmission unit of the Sirius data plane (§4.2).
//
// All optical transmissions are fixed-size "cells" (562 B total by default,
// filling the 90 ns data portion of a 100 ns slot at 50 Gbps). A flow is
// segmented into cells at the source; the last cell may be padded, which is
// exactly the overhead Fig. 13 quantifies for small flows.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"

namespace sirius::node {

/// The index ranges a checkpointed cell's fields must fall in: the run
/// uses `flow`, `dst_node` and `dst_server` as indices once it resumes.
struct CellBounds {
  FlowId flows = 0;
  NodeId nodes = 0;
  std::int32_t servers = 0;
};

struct Cell {
  FlowId flow = 0;
  std::int32_t seq = 0;          ///< 0-based cell index within the flow
  NodeId dst_node = 0;           ///< destination rack/node
  std::int32_t dst_server = 0;   ///< destination server (global index)
  std::int32_t payload_bytes = 0;///< application bytes carried (<= capacity)
  std::int32_t retries = 0;      ///< §4.5 retransmission attempts so far

  /// Checkpoint field list (ckpt/io.hpp), kWireBytes long.
  template <class Io>
  void fields(Io& io, const CellBounds& bounds) {
    io(flow);
    io(seq);
    io(dst_node);
    io(dst_server);
    io(payload_bytes);
    io(retries);
    io.check(flow >= 0 && flow < bounds.flows && dst_node >= 0 &&
                 dst_node < bounds.nodes && dst_server >= 0 &&
                 dst_server < bounds.servers,
             "checkpointed cell outside the flow, rack or server range");
  }
  static constexpr std::size_t kWireBytes = 8 + 5 * 4;
};

/// Number of cells needed for `size` bytes with `capacity` bytes per cell.
[[nodiscard]] inline std::int64_t cells_for(DataSize size, DataSize capacity) {
  return div_ceil(size, capacity);
}

/// Application bytes carried by cell `seq` of a `size`-byte flow.
[[nodiscard]] inline std::int32_t payload_of(DataSize size, DataSize capacity,
                                             std::int32_t seq) {
  const std::int64_t total = cells_for(size, capacity);
  const DataSize last = size - capacity * (total - 1);
  // Cell::payload_bytes is a wire-format int32, so the last cell's size must
  // leave the strong type here. sirius-lint: allow(unit-escape)
  if (seq + 1 < total) return static_cast<std::int32_t>(capacity.in_bytes());
  return static_cast<std::int32_t>(last.in_bytes());  // sirius-lint: allow(unit-escape)
}

}  // namespace sirius::node
