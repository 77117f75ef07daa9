#include "node/node_audit.hpp"

#include "common/invariant.hpp"
#include "node/node.hpp"
#include "node/reorder_buffer.hpp"

namespace sirius::node {

void audit_queue_bound(const Node& n, std::int32_t queue_limit,
                       std::int32_t bound) {
  const auto& cc = n.cc();
  for (NodeId d = 0; d < static_cast<NodeId>(n.queue_span()); ++d) {
    const std::int32_t fq = n.fq_depth(d);
    const std::int32_t out = cc.outstanding(d);
    SIRIUS_INVARIANT(fq >= 0 && out >= 0,
                     "node %d: negative queue accounting for dst %d "
                     "(fq %d, outstanding %d)",
                     n.self(), d, fq, out);
    SIRIUS_INVARIANT(out <= queue_limit,
                     "node %d: %d outstanding grants for dst %d exceed Q=%d",
                     n.self(), out, d, queue_limit);
    SIRIUS_INVARIANT(fq + out <= bound,
                     "node %d: relay queue for dst %d holds %d cells with %d "
                     "outstanding grants, above the audited bound %d (Q=%d)",
                     n.self(), d, fq, out, bound, queue_limit);
  }
}

void audit_reorder(const ReorderBuffer& rb) {
  SIRIUS_INVARIANT(rb.next_expected() >= 0 &&
                       rb.next_expected() <= rb.total_cells(),
                   "reorder: in-order prefix %lld outside [0, %lld]",
                   static_cast<long long>(rb.next_expected()),
                   static_cast<long long>(rb.total_cells()));
  SIRIUS_INVARIANT(
      rb.buffered_cells() <= rb.total_cells() - rb.next_expected(),
      "reorder: %lld cells buffered beyond the %lld still outstanding",
      static_cast<long long>(rb.buffered_cells()),
      static_cast<long long>(rb.total_cells() - rb.next_expected()));
}

}  // namespace sirius::node
