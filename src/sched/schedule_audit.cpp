#include "sched/schedule_audit.hpp"

#include <vector>

#include "check/auditors.hpp"
#include "common/invariant.hpp"
#include "sched/schedule.hpp"

namespace sirius::sched {

void audit_slot_permutation(const CyclicSchedule& sched, std::int64_t slot) {
  // Contention-freeness is per uplink: for a fixed (u, slot) the src -> dst
  // map is a bijection. Across uplinks a node legitimately receives up to
  // U cells per slot (one per downlink), so each uplink is audited alone.
  std::vector<NodeId> dsts;
  dsts.reserve(static_cast<std::size_t>(sched.nodes()));
  for (UplinkId u = 0; u < sched.uplinks(); ++u) {
    dsts.clear();
    for (NodeId raw = 0, seen = 0; seen < sched.nodes(); ++raw) {
      if (!sched.is_member(raw)) continue;
      ++seen;
      const NodeId dst = sched.peer_tx(raw, u, slot);
      if (dst == kInvalidNode) continue;
      SIRIUS_INVARIANT(dst != raw, "schedule: node %d sends to itself at slot %lld",
                       raw, static_cast<long long>(slot));
      SIRIUS_INVARIANT(sched.is_member(dst),
                       "schedule: node %d sends to non-member %d at slot %lld",
                       raw, dst, static_cast<long long>(slot));
      dsts.push_back(dst);
    }
    check::audit_destination_permutation(dsts, "schedule");
  }

  // rx consistency: every receiver that hears someone hears exactly the
  // sender the tx map named (spot-checks the peer_rx inverse).
  for (NodeId raw = 0, seen = 0; seen < sched.nodes(); ++raw) {
    if (!sched.is_member(raw)) continue;
    ++seen;
    for (UplinkId u = 0; u < sched.uplinks(); ++u) {
      const NodeId src = sched.peer_rx(raw, u, slot);
      if (src == kInvalidNode) continue;
      SIRIUS_INVARIANT(
          sched.peer_tx(src, u, slot) == raw,
          "schedule: peer_rx(%d, %d) = %d but peer_tx disagrees at slot %lld",
          raw, u, src, static_cast<long long>(slot));
    }
  }
}

}  // namespace sirius::sched
