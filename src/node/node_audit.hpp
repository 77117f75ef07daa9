// Node auditors: the §4.3 relay-queue bound and the reorder-buffer
// structural check, audited over live node/ types.
//
// Lives in node/ (not check/) so the check layer never depends upward on
// the modules it audits: check/ owns the registry and the structural
// primitives, and each module exports the auditors over its own types
// (cf. sched/schedule_audit.hpp). The layer-order lint rule enforces the
// direction.
#pragma once

#include <cstdint>

namespace sirius::node {

class Node;
class ReorderBuffer;

/// Audits one node's per-destination relay (forward) queues against
/// `bound` cells, and its grant accounting against `queue_limit` (the
/// protocol Q). `bound` >= Q: with release-at-transmit grant accounting the
/// conserved quantity is fq + outstanding + granted-cells-in-flight, so the
/// queue alone may transiently hold up to Q plus the in-flight allowance
/// (see SiriusSim::transmit_slot).
void audit_queue_bound(const Node& n, std::int32_t queue_limit,
                       std::int32_t bound);

/// Structural consistency of a live reorder buffer.
void audit_reorder(const ReorderBuffer& rb);

}  // namespace sirius::node
