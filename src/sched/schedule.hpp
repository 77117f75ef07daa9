// The scheduler-less static schedule (§4.2, Fig. 5b).
//
// Sirius never computes schedules online. Nodes follow a fixed, cyclic
// calendar: at every timeslot each uplink is tuned to a schedule-determined
// wavelength, connecting it to a schedule-determined peer. The calendar is
// built from rotational permutations — at slot t, uplink u of node s
// transmits to (s + 1 + offset(u, t)) mod N — which makes it:
//   * contention-free: for a fixed (u, t) the map s -> dst is a bijection,
//     so no receiver port ever hears two senders;
//   * fair: one *round* of ceil((N-1)/U) slots connects every ordered node
//     pair exactly once — this round is the "epoch" that paces the
//     congestion-control request/grant cycle;
//   * laser-sharing friendly: within a slot all uplinks of a node can use
//     the same wavelength index on their respective gratings.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hot_path.hpp"
#include "common/units.hpp"
#include "topo/sirius_topology.hpp"

namespace sirius::sched {

/// The cyclic schedule over N nodes with U uplinks each.
///
/// A schedule can also be built over an explicit *member list* — the alive
/// subset of nodes after failures (§4.5): "the network schedule for all
/// the nodes can be adjusted to omit the failed node and hence regain any
/// lost bandwidth". Members keep their global NodeIds; the rotation runs
/// over member indices, so contention-freeness and the once-per-round
/// property hold within the alive set.
class CyclicSchedule final {
 public:
  CyclicSchedule(std::int32_t nodes, std::int32_t uplinks);
  /// Schedule over an explicit member set (sorted, unique, >= 2 entries).
  CyclicSchedule(std::vector<NodeId> members, std::int32_t uplinks);

  /// Number of *participating* nodes (= member count).
  [[nodiscard]] std::int32_t nodes() const {
    return members_ ? member_count_ : nodes_;
  }
  [[nodiscard]] std::int32_t uplinks() const { return uplinks_; }
  [[nodiscard]] bool is_member(NodeId n) const;

  /// Slots per round; one round connects each ordered pair exactly once.
  [[nodiscard]] std::int32_t slots_per_round() const {
    return slots_per_round_;
  }

  /// Destination of node `src` on uplink `u` at global slot `t`, or
  /// kInvalidNode if that uplink is idle in this slot (padding when
  /// (N-1) is not a multiple of U).
  [[nodiscard]] SIRIUS_HOT NodeId peer_tx(NodeId src, UplinkId u,
                                          std::int64_t t) const;

  /// Source heard by node `dst` on downlink `u` at slot `t`, or
  /// kInvalidNode when idle.
  [[nodiscard]] SIRIUS_HOT NodeId peer_rx(NodeId dst, UplinkId u,
                                          std::int64_t t) const;

  /// The (slot-in-round, uplink) at which `src` talks to `dst`. Each
  /// ordered pair occurs exactly once per round.
  struct Connection {
    std::int32_t slot_in_round;
    UplinkId uplink;
  };
  Connection connection(NodeId src, NodeId dst) const;

  /// Round index containing global slot `t`.
  [[nodiscard]] std::int64_t round_of(std::int64_t t) const {
    return t / slots_per_round_;
  }
  /// First global slot of round `r`.
  [[nodiscard]] std::int64_t round_start(std::int64_t r) const {
    return r * slots_per_round_;
  }

  /// Checkpoint field list (ckpt/io.hpp): the calendar is a pure function
  /// of its constructor inputs, so only those travel; reading re-derives
  /// the tables (and re-validates, so hostile input cannot build an
  /// inconsistent schedule or one outside the run's `racks` and `uplinks`).
  template <class Io>
  void fields(Io& io, std::int32_t racks, std::int32_t uplinks);

 private:
  [[nodiscard]] std::int32_t offset_of(UplinkId u, std::int64_t t) const;
  // member index, -1 if not member
  [[nodiscard]] std::int32_t index_of(NodeId n) const;
  [[nodiscard]] NodeId node_at(std::int32_t index) const;

  std::int32_t nodes_;
  std::int32_t uplinks_;
  std::int32_t slots_per_round_;
  bool members_ = false;
  std::int32_t member_count_ = 0;
  std::vector<NodeId> member_list_;       // index -> NodeId
  std::vector<std::int32_t> member_index_;  // NodeId -> index, -1 if absent
};

/// Maps the abstract schedule onto physical wavelengths for a topology and
/// verifies grating-level contention-freeness. Returns true if, at every
/// slot of a round, every populated AWGR output port receives light from
/// at most one input.
bool physically_contention_free(const topo::SiriusTopology& topo,
                                const CyclicSchedule& sched);

}  // namespace sirius::sched
