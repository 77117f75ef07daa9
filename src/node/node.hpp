// The Sirius node (rack switch or server NIC) data-plane state (§4.2–4.3).
//
// A node plays three roles simultaneously:
//  * source:       LOCAL holds locally generated cells (modelled as per-flow
//                  counters fed at server line rate); granted cells move to
//                  per-intermediate virtual queues (VQs) for first-hop
//                  transmission;
//  * intermediate: per-destination forward queues (FQs) hold relayed cells,
//                  bounded to Q by the congestion control;
//  * destination:  arriving cells are handed to the receive path (reorder
//                  buffers + server downlinks, owned by the simulator).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "cc/request_grant.hpp"
#include "common/hot_path.hpp"
#include "common/time.hpp"
#include "node/cell.hpp"
#include "stats/occupancy.hpp"

namespace sirius::node {

/// A flow queued at its source node.
struct LocalFlow {
  FlowId id = 0;
  NodeId dst_node = 0;
  std::int32_t src_server = 0;
  std::int32_t dst_server = 0;
  DataSize size;
  Time arrival;
  std::int64_t total_cells = 0;
  std::int64_t moved_cells = 0;  ///< cells already moved out of LOCAL
  /// Cells made available so far by the server->rack link (grows at the
  /// injection rate from `arrival`).
  [[nodiscard]] std::int64_t available(Time now, Time cell_interval) const {
    if (now < arrival) return 0;
    const std::int64_t released = (now - arrival) / cell_interval + 1;
    return std::min(total_cells, released);
  }
  [[nodiscard]] std::int64_t pending(Time now, Time cell_interval) const {
    return available(now, cell_interval) - moved_cells;
  }
  [[nodiscard]] bool exhausted() const { return moved_cells >= total_cells; }
};

class Node {
 public:
  Node(NodeId self, const cc::RequestGrantConfig& cc_cfg, DataSize cell_capacity);

  [[nodiscard]] NodeId self() const { return self_; }
  cc::RequestGrantNode& cc() { return cc_; }
  const cc::RequestGrantNode& cc() const { return cc_; }

  // ---- LOCAL buffer (source role) ---------------------------------------

  /// Registers a newly arrived flow in LOCAL.
  void add_flow(const LocalFlow& f);

  /// Destinations of cells pending in LOCAL, truncated to `limit` entries;
  /// input to cc::RequestGrantNode::build_requests. Cells are interleaved
  /// with two-level round-robin fairness — across source servers first,
  /// then across each server's flows — modelling the §4.3 credit-based
  /// server->rack flow control, which gives every server an equal share of
  /// the LOCAL buffer regardless of how many elephants its neighbours run.
  std::vector<NodeId> pending_cell_dsts(Time now, Time cell_interval,
                                        std::size_t limit) const;

  /// True if any flow still has cells not yet moved out of LOCAL
  /// (regardless of injection pacing).
  [[nodiscard]] bool has_unfinished_flows() const {
    return unfinished_flows_ > 0;
  }

  /// On grant receipt: takes the oldest pending cell for `dst` out of
  /// LOCAL. Returns nullopt if no such cell exists (grant is released).
  SIRIUS_HOT std::optional<Cell> take_cell_for(NodeId dst, Time now,
                                               Time cell_interval);

  /// Takes the oldest pending cell for *any* destination (ideal /
  /// scheduler-less spraying mode). Returns nullopt when LOCAL is empty.
  SIRIUS_HOT std::optional<Cell> take_any_cell(Time now, Time cell_interval);

  /// Aborts every LOCAL flow matching `pred` (its destination died, or this
  /// node itself fail-stopped): remaining cells are removed from LOCAL
  /// without ever being injected. Returns the ids of the aborted flows.
  std::vector<FlowId> abort_flows_where(
      const std::function<bool(const LocalFlow&)>& pred);

  // ---- retransmission queue (source role, §4.5 loss recovery) -----------

  /// Re-queues a timed-out granted cell for retransmission. Retx cells are
  /// served before LOCAL by take_cell_for / pending_cell_dsts, so the next
  /// grant towards their destination re-covers the loss first.
  SIRIUS_HOT void push_retx(const Cell& c);
  [[nodiscard]] std::int64_t retx_total() const { return retx_total_; }
  [[nodiscard]] std::int32_t retx_depth(NodeId dst) const {
    return static_cast<std::int32_t>(
        retx_[static_cast<std::size_t>(dst)].size());
  }

  // ---- failover queue surgery (§4.5) -------------------------------------

  /// Drops every queued cell destined to `dst` (the destination rack
  /// died). VQ cells still hold a grant at their — alive — intermediate,
  /// so `on_vq_purge` is invoked with that intermediate for each; the
  /// caller must release the grant there. Returns the cells dropped.
  std::int64_t purge_dst(NodeId dst,
                         const std::function<void(NodeId)>& on_vq_purge);

  /// Empties every VQ, FQ and retx queue (this node fail-stopped; its
  /// buffers are gone). Returns the cells dropped.
  std::int64_t purge_all_queues();

  // ---- virtual queues towards intermediates (source role) ---------------

  SIRIUS_HOT void push_vq(NodeId intermediate, const Cell& c);
  SIRIUS_HOT std::optional<Cell> pop_vq(NodeId intermediate);
  [[nodiscard]] std::int32_t vq_depth(NodeId intermediate) const {
    return static_cast<std::int32_t>(
        vq_[static_cast<std::size_t>(intermediate)].size());
  }

  // ---- forward queues per destination (intermediate role) ---------------

  SIRIUS_HOT void push_fq(NodeId dst, const Cell& c);
  SIRIUS_HOT std::optional<Cell> pop_fq(NodeId dst);
  [[nodiscard]] std::int32_t fq_depth(NodeId dst) const {
    return static_cast<std::int32_t>(
        fq_[static_cast<std::size_t>(dst)].size());
  }

  // ---- accounting --------------------------------------------------------

  /// Number of destination slots the per-dst queues span (= node count);
  /// lets auditors sweep every (node, dst) pair without knowing the config.
  [[nodiscard]] std::size_t queue_span() const { return fq_.size(); }

  /// Peak data held in this node's VQs + FQs (Fig. 10c).
  [[nodiscard]] DataSize peak_queue() const { return gauge_.peak(); }
  [[nodiscard]] DataSize current_queue() const { return gauge_.current(); }

  /// Checkpoint field list (ckpt/io.hpp): LOCAL flows and their per-dst
  /// index, the spray rotation, every VQ/FQ/retx queue cell-by-cell, the
  /// congestion-control state and the occupancy gauge — the complete
  /// data-plane state of this node. Queued cells are checked against
  /// `bounds`.
  template <class Io>
  void fields(Io& io, const CellBounds& bounds);

 private:
  LocalFlow* oldest_pending_flow_for(NodeId dst, Time now, Time cell_interval);
  Cell cut_cell(LocalFlow& f);

  NodeId self_;
  cc::RequestGrantNode cc_;
  DataSize cell_capacity_;

  std::deque<LocalFlow> local_;          // FIFO by arrival; never popped
  std::vector<std::deque<std::size_t>> per_dst_;  // indices into local_
  std::size_t first_unfinished_ = 0;     // FIFO cursor past exhausted flows
  std::int64_t unfinished_flows_ = 0;
  std::deque<std::size_t> spray_ready_;  // RR rotation for take_any_cell

  std::vector<std::deque<Cell>> vq_;
  std::vector<std::deque<Cell>> fq_;
  std::vector<std::deque<Cell>> retx_;   // per destination, served first
  std::int64_t retx_total_ = 0;
  stats::ByteGauge gauge_;
};

}  // namespace sirius::node
