#include "node/node.hpp"

#include <cassert>

#include "ckpt/io.hpp"
#include "common/invariant.hpp"

namespace sirius::node {

Node::Node(NodeId self, const cc::RequestGrantConfig& cc_cfg,
           DataSize cell_capacity)
    : self_(self), cc_(self, cc_cfg), cell_capacity_(cell_capacity) {
  vq_.resize(static_cast<std::size_t>(cc_cfg.nodes));
  fq_.resize(static_cast<std::size_t>(cc_cfg.nodes));
  retx_.resize(static_cast<std::size_t>(cc_cfg.nodes));
  per_dst_.resize(static_cast<std::size_t>(cc_cfg.nodes));
}

void Node::add_flow(const LocalFlow& f) {
  SIRIUS_INVARIANT(f.total_cells > 0, "flow %lld arrives with %lld cells",
                   static_cast<long long>(f.id),
                   static_cast<long long>(f.total_cells));
  if (f.total_cells <= 0) return;
  local_.push_back(f);
  const std::size_t idx = local_.size() - 1;
  per_dst_[static_cast<std::size_t>(f.dst_node)].push_back(idx);
  // Rotation re-queue, matched by the pop_front above.
  // sirius-lint: allow(hot-path-alloc)
  spray_ready_.push_back(idx);
  ++unfinished_flows_;
}

std::vector<NodeId> Node::pending_cell_dsts(Time now, Time cell_interval,
                                            std::size_t limit) const {
  std::vector<NodeId> out;
  out.reserve(limit);

  // Retransmissions first: a lost cell blocks its flow's in-order prefix
  // at the receiver, so re-covering it beats injecting fresh cells.
  for (std::size_t dst = 0; dst < retx_.size() && out.size() < limit; ++dst) {
    for (std::size_t k = 0; k < retx_[dst].size() && out.size() < limit; ++k) {
      out.push_back(static_cast<NodeId>(dst));
    }
  }
  if (out.size() >= limit) return out;

  // Bucket pending flows by source server (buckets keep flow arrival
  // order; each entry is (destination, pending cell count)).
  std::vector<std::int32_t> server_ids;
  std::vector<std::deque<std::pair<NodeId, std::int64_t>>> buckets;
  for (std::size_t i = first_unfinished_; i < local_.size(); ++i) {
    const LocalFlow& f = local_[i];
    if (f.exhausted()) continue;
    const std::int64_t n = f.pending(now, cell_interval);
    if (n <= 0) continue;
    std::size_t b = 0;
    while (b < server_ids.size() && server_ids[b] != f.src_server) ++b;
    if (b == server_ids.size()) {
      server_ids.push_back(f.src_server);
      buckets.emplace_back();
    }
    buckets[b].push_back({f.dst_node, n});
  }

  // Two-level round-robin: one cell per server per pass, rotating over
  // each server's flows.
  bool any = !buckets.empty();
  while (any && out.size() < limit) {
    any = false;
    for (auto& bucket : buckets) {
      if (bucket.empty()) continue;
      auto [dst, n] = bucket.front();
      bucket.pop_front();
      out.push_back(dst);
      if (--n > 0) bucket.push_back({dst, n});
      if (out.size() >= limit) return out;
      any = any || !bucket.empty();
    }
  }
  return out;
}

LocalFlow* Node::oldest_pending_flow_for(NodeId dst, Time now,
                                         Time cell_interval) {
  auto& q = per_dst_[static_cast<std::size_t>(dst)];
  // Drop exhausted heads, then serve the first flow with a pending cell and
  // rotate it to the back: cells of concurrent flows to the same
  // destination are interleaved in the rack's FIFO virtual queue (they
  // arrive interleaved from their servers), so service alternates across
  // flows instead of running one flow to completion.
  while (!q.empty() && local_[q.front()].exhausted()) q.pop_front();
  for (std::size_t k = 0; k < q.size(); ++k) {
    const std::size_t idx = q.front();
    q.pop_front();
    LocalFlow& f = local_[idx];
    if (f.exhausted()) continue;
    // Deque rotation: pops are matched by pushes, so steady state
    // reuses the same blocks. sirius-lint: allow(hot-path-alloc)
    q.push_back(idx);
    if (f.pending(now, cell_interval) > 0) return &f;
  }
  return nullptr;
}

Cell Node::cut_cell(LocalFlow& f) {
  Cell c;
  c.flow = f.id;
  c.seq = static_cast<std::int32_t>(f.moved_cells);
  c.dst_node = f.dst_node;
  c.dst_server = f.dst_server;
  c.payload_bytes = payload_of(f.size, cell_capacity_, c.seq);
  ++f.moved_cells;
  if (f.exhausted()) {
    --unfinished_flows_;
    // Advance the FIFO cursor past the exhausted prefix.
    while (first_unfinished_ < local_.size() &&
           local_[first_unfinished_].exhausted()) {
      ++first_unfinished_;
    }
  }
  return c;
}

std::optional<Cell> Node::take_cell_for(NodeId dst, Time now,
                                        Time cell_interval) {
  auto& rq = retx_[static_cast<std::size_t>(dst)];
  if (!rq.empty()) {
    Cell c = rq.front();
    rq.pop_front();
    --retx_total_;
    gauge_.remove(cell_capacity_);
    return c;
  }
  LocalFlow* f = oldest_pending_flow_for(dst, now, cell_interval);
  if (f == nullptr) return std::nullopt;
  return cut_cell(*f);
}

std::vector<FlowId> Node::abort_flows_where(
    const std::function<bool(const LocalFlow&)>& pred) {
  std::vector<FlowId> aborted;
  for (LocalFlow& f : local_) {
    if (f.exhausted() || !pred(f)) continue;
    aborted.push_back(f.id);
    f.moved_cells = f.total_cells;
    --unfinished_flows_;
  }
  while (first_unfinished_ < local_.size() &&
         local_[first_unfinished_].exhausted()) {
    ++first_unfinished_;
  }
  return aborted;
}

void Node::push_retx(const Cell& c) {
  retx_[static_cast<std::size_t>(c.dst_node)].push_back(c);
  ++retx_total_;
  gauge_.add(cell_capacity_);
}

std::int64_t Node::purge_dst(NodeId dst,
                             const std::function<void(NodeId)>& on_vq_purge) {
  std::int64_t dropped = 0;
  for (std::size_t inter = 0; inter < vq_.size(); ++inter) {
    auto& q = vq_[inter];
    for (std::size_t i = q.size(); i > 0; --i) {
      Cell c = q.front();
      q.pop_front();
      if (c.dst_node == dst) {
        gauge_.remove(cell_capacity_);
        ++dropped;
        if (on_vq_purge) on_vq_purge(static_cast<NodeId>(inter));
      } else {
        q.push_back(c);
      }
    }
  }
  auto& f = fq_[static_cast<std::size_t>(dst)];
  dropped += static_cast<std::int64_t>(f.size());
  gauge_.remove(cell_capacity_ * static_cast<std::int64_t>(f.size()));
  f.clear();
  auto& r = retx_[static_cast<std::size_t>(dst)];
  dropped += static_cast<std::int64_t>(r.size());
  retx_total_ -= static_cast<std::int64_t>(r.size());
  gauge_.remove(cell_capacity_ * static_cast<std::int64_t>(r.size()));
  r.clear();
  return dropped;
}

std::int64_t Node::purge_all_queues() {
  std::int64_t dropped = 0;
  const auto clear_all = [&](std::vector<std::deque<Cell>>& qs) {
    for (auto& q : qs) {
      dropped += static_cast<std::int64_t>(q.size());
      gauge_.remove(cell_capacity_ * static_cast<std::int64_t>(q.size()));
      q.clear();
    }
  };
  clear_all(vq_);
  clear_all(fq_);
  clear_all(retx_);
  retx_total_ = 0;
  return dropped;
}

std::optional<Cell> Node::take_any_cell(Time now, Time cell_interval) {
  // Round-robin over flows so concurrent flows share the uplinks fairly
  // (this is the "ideal" per-flow service discipline).
  for (std::size_t tries = spray_ready_.size(); tries > 0; --tries) {
    const std::size_t idx = spray_ready_.front();
    spray_ready_.pop_front();
    LocalFlow& f = local_[idx];
    if (f.exhausted()) continue;  // drop from rotation
    if (f.pending(now, cell_interval) > 0) {
      Cell c = cut_cell(f);
      // Rotation re-queue, matched by the pop_front above.
      // sirius-lint: allow(hot-path-alloc)
      if (!f.exhausted()) spray_ready_.push_back(idx);
      return c;
    }
    // Rotation re-queue, matched by the pop_front above.
    // sirius-lint: allow(hot-path-alloc)
    spray_ready_.push_back(idx);  // paced out; retry later
  }
  return std::nullopt;
}

void Node::push_vq(NodeId intermediate, const Cell& c) {
  vq_[static_cast<std::size_t>(intermediate)].push_back(c);
  gauge_.add(cell_capacity_);
}

std::optional<Cell> Node::pop_vq(NodeId intermediate) {
  auto& q = vq_[static_cast<std::size_t>(intermediate)];
  if (q.empty()) return std::nullopt;
  Cell c = q.front();
  q.pop_front();
  gauge_.remove(cell_capacity_);
  return c;
}

void Node::push_fq(NodeId dst, const Cell& c) {
  fq_[static_cast<std::size_t>(dst)].push_back(c);
  gauge_.add(cell_capacity_);
}

std::optional<Cell> Node::pop_fq(NodeId dst) {
  auto& q = fq_[static_cast<std::size_t>(dst)];
  if (q.empty()) return std::nullopt;
  Cell c = q.front();
  q.pop_front();
  gauge_.remove(cell_capacity_);
  return c;
}


template <class Io>
void Node::fields(Io& io, const CellBounds& bounds) {
  cc_.fields(io);
  const std::size_t nodes = per_dst_.size();
  io.seq(local_, 8, "LOCAL flow list", [&io, nodes](LocalFlow& f) {
    io(f.id);
    io(f.dst_node);
    io(f.src_server);
    io(f.dst_server);
    io(f.size);
    io(f.arrival);
    io(f.total_cells);
    io(f.moved_cells);
    io.check(f.dst_node >= 0 && static_cast<std::size_t>(f.dst_node) < nodes &&
                 f.size >= DataSize::zero() && f.total_cells > 0 &&
                 f.moved_cells >= 0 && f.moved_cells <= f.total_cells,
             "LOCAL flow state out of range");
  });
  const std::size_t n_local = local_.size();
  const auto indices = [&io, n_local](std::deque<std::size_t>& d,
                                      const char* what, const char* outside) {
    io.seq(d, 8, what, [&](std::size_t& i) {
      io(i);
      io.check(i < n_local, outside);
    });
  };
  if (io.length(per_dst_.size(), 8, "per-destination index",
                "per-destination index count does not match the node count")) {
    for (std::deque<std::size_t>& d : per_dst_) {
      indices(d, "per-destination index",
              "per-destination index index outside the LOCAL buffer");
    }
  }
  io(first_unfinished_);
  io(unfinished_flows_);
  indices(spray_ready_, "spray rotation",
          "spray rotation index outside the LOCAL buffer");
  io.check(first_unfinished_ <= n_local && unfinished_flows_ >= 0 &&
               unfinished_flows_ <= static_cast<std::int64_t>(n_local),
           "LOCAL cursor state out of range");
  const auto queues = [&io, &bounds](std::vector<std::deque<Cell>>& qs,
                                     const char* what, const char* mismatch) {
    if (!io.length(qs.size(), 8, what, mismatch)) return;
    for (std::deque<Cell>& q : qs) {
      io.seq(q, Cell::kWireBytes, what,
             [&](Cell& c) { c.fields(io, bounds); });
    }
  };
  queues(vq_, "virtual", "virtual queue count does not match the node count");
  queues(fq_, "forward", "forward queue count does not match the node count");
  queues(retx_, "retransmission",
         "retransmission queue count does not match the node count");
  io(retx_total_);
  io.check(retx_total_ >= 0, "retransmission total negative");
  gauge_.fields(io);
}
template void Node::fields(ckpt::Writer&, const CellBounds&);
template void Node::fields(ckpt::Reader&, const CellBounds&);

}  // namespace sirius::node
