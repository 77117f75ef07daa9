#include "cc/request_grant.hpp"

#include <cassert>

#include "ckpt/io.hpp"
#include "common/invariant.hpp"

namespace sirius::cc {

RequestGrantNode::RequestGrantNode(NodeId self, const RequestGrantConfig& cfg)
    : self_(self), cfg_(cfg) {
  SIRIUS_INVARIANT(cfg_.nodes >= 2, "request/grant over %d nodes", cfg_.nodes);
  SIRIUS_INVARIANT(cfg_.queue_limit >= 2,
                   "Q=%d < 2 can deadlock the relay (see §4.3)",
                   cfg_.queue_limit);
  outstanding_.assign(static_cast<std::size_t>(cfg_.nodes), 0);
  picked_this_epoch_.assign(static_cast<std::size_t>(cfg_.nodes), 0);
  intermediate_pool_.reserve(static_cast<std::size_t>(cfg_.nodes));
  pool_pos_.assign(static_cast<std::size_t>(cfg_.nodes), -1);
  excluded_.assign(static_cast<std::size_t>(cfg_.nodes), 0);
  // Pre-size the per-slot request inbox: at most one piggybacked request
  // per peer per slot, so the SIRIUS_HOT receive path never reallocates.
  inbox_.reserve(static_cast<std::size_t>(cfg_.nodes));
}

void RequestGrantNode::shuffle_inbox(Rng& rng) {
  // Fisher–Yates so the per-destination pick below is uniform among the
  // requests for that destination.
  for (std::size_t i = inbox_.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(inbox_[i - 1], inbox_[j]);
  }
}

void RequestGrantNode::pool_remove(NodeId n) {
  const std::int32_t pos = pool_pos_[static_cast<std::size_t>(n)];
  assert(pos >= 0);
  const NodeId last = intermediate_pool_.back();
  intermediate_pool_[static_cast<std::size_t>(pos)] = last;
  pool_pos_[static_cast<std::size_t>(last)] = pos;
  intermediate_pool_.pop_back();
  pool_pos_[static_cast<std::size_t>(n)] = -1;
}

std::vector<RequestGrantNode::OutgoingRequest> RequestGrantNode::build_requests(
    const std::vector<NodeId>& pending, std::int64_t epoch, Rng& rng,
    const std::function<bool(NodeId)>& usable,
    const std::function<bool(NodeId, NodeId)>& relay_ok) {
  std::vector<OutgoingRequest> out;
  if (pending.empty()) return out;

  // Candidate intermediates: every alive, serviceable node but ourselves.
  intermediate_pool_.clear();
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    if (n != self_ && excluded_[static_cast<std::size_t>(n)] == 0 &&
        (!usable || usable(n))) {
      pool_pos_[static_cast<std::size_t>(n)] =
          static_cast<std::int32_t>(intermediate_pool_.size());
      intermediate_pool_.push_back(n);
    } else {
      pool_pos_[static_cast<std::size_t>(n)] = -1;
    }
  }
  if (intermediate_pool_.empty()) return out;

  out.reserve(std::min(pending.size(), intermediate_pool_.size()));
  for (const NodeId dst : pending) {
    if (intermediate_pool_.empty()) break;
    NodeId pick = kInvalidNode;
    if (cfg_.spread == SpreadPolicy::kDesynchronized) {
      // First choice: the rotating, collision-free slot for this
      // destination. If it is ourselves or already used (same-D repeat),
      // fall back to a random unused intermediate below.
      const auto cand = static_cast<NodeId>(
          (static_cast<std::int64_t>(dst) + self_ + epoch) % cfg_.nodes);
      if (cand != self_ && pool_pos_[static_cast<std::size_t>(cand)] >= 0 &&
          (!relay_ok || relay_ok(cand, dst))) {
        pick = cand;
      }
    }
    if (pick == kInvalidNode) {
      // Rejection-sample a random unused intermediate; without a relay_ok
      // veto this is a single draw (the pre-veto behaviour). A cell whose
      // draws are all vetoed re-requests next epoch.
      for (std::int32_t attempt = 0; attempt < 4; ++attempt) {
        const NodeId cand =
            intermediate_pool_[rng.below(intermediate_pool_.size())];
        if (!relay_ok || relay_ok(cand, dst)) {
          pick = cand;
          break;
        }
      }
      if (pick == kInvalidNode) continue;
    }
    pool_remove(pick);
    out.push_back(OutgoingRequest{pick, dst});
  }
  return out;
}


template <class Io>
void RequestGrantNode::fields(Io& io) {
  constexpr const char* kGeometry =
      "request/grant state does not match this run's node count";
  io.seq(inbox_, 8, "request inbox", [&io](Request& req) {
    io(req.src);
    io(req.dst);
  });
  io.fixed(outstanding_, "outstanding grants", kGeometry);
  io.fixed(excluded_, "exclusion flags", kGeometry);
  io(stat_requests_);
  io(stat_grants_);
  io(stat_denied_q_);
  io(stat_releases_);
  io.check(stat_requests_ >= 0 && stat_grants_ >= 0 && stat_denied_q_ >= 0 &&
               stat_releases_ >= 0,
           kGeometry);
  const auto node_ok = [this](NodeId n) { return n >= 0 && n < cfg_.nodes; };
  io.check(std::all_of(inbox_.begin(), inbox_.end(),
                       [&](const Request& req) {
                         return node_ok(req.src) && node_ok(req.dst);
                       }),
           "buffered request outside the node range");
  io.check(std::all_of(outstanding_.begin(), outstanding_.end(),
                       [this](std::int32_t out) {
                         return out >= 0 && out <= cfg_.queue_limit;
                       }),
           "outstanding grant counter outside [0, Q]");
}
template void RequestGrantNode::fields(ckpt::Writer&);
template void RequestGrantNode::fields(ckpt::Reader&);

}  // namespace sirius::cc
