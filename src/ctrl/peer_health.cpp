#include "ctrl/peer_health.hpp"

#include <algorithm>

#include "ckpt/io.hpp"
#include "common/invariant.hpp"

namespace sirius::ctrl {

PeerHealth::PeerHealth(std::int32_t peers, std::int32_t miss_threshold)
    : threshold_(miss_threshold),
      misses_(static_cast<std::size_t>(peers), 0),
      declared_(static_cast<std::size_t>(peers), 0) {
  SIRIUS_INVARIANT(peers >= 1, "PeerHealth needs at least one peer, got %d",
                   peers);
  SIRIUS_INVARIANT(miss_threshold >= 1,
                   "miss_threshold must be >= 1, got %d", miss_threshold);
}

void PeerHealth::record_hit(NodeId peer) {
  SIRIUS_INVARIANT(peer >= 0 && peer < peers(),
                   "PeerHealth hit for peer %d outside [0, %d)", peer,
                   peers());
  if (peer < 0 || peer >= peers()) return;
  misses_[static_cast<std::size_t>(peer)] = 0;
  declared_[static_cast<std::size_t>(peer)] = 0;
}

bool PeerHealth::record_miss(NodeId peer) {
  SIRIUS_INVARIANT(peer >= 0 && peer < peers(),
                   "PeerHealth miss for peer %d outside [0, %d)", peer,
                   peers());
  if (peer < 0 || peer >= peers()) return false;
  const auto i = static_cast<std::size_t>(peer);
  ++stat_misses_;
  if (declared_[i] != 0) return false;  // already convicted; run saturates
  if (++misses_[i] >= threshold_) {
    declared_[i] = 1;
    ++stat_declarations_;
    return true;
  }
  return false;
}

bool PeerHealth::declared(NodeId peer) const {
  if (peer < 0 || peer >= peers()) return false;
  return declared_[static_cast<std::size_t>(peer)] != 0;
}

std::int32_t PeerHealth::misses(NodeId peer) const {
  if (peer < 0 || peer >= peers()) return 0;
  return misses_[static_cast<std::size_t>(peer)];
}

void PeerHealth::reset(NodeId peer) {
  SIRIUS_INVARIANT(peer >= 0 && peer < peers(),
                   "PeerHealth reset for peer %d outside [0, %d)", peer,
                   peers());
  if (peer < 0 || peer >= peers()) return;
  misses_[static_cast<std::size_t>(peer)] = 0;
  declared_[static_cast<std::size_t>(peer)] = 0;
}

MembershipView::MembershipView(std::int32_t racks, NodeId owner,
                               std::int32_t quorum)
    : racks_(racks),
      owner_(owner),
      quorum_(quorum),
      links_(static_cast<std::size_t>(racks) * static_cast<std::size_t>(racks)),
      down_votes_(static_cast<std::size_t>(racks), 0),
      merged_rev_(static_cast<std::size_t>(racks), 0) {
  SIRIUS_INVARIANT(racks >= 2, "MembershipView needs >= 2 racks, got %d",
                   racks);
  SIRIUS_INVARIANT(owner >= 0 && owner < racks,
                   "MembershipView owner %d outside [0, %d)", owner, racks);
  SIRIUS_INVARIANT(quorum >= 1 && quorum < racks,
                   "MembershipView quorum %d outside [1, %d)", quorum, racks);
}

void MembershipView::report_link(NodeId peer, bool down) {
  SIRIUS_INVARIANT(peer >= 0 && peer < racks_,
                   "link report about peer %d outside [0, %d)", peer, racks_);
  if (peer < 0 || peer >= racks_) return;
  LinkState& cell = links_[idx(owner_, peer)];
  if ((cell.down != 0) == down) return;
  cell.down = down ? 1 : 0;
  ++cell.version;
  down_votes_[static_cast<std::size_t>(peer)] += down ? 1 : -1;
  ++revision_;
}

bool MembershipView::merge_from(const MembershipView& other) {
  SIRIUS_INVARIANT(other.racks_ == racks_,
                   "merging views of different fabrics (%d vs %d racks)",
                   other.racks_, racks_);
  if (other.racks_ != racks_) return false;
  const auto from = static_cast<std::size_t>(other.owner_);
  if (merged_rev_[from] == other.revision_) return false;  // nothing new
  bool changed = false;
  for (NodeId obs = 0; obs < racks_; ++obs) {
    if (obs == owner_) continue;  // sole writer of our own row
    for (NodeId peer = 0; peer < racks_; ++peer) {
      const LinkState& theirs = other.links_[idx(obs, peer)];
      LinkState& ours = links_[idx(obs, peer)];
      if (theirs.version <= ours.version) continue;
      if (theirs.down != ours.down) {
        down_votes_[static_cast<std::size_t>(peer)] +=
            theirs.down != 0 ? 1 : -1;
      }
      ours = theirs;
      changed = true;
    }
  }
  merged_rev_[from] = other.revision_;
  if (changed) ++revision_;
  return changed;
}

bool MembershipView::link_down(NodeId observer, NodeId peer) const {
  if (observer < 0 || observer >= racks_ || peer < 0 || peer >= racks_) {
    return false;
  }
  return links_[idx(observer, peer)].down != 0;
}

bool MembershipView::node_down(NodeId node) const {
  if (node < 0 || node >= racks_) return false;
  std::int32_t votes = down_votes_[static_cast<std::size_t>(node)];
  // A node's opinion of its own inbound links is not a vote against it.
  if (links_[idx(node, node)].down != 0) --votes;
  return votes >= quorum_;
}

std::vector<NodeId> MembershipView::down_set() const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < racks_; ++n) {
    if (node_down(n)) out.push_back(n);
  }
  return out;
}

void MembershipView::admit(NodeId node) {
  SIRIUS_INVARIANT(node >= 0 && node < racks_,
                   "admit of node %d outside [0, %d)", node, racks_);
  if (node < 0 || node >= racks_) return;
  for (NodeId other = 0; other < racks_; ++other) {
    for (const std::size_t i : {idx(other, node), idx(node, other)}) {
      LinkState& cell = links_[i];
      cell.down = 0;
      ++cell.version;  // stale piggybacked copies must lose future merges
    }
  }
  // Rebuild the vote tally from scratch; admit touched two full lines.
  std::fill(down_votes_.begin(), down_votes_.end(), 0);
  for (NodeId obs = 0; obs < racks_; ++obs) {
    for (NodeId peer = 0; peer < racks_; ++peer) {
      if (links_[idx(obs, peer)].down != 0) {
        ++down_votes_[static_cast<std::size_t>(peer)];
      }
    }
  }
  ++revision_;
}

template <class Io>
void PeerHealth::fields(Io& io) {
  constexpr const char* kRange = "peer-health state out of range";
  io(threshold_);
  io.fixed(misses_, "peer-health miss runs", kRange);
  io.fixed(declared_, "peer-health declarations", kRange);
  io(stat_misses_);
  io(stat_declarations_);
  io.check(threshold_ >= 1 && stat_misses_ >= 0 && stat_declarations_ >= 0,
           kRange);
  io.check(std::all_of(misses_.begin(), misses_.end(),
                       [this](std::int32_t m) {
                         return m >= 0 && m <= threshold_;
                       }),
           "peer-health miss run outside [0, threshold]");
}
template void PeerHealth::fields(ckpt::Writer&);
template void PeerHealth::fields(ckpt::Reader&);

template <class Io>
void MembershipView::fields(Io& io) {
  // racks, owner and quorum come from the run's config; the matrix and
  // vectors they size keep their constructed lengths.
  constexpr const char* kGeometry = "membership view geometry out of range";
  io.expect(racks_, kGeometry);
  io.expect(owner_, kGeometry);
  io.expect(quorum_, kGeometry);
  io(revision_);
  if (io.length(links_.size(), 5, "membership link matrix", kGeometry)) {
    for (LinkState& cell : links_) {
      io(cell.version);
      io(cell.down);
    }
  }
  io.fixed(down_votes_, "membership down votes", kGeometry);
  io.fixed(merged_rev_, "membership merge cursors", kGeometry);
  io.check(revision_ != 0, kGeometry);
}
template void MembershipView::fields(ckpt::Writer&);
template void MembershipView::fields(ckpt::Reader&);

}  // namespace sirius::ctrl
