#include "graph/ball.h"

#include <algorithm>

#include "rand/splitmix.h"
#include "util/assert.h"

namespace lnc::graph {
namespace {

/// The CSR path's visited map: stamp-versioned O(n) arrays. An entry is
/// valid only when its stamp matches the current collection, so reuse
/// never clears the arrays.
struct StampMap {
  NodeId* local_of;
  std::uint64_t* stamp;
  std::uint64_t version;

  NodeId find(NodeId v) const {
    return stamp[v] == version ? local_of[v] : kInvalidNode;
  }
  void insert(NodeId v, NodeId local) {
    local_of[v] = local;
    stamp[v] = version;
  }
};

/// The generic path's visited map: ball-sized open addressing (load
/// factor <= 1/2), deliberately NOT the O(n) stamp arrays — at n = 10^8
/// those alone would dwarf every ball this path ever builds.
class HashMap {
 public:
  HashMap(std::vector<NodeId>& keys, std::vector<NodeId>& vals)
      : keys_(keys), vals_(vals) {
    keys_.assign(std::max<std::size_t>(keys_.size(), 64), kInvalidNode);
    vals_.resize(keys_.size());
    mask_ = keys_.size() - 1;
  }

  /// v's local index, or kInvalidNode; remembers where v would go.
  NodeId find(NodeId v) {
    slot_ = static_cast<std::size_t>(rand::splitmix64(v)) & mask_;
    for (; keys_[slot_] != kInvalidNode; slot_ = (slot_ + 1) & mask_) {
      if (keys_[slot_] == v) return vals_[slot_];
    }
    return kInvalidNode;
  }

  /// Records v, which the preceding find() reported absent.
  void insert(NodeId v, NodeId local) {
    if (2 * ++size_ > keys_.size()) {  // rehash into twice the slots
      std::vector<NodeId> keys(2 * keys_.size(), kInvalidNode);
      std::vector<NodeId> vals(keys.size());
      keys.swap(keys_);
      vals.swap(vals_);
      mask_ = keys_.size() - 1;
      for (std::size_t s = 0; s < keys.size(); ++s) {
        if (keys[s] == kInvalidNode) continue;
        find(keys[s]);
        keys_[slot_] = keys[s];
        vals_[slot_] = vals[s];
      }
      find(v);
    }
    keys_[slot_] = v;
    vals_[slot_] = local;
  }

 private:
  std::vector<NodeId>& keys_;
  std::vector<NodeId>& vals_;
  std::size_t mask_ = 0;
  std::size_t slot_ = 0;
  std::size_t size_ = 0;
};

/// Insertion sort: rows are short, and mostly sorted already (the
/// members discovered by the scan arrive in ascending local order).
void sort_row(NodeId* row, std::size_t size) {
  for (std::size_t i = 1; i < size; ++i) {
    const NodeId x = row[i];
    std::size_t j = i;
    for (; j > 0 && row[j - 1] > x; --j) row[j] = row[j - 1];
    row[j] = x;
  }
}

}  // namespace

template <typename Rows, typename Visited>
void BallView::collect_one_pass(NodeId center, int radius, const Rows& rows,
                                Visited& visited, const BallFilter* filter,
                                std::vector<std::size_t>& cursor) {
  radius_ = radius;
  members_.assign(1, center);
  distances_.assign(1, 0);
  host_degrees_.clear();
  offsets_.assign(1, 0);
  adjacency_.clear();
  visited.find(center);
  visited.insert(center, 0);

  // BFS over the interior (distance < radius), in discovery order over
  // ascending neighbor ids. Every neighbor of an interior member across
  // an unblocked edge is in the ball — already visited, or discovered
  // now unless node-blocked — so the member's row is exactly the local
  // indices met while scanning it, sorted.
  NodeId interior = 0;
  for (; interior < members_.size() && distances_[interior] < radius;
       ++interior) {
    const NodeId u = members_[interior];
    const int du = distances_[interior];
    const std::span<const NodeId> row = rows(u);
    host_degrees_.push_back(static_cast<NodeId>(row.size()));
    for (const NodeId w : row) {
      if (filter != nullptr && filter->edge_blocked(u, w)) continue;
      NodeId b = visited.find(w);
      if (b == kInvalidNode) {
        if (filter != nullptr && filter->node_blocked(w)) continue;
        b = static_cast<NodeId>(members_.size());
        visited.insert(w, b);
        members_.push_back(w);
        distances_.push_back(du + 1);
      }
      adjacency_.push_back(b);
    }
    sort_row(adjacency_.data() + offsets_.back(),
             adjacency_.size() - offsets_.back());
    offsets_.push_back(adjacency_.size());
  }

  // Boundary members (distance == radius, local indices from `interior`
  // on) are not scanned; their host rows are fetched only for their
  // size. The paper's edge rule drops their edges to each other, so
  // their rows are exactly the reversed interior edges, ascending
  // because the interior rows are walked in local order.
  const NodeId size = static_cast<NodeId>(members_.size());
  for (NodeId b = interior; b < size; ++b) {
    host_degrees_.push_back(static_cast<NodeId>(rows(members_[b]).size()));
  }
  const std::size_t interior_edges = adjacency_.size();
  cursor.assign(size - interior, 0);
  for (std::size_t e = 0; e < interior_edges; ++e) {
    if (adjacency_[e] >= interior) ++cursor[adjacency_[e] - interior];
  }
  for (NodeId b = interior; b < size; ++b) {
    const std::size_t begin = offsets_.back();
    offsets_.push_back(begin + cursor[b - interior]);
    cursor[b - interior] = begin;
  }
  adjacency_.resize(offsets_.back());
  for (NodeId a = 0; a < interior; ++a) {
    for (std::size_t e = offsets_[a]; e < offsets_[a + 1]; ++e) {
      const NodeId b = adjacency_[e];
      if (b >= interior) adjacency_[cursor[b - interior]++] = a;
    }
  }
}

BallView::BallView(const Graph& g, NodeId center, int radius) {
  BallScratch scratch;
  collect(g, center, radius, scratch);
}

BallView::BallView(const Topology& topology, NodeId center, int radius) {
  BallScratch scratch;
  collect(topology, center, radius, scratch);
}

void BallView::collect(const Topology& topology, NodeId center, int radius,
                       BallScratch& scratch, const BallFilter* filter) {
  // A materialized graph keeps the stamp-versioned O(n)-scratch fast
  // path; one dynamic_cast per ball is noise next to the BFS.
  if (const auto* g = dynamic_cast<const Graph*>(&topology)) {
    collect(*g, center, radius, scratch, filter);
    return;
  }
  LNC_EXPECTS(center < topology.node_count());
  LNC_EXPECTS(radius >= 0);
  HashMap visited(scratch.map_keys_, scratch.map_vals_);
  collect_one_pass(
      center, radius,
      [&](NodeId v) { return topology.neighbors_of(v, scratch.fetch_); },
      visited, filter, scratch.cursor_);
}

void BallView::collect(const Graph& g, NodeId center, int radius,
                       BallScratch& scratch, const BallFilter* filter) {
  LNC_EXPECTS(center < g.node_count());
  LNC_EXPECTS(radius >= 0);
  if (scratch.local_of_.size() < g.node_count()) {
    scratch.local_of_.resize(g.node_count());
    scratch.stamp_.resize(g.node_count(), 0);
  }
  StampMap visited{scratch.local_of_.data(), scratch.stamp_.data(),
                   ++scratch.version_};
  collect_one_pass(
      center, radius, [&](NodeId v) { return g.neighbors(v); }, visited,
      filter, scratch.cursor_);
}

std::uint64_t BallView::structure_signature() const {
  std::uint64_t h = 0x62616C6C7369676EULL;  // "ballsign"
  h = rand::mix_keys(h, members_.size());
  for (NodeId i = 0; i < size(); ++i) {
    h = rand::mix_keys(h, static_cast<std::uint64_t>(distances_[i]));
    for (NodeId j : neighbors(i)) {
      h = rand::mix_keys(h, j);
    }
    h = rand::mix_keys(h, 0xFFFFFFFFULL);  // row separator
  }
  return h;
}

}  // namespace lnc::graph
