#include "graph/ball.h"

#include <algorithm>
#include <cstdint>

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
/// those alone would dwarf every ball this path ever builds. Its key
/// slots are empty between collections: the map remembers each slot it
/// fills, and its destructor empties exactly those, so a small ball after
/// a large one touches only its own slots.
class HashMap {
 public:
  HashMap(std::vector<NodeId>& keys, std::vector<NodeId>& vals,
          std::vector<std::size_t>& filled)
      : keys_(keys), vals_(vals), filled_(filled) {
    if (keys_.empty()) keys_.assign(64, kInvalidNode);
    vals_.resize(keys_.size());
    mask_ = keys_.size() - 1;
    filled_.clear();
  }
  HashMap(const HashMap&) = delete;
  HashMap& operator=(const HashMap&) = delete;
  ~HashMap() {
    for (const std::size_t s : filled_) keys_[s] = kInvalidNode;
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
    if (2 * (filled_.size() + 1) > keys_.size()) {
      // Rehash into twice the slots; the old table is dropped whole.
      std::vector<NodeId> keys(2 * keys_.size(), kInvalidNode);
      std::vector<NodeId> vals(keys.size());
      keys.swap(keys_);
      vals.swap(vals_);
      mask_ = keys_.size() - 1;
      for (std::size_t& s : filled_) {
        find(keys[s]);
        keys_[slot_] = keys[s];
        vals_[slot_] = vals[s];
        s = slot_;
      }
      find(v);
    }
    keys_[slot_] = v;
    vals_[slot_] = local;
    filled_.push_back(slot_);
  }

 private:
  std::vector<NodeId>& keys_;
  std::vector<NodeId>& vals_;
  std::vector<std::size_t>& filled_;
  std::size_t mask_ = 0;
  std::size_t slot_ = 0;
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
  std::vector<NodeId>& members = own_.members;
  std::vector<int>& distances = own_.distances;
  std::vector<NodeId>& host_degrees = own_.host_degrees;
  std::vector<std::uint32_t>& offsets = own_.offsets;
  std::vector<NodeId>& adjacency = own_.adjacency;
  radius_ = radius;
  members.assign(1, center);
  distances.assign(1, 0);
  host_degrees.clear();
  offsets.assign(1, 0);
  adjacency.clear();
  visited.find(center);
  visited.insert(center, 0);

  // BFS over the interior (distance < radius), in discovery order over
  // ascending neighbor ids. Every neighbor of an interior member across
  // an unblocked edge is in the ball — already visited, or discovered
  // now unless node-blocked — so the member's row is exactly the local
  // indices met while scanning it, sorted.
  NodeId interior = 0;
  for (; interior < members.size() && distances[interior] < radius;
       ++interior) {
    const NodeId u = members[interior];
    const int du = distances[interior];
    const std::span<const NodeId> row = rows(u);
    host_degrees.push_back(static_cast<NodeId>(row.size()));
    for (const NodeId w : row) {
      if (filter != nullptr && filter->edge_blocked(u, w)) continue;
      NodeId b = visited.find(w);
      if (b == kInvalidNode) {
        if (filter != nullptr && filter->node_blocked(w)) continue;
        b = static_cast<NodeId>(members.size());
        visited.insert(w, b);
        members.push_back(w);
        distances.push_back(du + 1);
      }
      adjacency.push_back(b);
    }
    sort_row(adjacency.data() + offsets.back(),
             adjacency.size() - offsets.back());
    offsets.push_back(static_cast<std::uint32_t>(adjacency.size()));
  }

  // Boundary members (distance == radius, local indices from `interior`
  // on) are not scanned; their host rows are fetched only for their
  // size. The paper's edge rule drops their edges to each other, so
  // their rows are exactly the reversed interior edges, ascending
  // because the interior rows are walked in local order.
  const NodeId size = static_cast<NodeId>(members.size());
  for (NodeId b = interior; b < size; ++b) {
    host_degrees.push_back(static_cast<NodeId>(rows(members[b]).size()));
  }
  const std::size_t interior_edges = adjacency.size();
  cursor.assign(size - interior, 0);
  for (std::size_t e = 0; e < interior_edges; ++e) {
    if (adjacency[e] >= interior) ++cursor[adjacency[e] - interior];
  }
  for (NodeId b = interior; b < size; ++b) {
    const std::size_t begin = offsets.back();
    offsets.push_back(
        static_cast<std::uint32_t>(begin + cursor[b - interior]));
    cursor[b - interior] = begin;
  }
  adjacency.resize(offsets.back());
  for (NodeId a = 0; a < interior; ++a) {
    for (std::size_t e = offsets[a]; e < offsets[a + 1]; ++e) {
      const NodeId b = adjacency[e];
      if (b >= interior) adjacency[cursor[b - interior]++] = a;
    }
  }
  point_at_own();
}

void BallView::point_at_own() noexcept {
  members_ = own_.members.data();
  distances_ = own_.distances.data();
  host_degrees_ = own_.host_degrees.data();
  offsets_ = own_.offsets.data();
  adjacency_ = own_.adjacency.data();
  size_ = static_cast<NodeId>(own_.members.size());
  adjacency_size_ = static_cast<std::uint32_t>(own_.adjacency.size());
}

BallView::BallView(const Graph& g, NodeId center, int radius) {
  BallScratch scratch;
  collect(g, center, radius, scratch);
}

BallView::BallView(const Topology& topology, NodeId center, int radius) {
  BallScratch scratch;
  collect(topology, center, radius, scratch);
}

BallView::BallView(const BallView& other) { *this = other; }

BallView& BallView::operator=(const BallView& other) {
  if (this == &other) return *this;
  own_ = other.own_;
  members_ = other.members_;
  distances_ = other.distances_;
  host_degrees_ = other.host_degrees_;
  offsets_ = other.offsets_;
  adjacency_ = other.adjacency_;
  size_ = other.size_;
  adjacency_size_ = other.adjacency_size_;
  radius_ = other.radius_;
  // A collected source reads its own storage: read the copy of it.
  if (other.members_ == other.own_.members.data()) point_at_own();
  return *this;
}

void BallView::view(const BallTable& table, NodeId center) {
  LNC_EXPECTS(center + 1 < table.member_begin_.size());
  const std::uint32_t first = table.member_begin_[center];
  radius_ = table.radius_;
  size_ = table.member_begin_[center + 1] - first;
  members_ = table.members_.data() + first;
  distances_ = table.distances_.data() + first;
  host_degrees_ = table.host_degrees_.data() + first;
  offsets_ = table.offsets_.data() + first + center;
  adjacency_ = table.adjacency_.data() + table.adjacency_begin_[center];
  adjacency_size_ = offsets_[size_];
}

void BallView::collect(const Topology& topology, NodeId center, int radius,
                       BallScratch& scratch, const BallFilter* filter) {
  // A materialized graph keeps the stamp-versioned O(n)-scratch fast
  // path.
  if (const Graph* g = topology.as_graph()) {
    collect(*g, center, radius, scratch, filter);
    return;
  }
  LNC_EXPECTS(center < topology.node_count());
  LNC_EXPECTS(radius >= 0);
  HashMap visited(scratch.map_keys_, scratch.map_vals_, scratch.map_filled_);
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

BallTable::BallTable(const Graph& g, int radius)
    : BallTable(unfilled(g, radius)) {
  BallView ball;
  BallScratch scratch;
  measure(0, g.node_count(), ball, scratch);
  allocate();
  fill(0, g.node_count(), ball, scratch);
}

BallTable BallTable::unfilled(const Graph& g, int radius) {
  LNC_EXPECTS(radius >= 0);
  BallTable table;
  table.graph_ = &g;
  table.radius_ = radius;
  table.member_begin_.assign(std::size_t{g.node_count()} + 1, 0);
  table.adjacency_begin_.assign(std::size_t{g.node_count()} + 1, 0);
  return table;
}

std::uint64_t BallTable::measure(NodeId begin, NodeId end, BallView& ball,
                                 BallScratch& scratch) {
  LNC_EXPECTS(begin <= end && end < member_begin_.size());
  std::uint64_t members = 0;
  std::uint64_t adjacency = 0;
  for (NodeId v = begin; v < end; ++v) {
    ball.collect(*graph_, v, radius_, scratch);
    member_begin_[v + 1] = ball.size_;
    adjacency_begin_[v + 1] = ball.adjacency_size_;
    members += ball.size_;
    adjacency += ball.adjacency_size_;
  }
  // What bytes() counts per entry: two begins and one offset per node,
  // and per member an id, a distance, a host degree and an offset.
  return 12 * std::uint64_t{end - begin} + 16 * members + 4 * adjacency;
}

void BallTable::allocate() {
  // Prefix sums in 64 bits: the 32-bit offsets must hold every total.
  std::uint64_t members = 0;
  std::uint64_t adjacency = 0;
  for (std::size_t v = 1; v < member_begin_.size(); ++v) {
    members += member_begin_[v];
    adjacency += adjacency_begin_[v];
    member_begin_[v] = static_cast<std::uint32_t>(members);
    adjacency_begin_[v] = static_cast<std::uint32_t>(adjacency);
  }
  const std::uint64_t offsets = members + member_begin_.size() - 1;
  LNC_EXPECTS(offsets <= UINT32_MAX && adjacency <= UINT32_MAX &&
              "ball table exceeds 32-bit offsets");
  members_.resize(members);
  distances_.resize(members);
  host_degrees_.resize(members);
  offsets_.resize(offsets);
  adjacency_.resize(adjacency);
}

void BallTable::fill(NodeId begin, NodeId end, BallView& ball,
                     BallScratch& scratch) {
  LNC_EXPECTS(begin <= end && end < member_begin_.size());
  for (NodeId v = begin; v < end; ++v) {
    ball.collect(*graph_, v, radius_, scratch);
    const std::uint32_t first = member_begin_[v];
    const std::uint32_t edges = adjacency_begin_[v];
    LNC_ASSERT(ball.size_ == member_begin_[v + 1] - first &&
               ball.adjacency_size_ == adjacency_begin_[v + 1] - edges);
    std::copy_n(ball.members_, ball.size_, members_.data() + first);
    std::copy_n(ball.distances_, ball.size_, distances_.data() + first);
    std::copy_n(ball.host_degrees_, ball.size_, host_degrees_.data() + first);
    std::copy_n(ball.offsets_, ball.size_ + 1, offsets_.data() + first + v);
    std::copy_n(ball.adjacency_, ball.adjacency_size_,
                adjacency_.data() + edges);
  }
}

std::uint64_t BallTable::bytes() const noexcept {
  return sizeof(std::uint32_t) * (member_begin_.capacity() +
                                  adjacency_begin_.capacity() +
                                  offsets_.capacity()) +
         sizeof(NodeId) * (members_.capacity() + host_degrees_.capacity() +
                           adjacency_.capacity()) +
         sizeof(int) * distances_.capacity();
}

std::uint64_t BallView::structure_signature() const {
  std::uint64_t h = 0x62616C6C7369676EULL;  // "ballsign"
  h = rand::mix_keys(h, size_);
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
